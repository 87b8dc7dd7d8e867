"""Zip shift spaces: full shifts, finite-type spaces and sofic spaces.

A space couples two alphabets through a transition factor map: letters of A'
live at non-negative indices, their phi-images (letters of A) at negative
indices.  The A'-side language is given either by a finite forbidden set
(full = empty set) or by an edge-labeled presentation graph (sofic).  The
A-side and mixed languages are derived, never user-supplied.

Both ways of giving the A'-side are edge-labeled graphs, and every space
builds one at construction, trimmed to the vertices on bi-infinite walks:
``step[v][c]`` lists the vertices one edge on from v along edges that emit
c, and ``succ[v]`` joins those lists in letter order, one entry per edge.
Both are built once, at construction; the reverse of ``step`` is built
only by the first random lift.  Full and finite-type spaces take the
admissible max(step_k, 1)-blocks as vertices, in alphabet order, with an edge
u -> u[1:] + (c,) when u + (c,) has no forbidden factor; that edge emits
u[0], so a walk emits the first letter of every block it leaves.  Sofic
spaces take the presentation vertices, numbered in sorted-name order, and
each edge emits its label.  An A'-word is admissible exactly when some walk
emits it, and language, admissibility, cycle words (periodic points),
irreducibility and random lifts are read off this one graph whatever the
kind; so are the A'-adjacency matrix and the periodic counts (closed walks)
of full and finite-type spaces.

Every A-word and every seam block is the image of some A'-word, so both are
decided by reading them through the labeled window graph of least width
(a higher edge graph of the A'-graph) with the subset construction, never
by listing A'-words.  An A-word is admissible when reading it along the
edges' A-labels from all vertices leaves a non-empty vertex set; a seam
block (a ; u) when some vertex of the set reached by a carries u's first
letters and can read the rest of u along the edges' A'-labels.  The same
walk lists the A-side and mixed languages in alphabet order, and derives
the minimal forbidden A-words on pairs of its states without listing a
word that leads to none.

Full and finite-type spaces keep their live blocks, in vertex order, as
the A'-graph's vertex labels (``_blocks``): the window graphs, the matrices
and the transition-domain check read them.  They are the only word list a
space holds.  Every language is generated on a subset walk each time it is
asked for and never kept: besides its A'-graph and blocks a space holds one
labeled window graph per width some layer asked for (``_graph``, the only
place they are built) and the walks' move tables between queries.
"""
from __future__ import annotations

import random
from collections import deque
from itertools import islice
from typing import Iterable, Iterator

from .errors import InvalidWord, NotFiniteType, UnknownSymbol
from .point import EpPoint
from .symbols import Alphabet, TransitionMap, Word, _Value

_WANDER = 4


def _prune_superwords(words: set[Word]) -> set[Word]:
    """Drop every word that contains another member as a proper factor."""
    return {
        w
        for w in words
        if not any(w[i : i + k] in words for k in range(1, len(w)) for i in range(len(w) - k + 1))
    }


def _live_vertices(succ: list[list[int]], pred: list[list[int]]) -> bytearray:
    """Mark with 1 the vertices that lie on bi-infinite walks.

    ``succ[v]`` lists the target of every edge out of v and ``pred[v]`` the
    source of every edge into v.  One worklist pass with per-vertex live in-
    and out-counters: a vertex dies when its last live in-edge or its last
    live out-edge goes, so each edge is visited at most twice.
    """
    live_in = [len(p) for p in pred]
    live_out = [len(s) for s in succ]
    alive = bytearray(b"\1") * len(succ)
    dead = [v for v in range(len(succ)) if not (live_in[v] and live_out[v])]
    for v in dead:
        alive[v] = 0
    while dead:
        v = dead.pop()
        for w in succ[v]:
            if alive[w]:
                live_in[w] -= 1
                if not live_in[w]:
                    alive[w] = 0
                    dead.append(w)
        for u in pred[v]:
            if alive[u]:
                live_out[u] -= 1
                if not live_out[u]:
                    alive[u] = 0
                    dead.append(u)
    return alive


def _trimmed(step: list[dict[str, list[int]]], succ: list[list[int]]):
    """The live vertices of a letter-indexed graph, and its live part
    renumbered in vertex order as ``(live, step, succ)``.

    ``succ[v]`` is ``step[v]``'s target lists joined in letter order, and no
    letter may map to an empty list.  When every vertex is live both inputs
    are returned as they are; otherwise each live vertex keeps its letters
    and targets in their order, less the dead targets, and ``succ`` is joined
    again from the renumbered ``step``.
    """
    pred: list[list[int]] = [[] for _ in step]
    for v, targets in enumerate(succ):
        for t in targets:
            pred[t].append(v)
    alive = _live_vertices(succ, pred)
    live = [v for v in range(len(step)) if alive[v]]
    if len(live) < len(step):
        new_id = {v: i for i, v in enumerate(live)}
        kept = ({c: [new_id[t] for t in targets if alive[t]] for c, targets in step[v].items()} for v in live)
        step = [{c: targets for c, targets in out.items() if targets} for out in kept]
        succ = _joined(step)
    return live, step, succ


def _reversed(step: list[dict[str, list[int]]]) -> list[dict[str, list[int]]]:
    """The reverse of a letter-indexed graph: each edge listed at its target,
    letters in the order first met and sources in vertex order, one entry
    per edge, as an edge-by-edge rebuild lists them."""
    back: list[dict[str, list[int]]] = [{} for _ in step]
    for v, out in enumerate(step):
        for c, targets in out.items():
            for t in targets:
                back[t].setdefault(c, []).append(v)
    return back


def _joined(step: list[dict[str, list[int]]]) -> list[list[int]]:
    """Each vertex's target lists joined in letter order: one entry per edge."""
    return [[t for targets in out.values() for t in targets] for out in step]


class _SubsetWalk:
    """The subset construction on a letter-indexed graph, built as it is read.

    ``step[v][c]`` lists the vertices one step on from v reading c.  A state
    is the set of vertices that walks spelling some word, started in the
    ``start`` set (by default every vertex), can end at; states are numbered
    as first reached, 0 being the start set, and each move (state, letter)
    -> state is computed once.  A word is spelled by some walk from the
    start set exactly when its state is non-empty.  The walk keeps its
    states and moves, never a list of words: every listing is generated
    afresh by :meth:`words`.
    """

    def __init__(self, step: list[dict], letters: tuple[str, ...], start: Iterable[int] | None = None):
        self._step = step
        self._letters = letters
        start = frozenset(range(len(step)) if start is None else start)
        self.sets: list[frozenset[int]] = [start]
        self._ids = {start: 0}
        self._moves: list[dict[str, int]] = [{}]

    def move(self, state: int, c: str) -> int:
        moves = self._moves[state]
        nxt = moves.get(c)
        if nxt is None:
            step = self._step
            reached = frozenset(w for v in self.sets[state] for w in step[v].get(c, ()))
            nxt = self._ids.setdefault(reached, len(self.sets))
            if nxt == len(self.sets):
                self.sets.append(reached)
                self._moves.append({})
            moves[c] = nxt
        return nxt

    def read(self, word: Word, state: int = 0) -> int:
        moves = self._moves
        for c in word:
            nxt = moves[state].get(c)
            state = self.move(state, c) if nxt is None else nxt
        return state

    def repeat(self, word: Word, state: int) -> int:
        """A state of the cycle that reading ``word`` again and again from ``state`` falls into (Brent)."""
        mark, reads = state, 1
        while (state := self.read(word, state)) != mark:
            if not reads & (reads - 1):
                mark = state
            reads += 1
        return state

    def words(self, k: int) -> Iterator[tuple[Word, int]]:
        """The spelled k-words with their states, in alphabet order.

        Generated depth first and kept nowhere: at any time the generator
        holds one pending branch per letter and depth.
        """
        stack = [((), 0)]
        moves, sets = self._moves, self.sets
        while stack:
            w, s = stack.pop()
            if len(w) == k:
                yield w, s
                continue
            known = moves[s]
            for c in reversed(self._letters):
                t = known.get(c)
                if t is None:
                    t = self.move(s, c)
                if sets[t]:
                    stack.append((w + (c,), t))

    def minimal_forbidden(self, top: int) -> set[Word]:
        """The minimal forbidden words of the walk's language of lengths
        2 .. ``top``, which must be at least 2 (a smaller ``top`` still
        gives every one of length 2): every w + c whose state is empty
        while the states of w and (w + c)[1:] are not.

        A word w is read as the pair (state of w, state of w[1:]), so w + c is
        minimal forbidden exactly when the first moves to the empty state along
        c and the second does not.  The pairs are found level by level for
        lengths 1 .. top - 1, each pair's moves once, and the pairs that lead
        to such a word are marked from the deepest level up.  Words are listed
        depth first through marked pairs only: none when nothing is forbidden.
        """
        letters, sets = self._letters, self.sets
        found: dict[tuple[int, int], tuple[list[str], list[tuple[str, tuple[int, int]]]]] = {}

        def out(pair: tuple[int, int]):
            """The letters that end a minimal forbidden word at ``pair``,
            and the moves to the pairs of its admissible one-letter
            extensions."""
            got = found.get(pair)
            if got is None:
                s, r = pair
                ends, on = [], []
                for c in letters:
                    t, u = self.move(s, c), self.move(r, c)
                    if sets[t]:
                        on.append((c, (t, u)))
                    elif sets[u]:
                        ends.append(c)
                got = found[pair] = ends, on
            return got

        firsts = [(c, (t, 0)) for c, t in ((c, self.move(0, c)) for c in letters) if sets[t]]
        levels = [{pair for _c, pair in firsts}]
        while len(levels) < top - 1:
            levels.append({q for pair in levels[-1] for _c, q in out(pair)[1]})
        marked: list[set[tuple[int, int]]] = []
        below: set[tuple[int, int]] = set()
        for level in reversed(levels):
            below = {p for p in level if out(p)[0] or any(q in below for _c, q in out(p)[1])}
            marked.append(below)
        marked.reverse()
        bad: set[Word] = set()
        stack = [((c,), pair, 0) for c, pair in firsts if pair in marked[0]]
        while stack:
            w, pair, d = stack.pop()
            ends, on = out(pair)
            bad.update(w + (c,) for c in ends)
            if d + 1 < len(marked):
                stack.extend((w + (c,), q, d + 1) for c, q in on if q in marked[d + 1])
        return bad


class MatrixSet(_Value):
    """Adjacency data of a finite-type space, as 0/1 matrices.

    Each matrix is a tuple of rows and each row a tuple of ints 0 or 1, so
    two sets compare and hash by value.  ``aprime_adj`` is the adjacency of
    the space's A'-graph, indexed by its vertices ``aprime_words`` (K-step
    blocks over A'), ``a_adj`` by ``a_words`` (derived A-side blocks) and
    ``t`` relates A-side rows to A'-side columns through mixed-word
    admissibility.  ``k`` and ``n_step`` are the computed step orders (0 for
    full shifts; index blocks are then single letters), ``m_step`` their
    maximum.
    """

    aprime_words: tuple[Word, ...]
    aprime_adj: tuple[tuple[int, ...], ...]
    a_words: tuple[Word, ...]
    a_adj: tuple[tuple[int, ...], ...]
    t: tuple[tuple[int, ...], ...]
    k: int
    n_step: int
    m_step: int

    def __init__(self, aprime_words, aprime_adj, a_words, a_adj, t, k, n_step, m_step):
        self.__dict__.update(aprime_words=aprime_words, aprime_adj=aprime_adj, a_words=a_words, a_adj=a_adj,
                             t=t, k=k, n_step=n_step, m_step=m_step)


class IrreducibilityReport(_Value):
    is_irreducible: bool
    witnesses: dict[tuple[str, str], Word] | None
    failing_pair: tuple[str, str] | None

    def __init__(self, is_irreducible: bool, witnesses: dict | None, failing_pair: tuple[str, str] | None):
        self.__dict__.update(is_irreducible=is_irreducible, witnesses=witnesses, failing_pair=failing_pair)

    def __bool__(self) -> bool:
        return self.is_irreducible


class ZipShiftSpace:
    """A zip shift space over an alphabet pair (A, A')."""

    def __init__(
        self,
        alphabet_a: Alphabet,
        alphabet_aprime: Alphabet,
        tm: TransitionMap,
        kind: str,
        forbidden: set[Word] | None = None,
        presentation: tuple[list[str], list[tuple[str, str, str]]] | None = None,
    ):
        if kind not in ("full", "sft", "sofic"):
            raise InvalidWord(f"unknown space kind {kind!r}")
        self.alphabet_a = alphabet_a
        self.alphabet_aprime = alphabet_aprime
        self.tm = tm
        self.kind = kind
        self.n = tm.n
        self._graphs: dict = {}  # labeled window graphs by width, see _graph
        self._walk: _SubsetWalk | None = None
        self._back: list[dict[str, list[int]]] | None = None  # reverse of _step, see random_lift
        self._a_forb: frozenset[Word] | None = None
        self.forbidden: frozenset[Word] = frozenset()
        self.step_k = 0
        self.presentation_vertices: tuple[str, ...] | None = None
        self.presentation_edges: tuple[tuple[str, str, str], ...] | None = None

        if forbidden and kind != "sft":
            raise InvalidWord("forbidden words are only valid for sft spaces")
        if presentation is not None and kind != "sofic":
            raise InvalidWord("a presentation graph is only valid for sofic spaces")
        blocks = None
        if kind == "sofic":
            if presentation is None:
                raise InvalidWord("sofic spaces need a presentation graph")
            step, succ = self._presentation_step(presentation)
        else:
            forb = set(tuple(w) for w in (forbidden or set()))
            if kind == "sft" and not forb:
                raise InvalidWord("finite-type spaces need forbidden words (use a full space otherwise)")
            blocks, step, succ = self._block_step(forb)
        live, self._step, self._succ = _trimmed(step, succ)
        if not live:
            raise InvalidWord("the space has an empty language")
        # The A'-graph's vertex labels: its live blocks, for full and
        # finite-type spaces.
        self._blocks: tuple[Word, ...] | None = None if blocks is None else tuple(blocks[v] for v in live)
        self._aprime_walk = _SubsetWalk(self._step, alphabet_aprime.symbols)
        if kind == "sofic":
            vertices, edges = presentation
            names = sorted(vertices)
            kept = {names[v] for v in live}
            self.presentation_vertices = tuple(v for v in vertices if v in kept)
            order = {v: i for i, v in enumerate(self.presentation_vertices)}
            live_edges = [(src, dst, c) for src, dst, c in edges if src in kept and dst in kept]
            self.presentation_edges = tuple(sorted(live_edges, key=lambda e: order[e[0]]))

        # The transition table must cover exactly the admissible n-words.
        tm.validate_onto(alphabet_a)
        dom = tm.domain()
        if self._blocks is not None and self.n <= len(self._blocks[0]):
            # Every live block is the window of some point, and every
            # admissible n-word starts one; the blocks are in alphabet order.
            lang_n = dict.fromkeys(b[: self.n] for b in self._blocks)
            extra = sorted(w for w in dom if w not in lang_n)
        else:
            # Each table word is read on the walk (a letter off A' reaches the
            # empty state); the n-words are listed only up to a fourth one
            # missing from the table.
            walk = self._aprime_walk
            lang_n = (w for w, _state in walk.words(self.n))
            extra = sorted(w for w in dom if not walk.sets[walk.read(w)])
        missing = list(islice((w for w in lang_n if w not in dom), 4))
        if missing or extra:
            parts = []
            if missing:
                more = " and more" if len(missing) > 3 else ""
                parts.append(f"missing {[' '.join(w) for w in sorted(missing[:3])]}{more}")
            if extra:
                parts.append(f"inadmissible {[' '.join(w) for w in extra]}")
            raise InvalidWord("transition domain mismatch: " + "; ".join(parts))

    # -- construction ----------------------------------------------------

    def _block_step(self, forbidden: set[Word]) -> tuple[list[Word], list[dict[str, list[int]]], list[list[int]]]:
        """The blocks, block graph and successor lists of a full or
        finite-type space, before trimming.

        The forbidden words are indexed by all but their last letter, so the
        letters that may follow a word u are found once, from u's suffixes
        one shorter than each forbidden length.  The same rule grows the
        blocks one letter at a time, in alphabet order, and lists each
        block's edges in the order of the letter they add.  A block's edges
        all emit its first letter, so its successor list is the one target
        list of its ``step`` entry, shared, not copied.
        """
        for w in forbidden:
            if not isinstance(w, tuple) or not all(isinstance(c, str) for c in w):
                raise InvalidWord(
                    "forbidden words must be pure A'-words; mixed entries are unsupported"
                )
            self.alphabet_aprime.check_word(w)
            if len(w) < 2:
                raise InvalidWord(f"forbidden word {' '.join(w)!r} is shorter than 2")
        self.forbidden = frozenset(_prune_superwords(forbidden))
        self.step_k = max((len(w) - 1 for w in self.forbidden), default=0)
        last_letters: dict[Word, set[str]] = {}
        for f in self.forbidden:
            last_letters.setdefault(f[:-1], set()).add(f[-1])
        prefix_lengths = sorted({len(f) - 1 for f in self.forbidden})
        letters = self.alphabet_aprime.symbols

        def followers(u: Word) -> Iterable[str]:
            """The letters c for which no forbidden word ends u + (c,)."""
            barred = set()
            for m in prefix_lengths:
                if m > len(u):
                    break
                barred.update(last_letters.get(u[len(u) - m :], ()))
            return [c for c in letters if c not in barred] if barred else letters

        blocks: list[Word] = [()]
        for _ in range(max(self.step_k, 1)):
            blocks = [u + (c,) for u in blocks for c in followers(u)]
        # Each block by its prefix and last letter: u's edge adding c goes
        # to the block u[1:] + (c,).  A prefix that starts no block has no
        # followers, and then no block ending in it has any either.
        index: dict[Word, dict[str, int]] = {}
        for i, w in enumerate(blocks):
            index.setdefault(w[:-1], {})[w[-1]] = i
        step: list[dict[str, list[int]]] = []
        succ: list[list[int]] = []
        for u in blocks:
            ends = index.get(u[1:], {})
            targets = [ends[c] for c in followers(u)]
            step.append({u[0]: targets} if targets else {})
            succ.append(targets)
        return blocks, step, succ

    def _presentation_step(self, presentation) -> tuple[list[dict[str, list[int]]], list[list[int]]]:
        """The presentation graph of a sofic space and its successor lists,
        before trimming."""
        vertices, edges = presentation
        if len(set(vertices)) != len(vertices):
            raise InvalidWord("presentation vertex names must be distinct")
        index = {v: i for i, v in enumerate(sorted(vertices))}
        step: list[dict[str, list[int]]] = [{} for _ in index]
        for src, dst, label in edges:
            if src not in index or dst not in index:
                raise InvalidWord(f"edge {src}->{dst} uses an unknown vertex")
            if label not in self.alphabet_aprime:
                raise UnknownSymbol(f"edge label {label!r} is not an A' symbol")
            step[index[src]].setdefault(label, []).append(index[dst])
        return step, _joined(step)

    # -- A'-side language ------------------------------------------------

    def admissible_word(self, word: Word) -> bool:
        """Is ``word`` an admissible A'-word (occurs in some point)?"""
        return bool(self._aprime_walk.sets[self._aprime_state(word)])

    def _aprime_state(self, word: Word) -> int:
        """The A'-walk state of ``word``; UnknownSymbol for a letter off A'."""
        word = tuple(word)
        for c in word:
            if c not in self.alphabet_aprime:
                raise UnknownSymbol(f"{c!r} is not an A' symbol")
        return self._aprime_walk.read(word)

    def _spells(self, left: Word, middle: Word = (), right: Word | None = None, state: int | None = None) -> bool:
        """Is ``left`` repeated toward minus infinity, then ``middle``, then
        ``right`` (default ``left``) repeated forever an A'-sequence of the
        space?  With the defaults: is ``left`` a cycle word?

        Each reading of ``left`` from its first (``state``, if held) starts
        inside the last one's start, so the states shrink to a fixed set: the
        ends of walks infinite to the left, which ``left`` reads to itself.
        Then ``middle`` is read, and ``right`` until a state repeats; the empty
        state reads to itself, so a non-empty repeat means a walk runs on forever."""
        walk = self._aprime_walk
        state = walk.repeat(left, self._aprime_state(left) if state is None else state)
        if middle or right is not None:
            state = walk.repeat(left if right is None else right, walk.read(middle, state))
        return bool(walk.sets[state])

    def language(self, k: int, side: str = "aprime"):
        """The admissible words of length ``k`` on the requested side.

        ``side`` is one of ``aprime``, ``a`` or ``mixed``; mixed words are
        returned as (A-part, A'-part) pairs over every split of ``k``.  The
        words are generated on the space's subset walks in alphabet order at
        each call; the space keeps no word list between calls.
        """
        if k < 1:
            raise InvalidWord(f"word length must be positive, got {k}")
        if side == "aprime":
            return [w for w, _state in self._aprime_walk.words(k)]
        if side == "a":
            return [w for w, _state in self._a_walk().words(k)]
        if side == "mixed":
            walk = self._a_walk()
            pairs = []
            for j in range(1, k):
                aprime = self.language(k - j)
                for a, state in walk.words(j):
                    pairs += [(a, u) for u in aprime if self._seam(state, u)]
            return pairs
        raise InvalidWord(f"unknown side {side!r}")

    # -- derived A-side and mixed languages -------------------------------

    def _least_width(self) -> int:
        """The least width of a labeled window graph of the space:
        max(n - 1, step_k, 1) for full and finite-type spaces, n for sofic."""
        return self.n if self.kind == "sofic" else max(self.n - 1, self.step_k, 1)

    def _default_width(self) -> int:
        """The width the pre-image engine works at: the least width, or the
        derived memory of a finite-type space when that is longer."""
        least = self._least_width()
        return least if self.kind == "sofic" else max(least, self.memory())

    def _graph(self, width: int | None = None):
        """The labeled window graph of ``width``, by default the pre-image
        engine's (``_default_width``): ``graph.build_labeled_graph`` on first
        use, then kept, so every layer reads one graph per width."""
        g = self._graphs.get(width)
        if g is None:
            from . import graph

            ell = self._default_width() if width is None else width
            g = self._graphs.get(ell) or graph.build_labeled_graph(self, ell)
            self._graphs[width] = self._graphs[ell] = g
        return g

    def _a_walk(self) -> _SubsetWalk:
        """The subset walk reading A-words on the window graph of least width.

        A walk of L edges spells an admissible A'-word, and its edges'
        A-labels are the phi-images of that word's first L windows; every
        admissible A'-word of length L + n - 1 extends to such a walk, so an
        A-word is admissible exactly when its state is non-empty.
        """
        if self._walk is None:
            g = self._graph(self._least_width())
            self._walk = _SubsetWalk(g.targets_by_sofic, self.alphabet_a.symbols)
        return self._walk

    def _seam(self, state: int, u: Word) -> bool:
        """Can a vertex of the walk state sit at index 0 and spell u from there?

        Its label must start with u's first letters; the set of those
        vertices is then stepped along the rest of u over the edges'
        A'-labels, and u fits when some vertex is left.
        """
        g = self._graph(self._least_width())
        ell = len(g.labels[0])
        head, tail = u[:ell], u[ell:]
        here = {v for v in self._walk.sets[state] if g.labels[v][: len(head)] == head}
        step = g.targets_by_first
        for c in tail:
            if not here:
                break
            here = {w for v in here for w in step[v].get(c, ())}
        return bool(here)

    def admissible_a_word(self, word: Word) -> bool:
        """Is ``word`` an admissible A-word (a phi-image of an A'-word)?"""
        word = tuple(word)
        for c in word:
            if c not in self.alphabet_a:
                raise UnknownSymbol(f"{c!r} is not an A symbol")
        walk = self._a_walk()
        return bool(walk.sets[walk.read(word)])

    def mixed_admissible(self, a_part: Word, aprime_part: Word) -> bool:
        """Does the straddling block (a_part ; aprime_part) occur in a point?

        Letters outside the alphabets make it ``False``, not an error.
        """
        a_part, aprime_part = tuple(a_part), tuple(aprime_part)
        if not a_part or not aprime_part:
            raise InvalidWord("mixed words need letters on both sides")
        return self._seam(self._a_walk().read(a_part), aprime_part)

    def derived_a_forbidden(self) -> frozenset[Word]:
        """Minimal inadmissible A-words up to the derivation cutoff.

        Read off pairs of A-walk states (``_SubsetWalk.minimal_forbidden``):
        w + c is minimal forbidden when w is admissible, w + c is not, and
        (w + c)[1:] is; no A-word is listed that leads to none.  The cutoff
        ``step_k + n`` is a search bound: longer minimal forbidden words go
        unreported even on fixtures (``a b a`` on ``ex21``, ``a c a`` on
        ``five``), and the A-side need not be of finite type.
        """
        if self.kind == "sofic":
            raise NotFiniteType("A-side forbidden derivation needs a finite-type space")
        if self._a_forb is None:
            self._a_forb = frozenset(self._a_walk().minimal_forbidden(max(2, self.step_k + self.n)))
        return self._a_forb

    def a_step(self) -> int:
        """Step order of the derived A-side constraints (0 when unconstrained)."""
        return max((len(w) - 1 for w in self.derived_a_forbidden()), default=0)

    def memory(self) -> int:
        """The larger of the two step orders; window length M used by graphs."""
        return max(self.step_k, self.a_step())

    # -- matrices and counting -------------------------------------------

    def build_matrices(self) -> MatrixSet:
        if self.kind == "sofic":
            raise NotFiniteType("matrix presentation needs a finite-type space")
        ap_words = self._blocks
        aprime_adj = []
        for targets in self._succ:
            row = [0] * len(ap_words)
            for j in targets:
                row[j] = 1
            aprime_adj.append(tuple(row))
        n_step = self.a_step()
        n_idx = max(n_step, 1)
        a_words = tuple(self.language(n_idx, side="a"))
        a_longer = set(self.language(n_idx + 1, side="a"))
        walk = self._a_walk()
        # A block is no longer than the labels of the A-walk's graph
        # (max(step_k, 1) <= max(n - 1, step_k, 1)), so it meets an A-word at
        # the seam exactly when some vertex of the word's state starts with it.
        labels, width = self._graph(self._least_width()).labels, len(ap_words[0])
        rows = {}
        for s in {walk.read(u) for u in a_words}:
            prefixes = {labels[v][:width] for v in walk.sets[s]}
            rows[s] = tuple(int(v in prefixes) for v in ap_words)
        return MatrixSet(
            aprime_words=ap_words,
            aprime_adj=tuple(aprime_adj),
            a_words=a_words,
            a_adj=tuple(
                tuple(int(u[1:] == v[:-1] and u + v[-1:] in a_longer) for v in a_words) for u in a_words
            ),
            t=tuple(rows[walk.read(u)] for u in a_words),
            k=self.step_k,
            n_step=n_step,
            m_step=max(self.step_k, n_step),
        )

    def count_periodic(self, m: int) -> int:
        """Number of period-m points: the closed walks of m edges on the
        A'-graph, i.e. the trace of the m-th power of its adjacency matrix,
        counted from each vertex with exact Python integers.
        """
        if m < 1:
            raise InvalidWord(f"period must be positive, got {m}")
        if self.kind == "sofic":
            raise NotFiniteType("periodic counting by trace needs a finite-type space")
        succ = self._succ
        total = 0
        for start in range(len(succ)):
            walks = {start: 1}
            for _ in range(m):
                reached: dict[int, int] = {}
                for v, count in walks.items():
                    for t in succ[v]:
                        reached[t] = reached.get(t, 0) + count
                walks = reached
            total += walks.get(start, 0)
        return total

    # -- irreducibility ----------------------------------------------------

    def is_irreducible(self) -> IrreducibilityReport:
        """For every ordered letter pair (a', b'), some word a' w b' is admissible."""
        letters = self.alphabet_aprime.symbols
        witnesses: dict[tuple[str, str], Word] = {}
        for a in letters:
            for b in letters:
                w = self._connecting_word(a, b)
                if w is None:
                    return IrreducibilityReport(False, None, (a, b))
                witnesses[(a, b)] = w
        return IrreducibilityReport(True, witnesses, None)

    def _connecting_word(self, a: str, b: str) -> Word | None:
        """A shortest a + path + b emitted by a walk: breadth-first from the
        targets of the a-edges to a source of a b-edge."""
        step = self._step
        words = {t: (a,) for out in step for t in out.get(a, ())}
        queue = deque(sorted(words))
        while queue:
            v = queue.popleft()
            if b in step[v]:
                return words[v] + (b,)
            for c, targets in step[v].items():
                for t in targets:
                    if t not in words:
                        words[t] = words[v] + (c,)
                        queue.append(t)
        return None

    # -- random sampling ----------------------------------------------------

    def random_lift(self, rng: random.Random) -> EpPoint:
        """A random admissible two-sided A'-sequence, eventually periodic both ways.

        From a random vertex, one walk forward on ``step`` gives indices 0, 1,
        ... and one walk backward on its reverse gives -1, -2, ...; each picks
        uniformly among its edges in (vertex id, letter) order and stops at
        the first repeated vertex once it has taken ``_WANDER`` steps.

        The reverse (``_reversed``) is built on the first call and kept as
        ``_back``: nothing else walks backward on the A'-graph.
        """
        if self._back is None:
            self._back = _reversed(self._step)
        start = rng.choice(range(len(self._step)))

        def tail(graph: list[dict[str, list[int]]]) -> tuple[Word, Word]:
            v, letters, seen = start, [], {start: 0}
            while True:
                v, c = rng.choice(sorted((t, c) for c, ts in graph[v].items() for t in ts))
                letters.append(c)
                if v in seen and len(letters) >= _WANDER:
                    j = seen[v]
                    return tuple(letters[:j]), tuple(letters[j:])
                seen.setdefault(v, len(letters))

        right_transient, right_period = tail(self._step)
        outward, cycle = tail(self._back)
        return EpPoint(cycle[::-1], outward[::-1], right_transient, right_period)


# -- constructors ---------------------------------------------------------


def full_space(alphabet_a: Alphabet, alphabet_aprime: Alphabet, tm: TransitionMap) -> ZipShiftSpace:
    return ZipShiftSpace(alphabet_a, alphabet_aprime, tm, "full")


def sft_space(
    alphabet_a: Alphabet,
    alphabet_aprime: Alphabet,
    tm: TransitionMap,
    forbidden: set[Word],
) -> ZipShiftSpace:
    return ZipShiftSpace(alphabet_a, alphabet_aprime, tm, "sft", forbidden=forbidden)


def sofic_space(
    alphabet_a: Alphabet,
    alphabet_aprime: Alphabet,
    tm: TransitionMap,
    vertices: list[str],
    edges: list[tuple[str, str, str]],
) -> ZipShiftSpace:
    return ZipShiftSpace(
        alphabet_a, alphabet_aprime, tm, "sofic", presentation=(vertices, edges)
    )

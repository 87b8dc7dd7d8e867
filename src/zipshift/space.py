"""Zip shift spaces: full shifts, finite-type spaces and sofic spaces.

A space couples two alphabets through a transition factor map: letters of A'
live at non-negative indices, their phi-images (letters of A) at negative
indices.  The A'-side language is given either by a finite forbidden set
(full = empty set) or by an edge-labeled presentation graph (sofic).  The
A-side and mixed languages are derived, never user-supplied.

Every A-word and every seam block is the image of some A'-word, so both are
decided by reading them through the labeled window graph of width
max(n - 1, step_k, 1) (sofic spaces: their recoded presentation) with the
subset construction, never by listing A'-words.  An A-word is admissible
when reading it along the edges' A-labels from all vertices leaves a
non-empty vertex set; a seam block (a ; u) when some vertex of the set
reached by a carries u's first letters and can read the rest of u along
the edges' A'-labels.  The same walk lists the A-side and mixed languages
in alphabet order and derives the minimal forbidden A-words.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .errors import InvalidWord, NotFiniteType, UnknownSymbol
from .symbols import Alphabet, TransitionMap, Word


def _prune_superwords(words: set[Word]) -> set[Word]:
    """Drop every word that contains another member as a factor."""

    def contains(big: Word, small: Word) -> bool:
        if len(small) > len(big):
            return False
        return any(big[i : i + len(small)] == small for i in range(len(big) - len(small) + 1))

    keep = set()
    for w in words:
        if not any(v != w and contains(w, v) for v in words):
            keep.add(w)
    return keep


class _BlockGraph:
    """De Bruijn graph on admissible blocks, trimmed to its essential part.

    Vertices are admissible ``block_len``-words; there is an edge u -> v when
    u and v overlap in ``block_len - 1`` letters and the combined word is
    admissible.  Iterated trimming of vertices without predecessors or
    successors leaves exactly the words that occur in bi-infinite sequences.
    """

    def __init__(self, letters: tuple[str, ...], block_len: int, word_ok):
        vertices = [w for w in itertools.product(letters, repeat=block_len) if word_ok(w)]
        out: dict[Word, list[Word]] = {v: [] for v in vertices}
        into: dict[Word, list[Word]] = {v: [] for v in vertices}
        vset = set(vertices)
        for u in vertices:
            for c in letters:
                v = u[1:] + (c,)
                if v in vset and word_ok(u + (c,)):
                    out[u].append(v)
                    into[v].append(u)
        # Trim to the essential core.
        changed = True
        while changed:
            changed = False
            for v in list(vset):
                if not out[v] or not into[v]:
                    vset.discard(v)
                    for w in out.pop(v, ()):
                        into[w].remove(v)
                    for w in into.pop(v, ()):
                        out[w].remove(v)
                    changed = True
        self.block_len = block_len
        self.vertices: list[Word] = sorted(vset, key=lambda w: tuple(letters.index(c) for c in w))
        self.vset = vset
        self.out = out
        self.into = into


class _SubsetWalk:
    """The subset construction on a letter-indexed graph, built as it is read.

    ``step[v][c]`` lists the vertices one step on from v reading c.  A state
    is the set of vertices that walks spelling some word, started anywhere,
    can end at; states are numbered as first reached, 0 being the set of all
    vertices, and each move (state, letter) -> state is computed once.  A
    word is spelled by some walk exactly when its state is non-empty.
    """

    def __init__(self, step: list[dict], letters: tuple[str, ...]):
        self._step = step
        self._letters = letters
        start = frozenset(range(len(step)))
        self.sets: list[frozenset[int]] = [start]
        self._ids = {start: 0}
        self._moves: list[dict[str, int]] = [{}]
        self._levels: list[list[tuple[Word, int]]] = [[((), 0)]]

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

    def read(self, word: Word) -> int:
        state, moves = 0, self._moves
        for c in word:
            nxt = moves[state].get(c)
            state = self.move(state, c) if nxt is None else nxt
        return state

    def words(self, k: int) -> list[tuple[Word, int]]:
        """The spelled k-words with their states, in alphabet order.

        Each level extends the one below by every letter in order, so it
        comes out sorted without a sort.
        """
        levels = self._levels
        while len(levels) <= k:
            level = []
            for w, s in levels[-1]:
                for c in self._letters:
                    t = self.move(s, c)
                    if self.sets[t]:
                        level.append((w + (c,), t))
            levels.append(level)
        return levels[k]


@dataclass(frozen=True)
class Lift:
    """An eventually periodic two-sided A'-sequence (a lift of a point).

    Fields follow the point conventions: ``left_transient`` is stored with
    the entry nearest index -1 last; ``left_period`` repeats toward minus
    infinity with its last letter adjacent to the transient.
    """

    left_period: Word
    left_transient: Word
    right_transient: Word
    right_period: Word

    def letter(self, i: int) -> str:
        if i >= 0:
            if i < len(self.right_transient):
                return self.right_transient[i]
            return self.right_period[(i - len(self.right_transient)) % len(self.right_period)]
        depth = -i
        if depth <= len(self.left_transient):
            return self.left_transient[len(self.left_transient) - depth]
        d = depth - len(self.left_transient)
        m = len(self.left_period)
        return self.left_period[m - 1 - ((d - 1) % m)]

    def window(self, i: int, length: int) -> Word:
        return tuple(self.letter(i + j) for j in range(length))


@dataclass(frozen=True)
class MatrixSet:
    """Adjacency data of a finite-type space.

    ``aprime_adj`` is indexed by ``aprime_words`` (K-step blocks over A'),
    ``a_adj`` by ``a_words`` (derived A-side blocks) and ``t`` relates A-side
    rows to A'-side columns through mixed-word admissibility.  ``k`` and
    ``n_step`` are the computed step orders (0 for full shifts; index blocks
    are then single letters), ``m_step`` their maximum.
    """

    aprime_words: tuple[Word, ...]
    aprime_adj: np.ndarray
    a_words: tuple[Word, ...]
    a_adj: np.ndarray
    t: np.ndarray
    k: int
    n_step: int
    m_step: int


@dataclass(frozen=True)
class IrreducibilityReport:
    is_irreducible: bool
    witnesses: dict[tuple[str, str], Word] | None
    failing_pair: tuple[str, str] | None

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
        self._lang_cache: dict[int, list[Word]] = {}
        self._window_graph = None  # the graph the A-side is read on, see _a_walk
        self._walk: _SubsetWalk | None = None
        self._seams: dict[tuple[int, Word], bool] = {}
        self._a_forb: frozenset[Word] | None = None
        self._labeled_graph = None  # built by preimage.labeled_graph_for

        if kind == "sofic":
            if presentation is None:
                raise InvalidWord("sofic spaces need a presentation graph")
            self._init_sofic(presentation)
        else:
            forb = set() if kind == "full" else set(tuple(w) for w in (forbidden or set()))
            if kind == "sft" and not forb:
                raise InvalidWord("finite-type spaces need forbidden words (use a full space otherwise)")
            self._init_sft(forb)

        # The transition table must cover exactly the admissible n-words.
        tm.validate_onto(alphabet_a)
        lang_n = set(self.language(self.n))
        dom = tm.domain()
        if dom != lang_n:
            missing = sorted(lang_n - dom)
            extra = sorted(dom - lang_n)
            parts = []
            if missing:
                parts.append(f"missing {[' '.join(w) for w in missing]}")
            if extra:
                parts.append(f"inadmissible {[' '.join(w) for w in extra]}")
            raise InvalidWord("transition domain mismatch: " + "; ".join(parts))

    # -- construction ----------------------------------------------------

    def _init_sft(self, forbidden: set[Word]) -> None:
        for w in forbidden:
            if not isinstance(w, tuple) or not all(isinstance(c, str) for c in w):
                raise InvalidWord(
                    "forbidden words must be pure A'-words; mixed entries are unsupported"
                )
            self.alphabet_aprime.check_word(w)
            if len(w) < 2:
                raise InvalidWord(f"forbidden word {' '.join(w)!r} is shorter than 2")
        self.forbidden: frozenset[Word] = frozenset(_prune_superwords(forbidden))
        self.step_k = max((len(w) - 1 for w in self.forbidden), default=0)
        core = max(self.step_k, 1)
        forb = self.forbidden

        def word_ok(w: Word) -> bool:
            return not any(
                w[i : i + len(f)] == f
                for f in forb
                for i in range(len(w) - len(f) + 1)
            )

        self._word_ok = word_ok
        self._graph = _BlockGraph(self.alphabet_aprime.symbols, core, word_ok)
        if not self._graph.vset:
            raise InvalidWord("the space has an empty language")
        self.presentation_vertices: tuple[str, ...] | None = None
        self.presentation_edges: tuple[tuple[str, str, str], ...] | None = None

    def _init_sofic(self, presentation) -> None:
        vertices, edges = presentation
        vnames = list(vertices)
        if len(set(vnames)) != len(vnames):
            raise InvalidWord("presentation vertex names must be distinct")
        vset = set(vnames)
        out: dict[str, list[tuple[str, str]]] = {v: [] for v in vnames}
        into: dict[str, list[tuple[str, str]]] = {v: [] for v in vnames}
        for src, dst, label in edges:
            if src not in vset or dst not in vset:
                raise InvalidWord(f"edge {src}->{dst} uses an unknown vertex")
            if label not in self.alphabet_aprime:
                raise UnknownSymbol(f"edge label {label!r} is not an A' symbol")
            out[src].append((dst, label))
            into[dst].append((src, label))
        changed = True
        while changed:
            changed = False
            for v in list(vset):
                if not out[v] or not into[v]:
                    vset.discard(v)
                    out.pop(v)
                    into.pop(v)
                    for d in out.values():
                        d[:] = [(t, c) for t, c in d if t != v]
                    for d in into.values():
                        d[:] = [(t, c) for t, c in d if t != v]
                    changed = True
        if not vset:
            raise InvalidWord("the presentation graph has no bi-infinite walks")
        self.forbidden = frozenset()
        self.step_k = 0
        self.presentation_vertices = tuple(v for v in vnames if v in vset)
        self.presentation_edges = tuple(
            (src, dst, c) for src in self.presentation_vertices for dst, c in out[src]
        )
        self._nfa_out = {v: out[v] for v in vset}
        self._nfa_in = {v: into[v] for v in vset}
        index = {v: i for i, v in enumerate(self.presentation_vertices)}
        step: list[dict[str, list[int]]] = [{} for _ in index]
        for src, dst, c in self.presentation_edges:
            step[index[src]].setdefault(c, []).append(index[dst])
        self._nfa_walk = _SubsetWalk(step, self.alphabet_aprime.symbols)

    # -- A'-side language ------------------------------------------------

    def admissible_word(self, word: Word) -> bool:
        """Is ``word`` an admissible A'-word (occurs in some point)?"""
        word = tuple(word)
        for c in word:
            if c not in self.alphabet_aprime:
                raise UnknownSymbol(f"{c!r} is not an A' symbol")
        if self.kind == "sofic":
            walk = self._nfa_walk
            return bool(walk.sets[walk.read(word)])
        g = self._graph
        core = g.block_len
        if len(word) < core:
            return any(
                v[i : i + len(word)] == word
                for v in g.vset
                for i in range(core - len(word) + 1)
            )
        windows = [word[i : i + core] for i in range(len(word) - core + 1)]
        if any(w not in g.vset for w in windows):
            return False
        return all(b in g.out[a] for a, b in zip(windows, windows[1:]))

    def language(self, k: int, side: str = "aprime"):
        """The admissible words of length ``k`` on the requested side.

        ``side`` is one of ``aprime``, ``a`` or ``mixed``; mixed words are
        returned as (A-part, A'-part) pairs over every split of ``k``.
        """
        if k < 1:
            raise InvalidWord(f"word length must be positive, got {k}")
        if side == "aprime":
            return list(self._language_aprime(k))
        if side == "a":
            return [w for w, _state in self._a_walk().words(k)]
        if side == "mixed":
            walk = self._a_walk()
            pairs = []
            for j in range(1, k):
                aprime = self._language_aprime(k - j)
                for a, state in walk.words(j):
                    pairs += [(a, u) for u in aprime if self._seam(state, u)]
            return pairs
        raise InvalidWord(f"unknown side {side!r}")

    def _language_aprime(self, k: int) -> list[Word]:
        """The admissible k-words in alphabet order, generated in that order
        where they come from walks (sofic spaces; block paths past the core)."""
        if k in self._lang_cache:
            return self._lang_cache[k]
        if self.kind == "sofic":
            result = [w for w, _state in self._nfa_walk.words(k)]
        else:
            g = self._graph
            core = g.block_len
            if k <= core:
                out = {v[i : i + k] for v in g.vset for i in range(core - k + 1)}
                result = sorted(out, key=self.alphabet_aprime.key)
            else:
                # A path is spelled by its first block and the last letter of
                # every later one; blocks and out-lists are in alphabet order.
                level = [(v, v) for v in g.vertices]
                for _ in range(k - core):
                    level = [(w + (t[-1],), t) for w, v in level for t in g.out[v]]
                result = [w for w, _v in level]
        self._lang_cache[k] = result
        return result

    # -- derived A-side and mixed languages -------------------------------

    def _a_walk(self) -> _SubsetWalk:
        """The subset walk reading A-words on the labeled window graph.

        The graph is ``build_labeled_graph`` at width max(n - 1, step_k, 1)
        (sofic spaces: the recode, of width n), built on first use and kept
        as ``_window_graph``; the pre-image engine reuses it whenever its own
        width comes out the same.  A walk of L edges spells an admissible
        A'-word, and its edges' A-labels are the phi-images of that word's
        first L windows; every admissible A'-word of length L + n - 1
        extends to such a walk, so an A-word is admissible exactly when its
        state is non-empty.
        """
        if self._walk is None:
            from . import graph

            g = graph.build_labeled_graph(self, ell=max(self.n - 1, self.step_k, 1))
            self._window_graph = g
            self._walk = _SubsetWalk(g.targets_by_sofic, self.alphabet_a.symbols)
        return self._walk

    def _seam(self, state: int, u: Word) -> bool:
        """Can a vertex of the walk state sit at index 0 and spell u from there?

        Its label must start with u's first letters; the rest of u is read
        along the edges' A'-labels.  Memoized per (state, u).
        """
        key = (state, u)
        ok = self._seams.get(key)
        if ok is None:
            g = self._window_graph
            ell = len(g.labels[0])
            head, tail = u[:ell], u[ell:]
            here = {v for v in self._walk.sets[state] if g.labels[v][: len(head)] == head}
            for c in tail:
                here = {w for v in here for w in g.targets_by_first[v].get(c, ())}
            ok = self._seams[key] = bool(here)
        return ok

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

        One breadth-first pass of the A-side walk: w + c is minimal
        forbidden when w is admissible, w + c is not, and (w + c)[1:] is.
        The cutoff ``step_k + n`` is exact for every finite-type fixture in
        this package; in general the A-side may need longer memory, which a
        finite list cannot express.
        """
        if self.kind == "sofic":
            raise NotFiniteType("A-side forbidden derivation needs a finite-type space")
        if self._a_forb is None:
            walk = self._a_walk()
            cutoff = max(2, self.step_k + self.n)
            bad: list[Word] = []
            for length in range(1, cutoff):
                level = walk.words(length)
                known = {w for w, _state in level}
                for w, state in level:
                    for c in self.alphabet_a.symbols:
                        if not walk.sets[walk.move(state, c)] and w[1:] + (c,) in known:
                            bad.append(w + (c,))
            self._a_forb = frozenset(bad)
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
        k_idx = max(self.step_k, 1)
        ap_words = tuple(self._language_aprime(k_idx))
        ap = np.zeros((len(ap_words), len(ap_words)), dtype=np.int64)
        for i, u in enumerate(ap_words):
            for j, v in enumerate(ap_words):
                if u[1:] == v[:-1] and self.admissible_word(u + v[-1:]):
                    ap[i, j] = 1
        n_step = self.a_step()
        n_idx = max(n_step, 1)
        a_words = tuple(self.language(n_idx, side="a"))
        aa = np.zeros((len(a_words), len(a_words)), dtype=np.int64)
        for i, u in enumerate(a_words):
            for j, v in enumerate(a_words):
                if u[1:] == v[:-1] and self.admissible_a_word(u + v[-1:]):
                    aa[i, j] = 1
        t = np.zeros((len(a_words), len(ap_words)), dtype=np.int64)
        for i, u in enumerate(a_words):
            for j, v in enumerate(ap_words):
                if self.mixed_admissible(u, v):
                    t[i, j] = 1
        return MatrixSet(
            aprime_words=ap_words,
            aprime_adj=ap,
            a_words=a_words,
            a_adj=aa,
            t=t,
            k=self.step_k,
            n_step=n_step,
            m_step=max(self.step_k, n_step),
        )

    def count_periodic(self, m: int) -> int:
        """Number of period-m points: the trace of the m-th matrix power.

        Computed with exact Python integers on the 1-step block matrix.
        """
        if m < 1:
            raise InvalidWord(f"period must be positive, got {m}")
        if self.kind == "sofic":
            raise NotFiniteType("periodic counting by trace needs a finite-type space")
        ms = self.build_matrices()
        mat = [[int(x) for x in row] for row in ms.aprime_adj]
        size = len(mat)

        def mul(x, y):
            return [
                [sum(x[i][l] * y[l][j] for l in range(size)) for j in range(size)]
                for i in range(size)
            ]

        result = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        base = mat
        e = m
        while e:
            if e & 1:
                result = mul(result, base)
            e >>= 1
            if e:
                base = mul(base, base)
        return sum(result[i][i] for i in range(size))

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
        if self.kind == "sofic":
            starts = {dst for v in self._nfa_out for dst, c in self._nfa_out[v] if c == a}
            goals = {src for v in self._nfa_in for src, c in self._nfa_in[v] if c == b}
            # BFS over vertices; word = a + path labels + b.
            frontier = {s: () for s in starts}
            seen = set(starts)
            while frontier:
                for v, w in frontier.items():
                    if v in goals:
                        return (a,) + w + (b,)
                nxt: dict[str, Word] = {}
                for v, w in frontier.items():
                    for t, c in self._nfa_out[v]:
                        if t not in seen:
                            seen.add(t)
                            nxt[t] = w + (c,)
                frontier = nxt
            return None
        g = self._graph
        goals = {v for v in g.vset if v[-1] == b}
        if g.block_len == 1:
            # Words need at least two letters, so take one step before testing.
            src = (a,)
            if src not in g.vset:
                return None
            frontier = {t: src + (t[-1],) for t in g.out[src]}
            seen = set(frontier)
        else:
            frontier = {v: v for v in g.vertices if v[0] == a}
            seen = set(frontier)
        while frontier:
            for v, w in frontier.items():
                if v in goals:
                    return w
            nxt: dict[Word, Word] = {}
            for v, w in frontier.items():
                for t in g.out[v]:
                    if t not in seen:
                        seen.add(t)
                        nxt[t] = w + (t[-1],)
            frontier = nxt
        return None

    # -- random sampling ----------------------------------------------------

    def random_lift(self, rng: random.Random, wander: int = 4) -> Lift:
        """A random admissible two-sided A'-sequence, eventually periodic both ways."""
        if self.kind == "sofic":
            start = rng.choice(sorted(self._nfa_out))
            state = start
            fwd_letters: list[str] = []
            seen = {state: 0}
            steps = 0
            while True:
                t, c = rng.choice(sorted(self._nfa_out[state]))
                fwd_letters.append(c)
                state = t
                steps += 1
                if state in seen and steps >= wander:
                    j = seen[state]
                    rt = tuple(fwd_letters[:j])
                    rp = tuple(fwd_letters[j:])
                    break
                if state not in seen:
                    seen[state] = steps
            state = start
            back_letters: list[str] = []
            seenb = {state: 0}
            steps = 0
            while True:
                s, c = rng.choice(sorted(self._nfa_in[state]))
                back_letters.append(c)
                state = s
                steps += 1
                if state in seenb and steps >= wander:
                    j = seenb[state]
                    out_tr = back_letters[:j]
                    out_per = back_letters[j:]
                    break
                if state not in seenb:
                    seenb[state] = steps
            lt = tuple(reversed(out_tr))
            lp = tuple(reversed(out_per))
            return Lift(lp, lt, rt, rp)
        g = self._graph
        start = rng.choice(g.vertices)
        fwd: list[str] = list(start)
        state = start
        seen = {state: 0}
        steps = 0
        while True:
            t = rng.choice(sorted(g.out[state], key=self.alphabet_aprime.key))
            fwd.append(t[-1])
            state = t
            steps += 1
            if state in seen and steps >= wander:
                j = seen[state]
                rt = tuple(fwd[: g.block_len + j])
                rp = tuple(fwd[g.block_len + j :])
                break
            if state not in seen:
                seen[state] = steps
        state = start
        back: list[str] = []
        seenb = {state: 0}
        steps = 0
        while True:
            s = rng.choice(sorted(g.into[state], key=self.alphabet_aprime.key))
            back.append(s[0])
            state = s
            steps += 1
            if state in seenb and steps >= wander:
                j = seenb[state]
                out_tr = back[:j]
                out_per = back[j:]
                break
            if state not in seenb:
                seenb[state] = steps
        return Lift(tuple(reversed(out_per)), tuple(reversed(out_tr)), rt, rp)


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

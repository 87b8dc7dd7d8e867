"""Pre-image enumeration on the backward labeled graph.

A pre-image of x prepends one A'-letter to the right side and drops the
deepest seam letter of the left side.  Candidates are read off the backward
labeled graph: one backward step from the position-0 vertex along edges whose
sofic label matches x_{-1}, then an exact viability decision (product of the
backward graph with the left label's transient-then-cycle automaton) keeps
the candidates that extend to genuine points.  A bounded-depth path search
adds the delay / left-closing / distinguishable metadata on top; enumeration
never depends on that search resolving.  Only ``preimages`` runs that search:
iterated pre-images and the orbit tools read the branch letters alone.

Viability is decided on demand, per side (backward for the left label,
forward for the right tail): a question about vertex v at depth d runs a
depth-first search over the (vertex, depth) product from that node only,
and stops at the first node known alive or met again on its own path.  From
any depth on, a label is a suffix of its transient or a rotation of its
period, so the product is finite, and the decided nodes are kept on the
label: a query pays for the nodes its questions reach, and each product
edge at most once.

The path search behind the classification follows one chain of capped
path-count states per branch letter outward, and steps the chains together
as one joint state: the tuple of their count states.  A joint state computes
once what the patterns read at a depth (how many chains are alive, their
capped path total, whether the alive chains end at one vertex), so a depth
costs one step lookup, those three facts and a cycle key.  The search stops
at the first repeated (label phase, joint state) pair past the left
transient, since every deeper depth repeats one already checked, and says
in ``exact`` whether it stopped so (or on a pattern, or with every chain
ended) rather than at the search bound.  Witnesses are not built then: the
classification keeps what their replay needs, and the first read of
``witness_paths`` steps each viable branch's count states out to the depth
its path reaches and walks one path back from the deepest depth that still
carries one.  No parent is stored: each step back finds it on the graph,
the first vertex one depth up, in reach order, with an edge along that
depth's letter; one depth up from depth 1 are the position-0 vertices, in
id order.

Across queries, each walk direction of the labeled graph keeps its latest
label (``LetterSteps.last_label``), and a query reads that one instead of
starting afresh when its (transient, period) is the same: the queries asked
in turn about one point share the decided nodes of each side between them,
and the position-0 vertices, kept on the right label, since they depend on
the right tail alone.
The count states and the joint states are interned on the leftward walk
(``LetterSteps.count_states`` and ``joint_states``), each with its steps, the
subset construction of the backward graph built as it is read: a step taken
once on a graph is read by every later search on it.  Both tables are
cleared together before a classification once either holds more than
``_STATES_PER_VERTEX`` states per graph vertex.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidWord, NotInSpace
from .graph import LabeledGraph, LetterSteps
from .point import AdmissibilityReport, EpPoint, _letter_failure
from .space import ZipShiftSpace
from .symbols import Word, _Value


def labeled_graph_for(space: ZipShiftSpace) -> LabeledGraph:
    """The labeled graph the pre-image engine runs on: the space's kept
    window graph at its default width (see ``ZipShiftSpace._graph``)."""
    return space._graph()


# States of a (vertex, depth) node in a label's search; 0 is undecided.
_ALIVE, _DEAD, _ON_PATH = 1, 2, 3


class _Label:
    """Where a one-sided label, transient then period forever, can be spelled.

    ``walk`` steps through the graph one letter outward.  Node (v, d) of the
    (vertex, depth) product reads the label's d-th letter along ``walk.step``;
    depths past the transient fold onto T + (d - T) mod m, since from there on
    the label is a rotation of the period.  ``viable(v, d)`` asks whether an
    infinite run leaves (v, d), by a depth-first search from that node that
    stops at the first node known alive or met again on its own path (a
    cycle); a node is dead once all of its successors are.  Every decided
    node is kept, so later questions about the label reuse the search and
    each product edge is scanned at most once per label.

    On a rightward label, ``zero`` keeps the position-0 vertices of the
    points with that right tail once computed (see
    ``_position_zero_vertices``), and is None before.
    """

    def __init__(self, walk: LetterSteps, transient: Word, period: Word):
        self.key = (transient, period)
        t, m = len(transient), len(period)
        self._t, self._m = t, m
        self._step = walk.step
        self._letters = transient + period
        self._next = list(range(1, t + m)) + [t]
        self._state = [bytearray(len(walk.step)) for _ in range(t + m)]
        self.zero: frozenset[int] | None = None

    def letter(self, depth: int) -> str:
        """The label's letter at ``depth``."""
        if depth >= self._t:
            depth = self._t + (depth - self._t) % self._m
        return self._letters[depth]

    def viable(self, v: int, depth: int) -> bool:
        if depth >= self._t:
            depth = self._t + (depth - self._t) % self._m
        state = self._state
        known = state[depth][v]
        if known:
            return known == _ALIVE
        step, letters, after = self._step, self._letters, self._next
        state[depth][v] = _ON_PATH
        path = [(v, depth, iter(step[v].get(letters[depth], ())))]
        while path:
            u, d, successors = path[-1]
            nd = after[d]
            layer = state[nd]
            for w in successors:
                known = layer[w]
                if not known:
                    layer[w] = _ON_PATH
                    path.append((w, nd, iter(step[w].get(letters[nd], ()))))
                    break
                if known != _DEAD:
                    # w is alive or lies on the path, so every node on the
                    # path reaches an infinite run.
                    for p, dp, _rest in path:
                        state[dp][p] = _ALIVE
                    return True
            else:
                state[d][u] = _DEAD
                path.pop()
        return False


def _label(walk: LetterSteps, transient: Word, period: Word) -> _Label:
    """The label along ``walk``: the walk's last one when it was built for the
    same (transient, period), else a new one that takes its place."""
    label = walk.last_label
    if label is None or label.key != (transient, period):
        label = walk.last_label = _Label(walk, transient, period)
    return label


def _left_label(g: LabeledGraph, x: EpPoint) -> _Label:
    """x's A-label read outward on the backward graph: depth d starts at x_{-1-d}."""
    return _label(
        g.leftward,
        tuple(reversed(x.left_transient)),
        tuple(reversed(x.left_period)),
    )


def _position_zero_vertices(g: LabeledGraph, x: EpPoint) -> frozenset[int]:
    """Graph vertices that can sit at index 0 of x's lift.

    They are read off x's right tail alone, so they are kept on its right
    label: the queries asked in turn about one point compute them once.
    """
    right = _label(g.rightward, x.right_transient, x.right_period)
    if right.zero is None:
        ell = len(g.labels[0])
        right.zero = frozenset(v for v in g.ids_with_label(x.window(0, ell)) if right.viable(v, ell))
    return right.zero


def _admissibility(
    space: ZipShiftSpace, x: EpPoint
) -> tuple[AdmissibilityReport, frozenset[int], _Label | None]:
    """The report, with the position-0 vertices and the left label that
    liftability was decided on (empty and None where a letter or window
    fails, and None where no vertex carries the right tail)."""
    g = labeled_graph_for(space)
    starts = _position_zero_vertices(g, x)
    left = _left_label(g, x) if starts else None
    if left is not None and any(left.viable(v, 0) for v in starts):
        return AdmissibilityReport(True, None), starts, left
    failure = _window_failure(space, x)
    if failure is not None:
        return failure, frozenset(), None
    if not starts:
        return AdmissibilityReport(False, "right tail is not realizable by any walk"), starts, None
    return AdmissibilityReport(False, "left label is not liftable"), starts, left


def _window_failure(space: ZipShiftSpace, x: EpPoint) -> AdmissibilityReport | None:
    """The first letter or window of x's unrolled representation that fails."""
    failure = _letter_failure(space, x)
    if failure is not None:
        return AdmissibilityReport(False, failure)
    if space.kind == "sofic":
        width = max(space.n, 2)
    else:
        width = max(space.memory() + 1, space.n)
    deep_l = len(x.left_transient) + 2 * len(x.left_period) + width
    deep_r = len(x.right_transient) + 2 * len(x.right_period) + width
    for i in range(-deep_l, deep_r - width + 1):
        w = x.window(i, width)
        if i >= 0:
            ok = space.admissible_word(w)
        elif i + width <= 0:
            ok = space.admissible_a_word(w)
        else:
            ok = space.mixed_admissible(w[: -i], w[-i:])
        if not ok:
            return AdmissibilityReport(
                False, f"window {' '.join(w)} at index {i} is not admissible"
            )
    return None


class LabelClassification(_Value):
    """Bounded-depth search metadata over the pre-image branches.

    kind is one of delay, left_closing, distinguishable, sofic_left_closing
    or branching; ``searched_to`` reports the exhausted depth when the search
    did not resolve (branching is an answer, never an error).  Witness paths
    list, per branch letter, the vertex labels of one backward walk from the
    position-0 vertex outward; ``preimages`` builds them on their first read.
    Until then the answer holds their replay, and with it the labeled graph of
    its space and the left label (not the space itself); reading, pickling
    or copying the answer expands the paths and lets both go.

    ``exact`` is True when the search decided the answer within its bound: a
    pattern matched, or the walk met a repeated state, after which every
    deeper depth repeats, or every path ended.  It is False when the answer
    is only known up to ``searched_to``.  It is left out of equality, hash
    and repr.
    """

    _fields = ("kind", "delay", "length", "multiplicity", "variant", "searched_to", "witness_paths")
    kind: str
    delay: int | None
    length: int | None
    multiplicity: int | None
    variant: str | None
    searched_to: int | None
    exact: bool

    def __init__(self, kind: str, delay: int | None = None, length: int | None = None, multiplicity: int | None = None,
                 variant: str | None = None, searched_to: int | None = None, witness_paths=(), exact: bool = False):
        self.__dict__.update(kind=kind, delay=delay, length=length, multiplicity=multiplicity, variant=variant,
                             searched_to=searched_to, _witness_paths=witness_paths, exact=exact)

    @property
    def witness_paths(self) -> tuple[tuple[str, tuple[Word, ...]], ...]:
        """The paths as given, or those a ``_Witnesses`` replay expands on the first read, then kept."""
        paths = self.__dict__["_witness_paths"]
        if isinstance(paths, _Witnesses):
            paths = self.__dict__["_witness_paths"] = paths.expand()
        return paths

    def __getstate__(self) -> dict:
        # A pickled or copied answer carries its paths, not the graph their
        # replay holds.
        return {**self.__dict__, "_witness_paths": self.witness_paths}


class PreimageResult(_Value):
    classification: LabelClassification
    points: tuple[EpPoint, ...]

    def __init__(self, classification: LabelClassification, points: tuple[EpPoint, ...]):
        self.__dict__.update(classification=classification, points=points)


def _preimage_point(x: EpPoint, t: str) -> EpPoint:
    if x.left_transient:
        lt = x.left_transient[:-1]
        lp = x.left_period
    else:
        lt = ()
        lp = (x.left_period[-1],) + x.left_period[:-1]
    return EpPoint._of_symbols(lp, lt, (t,) + x.right_transient, x.right_period)


class _Counts:
    """Capped path counts at one depth of the path search, interned per walk.

    ``verts`` lists the vertices reached, in reach order, and ``counts`` their
    path counts capped at 2; ``total`` is the capped sum.  ``next[a]`` holds
    the state one depth on along letter a once taken (see ``step``).  A
    witness finds the parents of its path on the graph (see ``_witness``).
    """

    __slots__ = ("verts", "counts", "total", "next")

    def __init__(self, verts: tuple[int, ...], counts: tuple[int, ...]):
        self.verts = verts
        self.counts = counts
        self.total = min(2, sum(counts))
        self.next: dict[str, _Counts] = {}

    def step(self, walk: LetterSteps, a: str) -> _Counts:
        """The state one depth on along letter a, computed on the first call
        and read from ``next`` after it."""
        nxt = self.next.get(a)
        if nxt is None:
            sources = walk.step
            new: dict[int, int] = {}
            for v, cnt in zip(self.verts, self.counts):
                for u in sources[v].get(a, ()):
                    new[u] = 2 if u in new else cnt
            nxt = self.next[a] = _interned(walk.count_states, tuple(new), tuple(new.values()))
        return nxt


class _Joint:
    """The count states of several chains at one depth, stepped together.

    Interned per walk (``LetterSteps.joint_states``), keyed by the tuple of
    ``states``.  Made once, it keeps what the classification reads at a
    depth: ``alive``, how many chains still carry a path; ``total``, their
    path counts summed and capped at 2; and ``shared``, whether every path of
    the alive chains ends at one vertex.  ``next[a]`` holds the joint state
    one depth on along letter a once taken, each chain stepped by
    ``_Counts.step``.
    """

    __slots__ = ("states", "alive", "total", "shared", "next")

    def __init__(self, states: tuple[_Counts, ...]):
        self.states = states
        alive = [state for state in states if state.verts]
        self.alive = len(alive)
        self.total = min(2, sum(state.total for state in alive))
        self.shared = len(set().union(*(state.verts for state in alive))) == 1
        self.next: dict[str, _Joint] = {}

    def step(self, walk: LetterSteps, a: str) -> _Joint:
        """The joint state one depth on along letter a."""
        nxt = self.next.get(a)
        if nxt is None:
            nxt = self.next[a] = _joint(walk, tuple(state.step(walk, a) for state in self.states))
        return nxt


# The path search's tables on a graph are cleared before a classification
# once either holds more states than this many per graph vertex, which bounds
# their memory; an S(6,2,3) window graph settles at about 1.6 count states
# and 1.3 joint states per vertex.
_STATES_PER_VERTEX = 8


def _interned(table: dict, verts: tuple[int, ...], counts: tuple[int, ...]) -> _Counts:
    state = table.get((verts, counts))
    if state is None:
        state = table[verts, counts] = _Counts(verts, counts)
    return state


def _start(walk: LetterSteps, starts: dict[int, int]) -> _Counts:
    """The interned state of a chain's first depth, counts capped at 2."""
    return _interned(walk.count_states, tuple(starts), tuple(min(2, c) for c in starts.values()))


def _joint(walk: LetterSteps, states: tuple[_Counts, ...]) -> _Joint:
    joint = walk.joint_states.get(states)
    if joint is None:
        joint = walk.joint_states[states] = _Joint(states)
    return joint


def _witness(
    g: LabeledGraph, zero: frozenset[int], states: list[_Counts], letters: list[str]
) -> tuple[Word, ...]:
    """The labels of one path of a chain from a position-0 vertex out to the
    deepest of its ``states`` that still carries one.

    ``states[i]`` is the chain's state at depth i + 1, reached from the depth
    one up along ``letters[i]``; one up from depth 1 are the position-0
    vertices ``zero``, in id order.  The path ends at the least vertex of
    its deepest state and steps back, at each depth, to the first vertex one
    depth up, in reach order, with an edge to it along that depth's letter.
    """
    d = len(states)
    while d and not states[d - 1].verts:
        d -= 1
    if not d:
        return ()
    sources = g.leftward.step
    v = min(states[d - 1].verts)
    path = [g.labels[v]]
    for i in reversed(range(d)):
        up = states[i - 1].verts if i else sorted(zero)
        v = next(u for u in up if v in sources[u].get(letters[i], ()))
        path.append(g.labels[v])
    path.reverse()
    return tuple(path)


class _Witnesses(NamedTuple):
    """What the witness paths of one classification are replayed from: the
    graph, the left label the chains read their letters from, the viable
    branch letters with their candidates, the position-0 vertices and the
    depth the paths reach out to.  Nothing of the space is kept, and no
    state of the path search, whose tables may be cleared before the paths
    are read.  The replay steps each viable branch's count states out to
    ``depth`` again and finds the parents of its path on the graph as it
    walks the path back.
    """

    g: LabeledGraph
    left: _Label
    viable: list[str]
    cands: dict[str, dict[int, int]]
    zero: frozenset[int]
    depth: int

    def expand(self) -> tuple[tuple[str, tuple[Word, ...]], ...]:
        """Each viable branch's count states, stepped out to ``depth``, and
        its witness."""
        walk = self.g.leftward
        letters = [self.left.letter(d) for d in range(self.depth)]
        out = []
        for t in self.viable:
            states = [_start(walk, self.cands[t])]
            for a in letters[1:]:
                states.append(states[-1].step(walk, a))
            out.append((t, _witness(self.g, self.zero, states, letters)))
        return tuple(out)


def _classify(
    space: ZipShiftSpace,
    g: LabeledGraph,
    x: EpPoint,
    left: _Label,
    cands: dict[str, dict[int, int]],
    viable: list[str],
    v0: frozenset[int],
    d_max: int,
) -> LabelClassification:
    """Match the backward path picture against the named patterns.

    A delay is witnessed at the smallest depth where exactly one path still
    carries the left label; left-closing at the smallest depth where at least
    two branch letters survive and every surviving path ends at one common
    vertex.  On sofic presentations the same patterns are reported as the
    distinguishable-by-depth variant and, when at least two position-0
    vertices still carry paths, the sofic left-closing kind; if the search
    exhausts d_max and exactly one position-0 vertex admits an infinite
    backward run, the label alone singles it out (variant L).  Everything
    else is branching, stamped with the searched depth.

    The branch chains step together as one joint state, one depth at a time.
    Past the left transient, the label's phase and the joint state at a depth
    fix every deeper state, parent and pattern, so the walk stops at the
    first repeated (phase, joint state) pair, and the answer is ``exact``.
    The witness paths are left to their first read: the answer keeps a
    ``_Witnesses`` replay out to the depth the paths reach, the matched
    depth on a pattern and d_max otherwise.
    """
    walk = g.leftward
    if max(len(walk.count_states), len(walk.joint_states)) > _STATES_PER_VERTEX * g.n_vertices():
        walk.count_states.clear()
        walk.joint_states.clear()
    joint = _joint(walk, tuple(_start(walk, branch) for branch in cands.values()))
    sofic = space.kind == "sofic"
    # The position-0 start chains as one more joint state, stepped alongside:
    # only how many of them are alive is read.
    starts: _Joint | None = None
    if sofic and len(v0) >= 2:
        start_states = []
        for v in sorted(v0):
            sv: dict[int, int] = {}
            for u in g.sources_by_sofic[v].get(x.letter(-1), ()):
                sv[u] = sv.get(u, 0) + 1
            if sv:
                start_states.append(_start(walk, sv))
        starts = _joint(walk, tuple(start_states))

    def wits(depth: int) -> _Witnesses:
        return _Witnesses(g, left, viable, cands, v0, depth)

    # The key leaves the start chains out: they only choose between the two
    # left-closing kinds, and the single-vertex union pattern returns at the
    # first depth it holds whichever kind they select, so they can never make
    # a later depth match where an earlier one with the same key did not.
    t0, m = len(x.left_transient), len(x.left_period)
    seen: set[tuple[int, _Joint]] = set()
    exact = False
    for d in range(1, d_max + 1):
        if d > 1:
            a = left.letter(d - 1)
            joint = joint.step(walk, a)
            if starts is not None:
                starts = starts.step(walk, a)
        if not joint.alive:
            exact = True  # every chain has ended: each deeper depth repeats d
            break
        if joint.total == 1:
            if sofic:
                return LabelClassification(
                    kind="distinguishable",
                    variant="dL",
                    delay=d,
                    multiplicity=1,
                    witness_paths=wits(d),
                    exact=True,
                )
            return LabelClassification(
                kind="delay", delay=d, multiplicity=1, witness_paths=wits(d), exact=True
            )
        if joint.shared and joint.alive >= 2:
            if starts is not None and starts.alive >= 2:
                return LabelClassification(
                    kind="sofic_left_closing",
                    length=d,
                    multiplicity=joint.alive,
                    witness_paths=wits(d),
                    exact=True,
                )
            return LabelClassification(
                kind="left_closing",
                length=d,
                multiplicity=joint.alive,
                witness_paths=wits(d),
                exact=True,
            )
        if d >= t0:
            key = ((d - t0) % m, joint)
            if key in seen:
                exact = True
                break
            seen.add(key)
    if sofic and sum(1 for v in v0 if left.viable(v, 0)) == 1:
        return LabelClassification(
            kind="distinguishable",
            variant="L",
            multiplicity=len(viable),
            searched_to=d_max,
            witness_paths=wits(d_max),
            exact=exact,
        )
    return LabelClassification(
        kind="branching",
        multiplicity=len(viable),
        searched_to=d_max,
        witness_paths=wits(d_max),
        exact=exact,
    )


def _check_search_bound(d_max: int) -> None:
    """Refuse a path-search bound below 1: the classification starts at depth 1."""
    if d_max < 1:
        raise InvalidWord(f"search bound must be >= 1, got {d_max}")


def _branches(
    space: ZipShiftSpace, x: EpPoint
) -> tuple[list[str], LabeledGraph, frozenset[int], _Label, dict[str, dict[int, int]]]:
    """The letters t, in A' order, whose ``_preimage_point(x, t)`` is a
    pre-image of x, with what ``_classify`` reads: the labeled graph, the
    position-0 vertices, the left label, and per branch letter the backward
    candidates (path counts capped at 2).

    Raises NotInSpace when x is not in the space.
    """
    report, v0, left = _admissibility(space, x)
    if not report.ok:
        raise NotInSpace(report.reason)
    g = labeled_graph_for(space)
    cands: dict[str, dict[int, int]] = {}
    for v in sorted(v0):
        for u in g.sources_by_sofic[v].get(x.letter(-1), ()):
            t = g.labels[u][0]
            per_u = cands.setdefault(t, {})
            per_u[u] = min(2, per_u.get(u, 0) + 1)
    viable = [
        t
        for t in sorted(cands, key=space.alphabet_aprime.index)
        if any(left.viable(u, 1) for u in cands[t])
    ]
    return viable, g, v0, left, cands


def preimages(space: ZipShiftSpace, x: EpPoint, d_max: int = 32) -> PreimageResult:
    """All y with shift(y) = x, plus classification metadata."""
    _check_search_bound(d_max)
    viable, g, v0, left, cands = _branches(space, x)
    classification = _classify(space, g, x, left, cands, viable, v0, d_max)
    return PreimageResult(classification, tuple(_preimage_point(x, t) for t in viable))


def preimages_k(space: ZipShiftSpace, x: EpPoint, k: int) -> set[EpPoint]:
    """All y with shift_k(y) = x, by k-fold branching with per-step pruning."""
    if k < 1:
        raise InvalidWord(f"pre-image depth must be >= 1, got {k}")
    frontier = {x}
    for _ in range(k):
        frontier = {_preimage_point(p, t) for p in frontier for t in _branches(space, p)[0]}
    return frontier


def canonical_lift(space: ZipShiftSpace, x: EpPoint) -> EpPoint:
    """The unique backward lift that always picks the least viable branch.

    The right side of the lift is x's right side verbatim.  Going left, each
    step follows the backward edge matching x's left label whose source
    vertex is least in (label, id) order among vertices that stay viable for
    the rest of the label.  The choices repeat once the (vertex, label phase)
    pair repeats, so the lift is eventually periodic.

    The graph's vertices are ranked in that order once, on its first lift,
    and each vertex's sources kept in rank order (``ranked_sources``), so a
    step takes the first viable one.  The position-0 vertices all carry the
    label x_0 .. x_{ell-1}, so the least of them is the one of least id.
    """
    g = labeled_graph_for(space)
    walk = g.leftward
    ranked = walk.ranked_sources
    if ranked is None:
        key = space.alphabet_aprime.key
        rank = [0] * g.n_vertices()
        for r, v in enumerate(sorted(range(g.n_vertices()), key=lambda i: (key(g.labels[i]), i))):
            rank[v] = r
        ranked = walk.ranked_sources = [
            {a: sorted(sources, key=rank.__getitem__) for a, sources in by_letter.items()}
            for by_letter in walk.step
        ]
    starts = _position_zero_vertices(g, x)
    left = _left_label(g, x)
    viable0 = [v for v in starts if left.viable(v, 0)]
    if not viable0:
        raise NotInSpace("point has no backward lift")
    v = min(viable0)
    trans_len = len(x.left_transient)
    m = len(x.left_period)
    seen: dict[tuple[int, int], int] = {}
    letters: list[str] = []
    depth = 0
    while True:
        if depth >= trans_len:
            state = (v, (depth - trans_len) % m)
            if state in seen:
                j = seen[state]
                return EpPoint._of_symbols(
                    tuple(reversed(letters[j:])),
                    tuple(reversed(letters[:j])),
                    x.right_transient,
                    x.right_period,
                )
            seen[state] = depth
        depth += 1
        for u in ranked[v].get(left.letter(depth - 1), ()):
            if left.viable(u, depth):
                break
        else:
            raise NotInSpace("left label is not liftable")
        v = u
        letters.append(g.labels[v][0])

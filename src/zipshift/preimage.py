"""Pre-image enumeration on the backward labeled graph.

A pre-image of x prepends one A'-letter to the right side and drops the
deepest seam letter of the left side.  Candidates are read off the backward
labeled graph: one backward step from the position-0 vertex along edges whose
sofic label matches x_{-1}, then an exact viability decision (product of the
backward graph with the left label's transient-then-cycle automaton) keeps
the candidates that extend to genuine points.  A bounded-depth path search
adds the delay / left-closing / distinguishable metadata on top; enumeration
never depends on that search resolving.

Each query trims the viability product once per side (backward for the left
label, forward for the right tail) and reads it by phase: from any depth on,
a label is a suffix of its transient or a rotation of its period, so every
later viability question of the query, for any vertex at any depth, is a
lookup.  Nothing is kept across queries.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidWord, NotInSpace
from .graph import LabeledGraph, build_labeled_graph
from .point import AdmissibilityReport, EpPoint
from .space import Lift, ZipShiftSpace
from .symbols import Word


def labeled_graph_for(space: ZipShiftSpace) -> LabeledGraph:
    """The space's labeled graph, built on first use and kept on the space."""
    g = space._labeled_graph
    if g is None:
        g = space._labeled_graph = build_labeled_graph(space)
    return g


def _alive_cycle_nodes(step: list[dict], period: Word) -> bytearray:
    """Nodes of the (vertex, phase) product from which infinite runs exist.

    ``step[v][c]`` lists the vertices one step on from v reading c; node
    (v, ph) reads ``period[ph]`` and moves to phase ph + 1 mod m.  Entry
    ``ph * n + v`` of the result is 1 when node (v, ph) is alive.  One
    worklist pass: a node dies when its last live successor dies, so each
    product edge is visited at most twice.
    """
    n, m = len(step), len(period)
    live = [0] * (n * m)
    preds: list[list[int]] = [[] for _ in range(n * m)]
    for ph, c in enumerate(period):
        base, nxt = ph * n, (ph + 1) % m * n
        for v in range(n):
            targets = step[v].get(c, ())
            live[base + v] = len(targets)
            for w in targets:
                preds[nxt + w].append(base + v)
    alive = bytearray(b"\1") * (n * m)
    dead = [node for node, k in enumerate(live) if not k]
    for node in dead:
        alive[node] = 0
    while dead:
        for p in preds[dead.pop()]:
            if alive[p]:
                live[p] -= 1
                if not live[p]:
                    alive[p] = 0
                    dead.append(p)
    return alive


class _Label:
    """Where a one-sided label, transient then period forever, can be spelled.

    ``step`` walks the graph one letter outward.  Layer d holds the vertices
    that can spell the label from its d-th letter on: the period layers come
    from one trim of the (vertex, phase) product, the transient layers from
    one pass back over them.  Depths past the transient fold onto phase
    (d - T) mod m, since from there on the label is a rotation of the period.
    """

    def __init__(self, step: list[dict], transient: Word, period: Word):
        n, m = len(step), len(period)
        cycle = _alive_cycle_nodes(step, period)
        layers = [cycle[ph * n : (ph + 1) * n] for ph in range(m)]
        ahead = layers[0]
        for c in reversed(transient):
            here = bytearray(n)
            for v in range(n):
                for w in step[v].get(c, ()):
                    if ahead[w]:
                        here[v] = 1
                        break
            layers.append(here)
            ahead = here
        self._layers = layers[m:][::-1] + layers[:m]
        self._t = len(transient)
        self._m = m

    def viable(self, v: int, depth: int) -> bool:
        if depth >= self._t:
            depth = self._t + (depth - self._t) % self._m
        return bool(self._layers[depth][v])


def _left_label(g: LabeledGraph, x: EpPoint) -> _Label:
    """x's A-label read outward on the backward graph: depth d starts at x_{-1-d}."""
    return _Label(
        g.sources_by_sofic,
        tuple(reversed(x.left_transient)),
        tuple(reversed(x.left_period)),
    )


def left_viability(
    space: ZipShiftSpace,
    start_vertices: set[int],
    left_label: tuple[Word, Word],
) -> bool:
    """Can the backward graph spell the label forever from some start vertex?

    The label is an A-word stream given outward (the entry at depth 1 first)
    as a transient followed by a repeating period.  Decided exactly on the
    product of the backward graph with the label's shape.
    """
    transient, period = left_label
    if not period:
        raise InvalidWord("left label needs a non-empty period")
    label = _Label(labeled_graph_for(space).sources_by_sofic, tuple(transient), tuple(period))
    return any(label.viable(v, 0) for v in start_vertices)


def _position_zero_vertices(g: LabeledGraph, x: EpPoint) -> set[int]:
    """Graph vertices that can sit at index 0 of x's lift."""
    ell = len(g.labels[0])
    ids = g.ids_with_label(x.window(0, ell))
    if not ids:
        return set()
    right = _Label(g.targets_by_first, x.right_transient, x.right_period)
    return {v for v in ids if right.viable(v, ell)}


def point_admissibility(space: ZipShiftSpace, x: EpPoint) -> AdmissibilityReport:
    """Window admissibility on the unrolled representation plus liftability."""
    return _admissibility(space, x)[0]


def _admissibility(
    space: ZipShiftSpace, x: EpPoint
) -> tuple[AdmissibilityReport, set[int], _Label | None]:
    """The report, with the position-0 vertices and the left label that
    liftability was decided on (empty and None where the check stopped first)."""
    failure = _window_failure(space, x)
    if failure is not None:
        return failure, set(), None
    g = labeled_graph_for(space)
    starts = _position_zero_vertices(g, x)
    if not starts:
        return AdmissibilityReport(False, "right tail is not realizable by any walk"), starts, None
    left = _left_label(g, x)
    if not any(left.viable(v, 0) for v in starts):
        return AdmissibilityReport(False, "left label is not liftable"), starts, left
    return AdmissibilityReport(True, None), starts, left


def _window_failure(space: ZipShiftSpace, x: EpPoint) -> AdmissibilityReport | None:
    """The first letter or window of x's unrolled representation that fails."""
    left_len = len(x.left_transient) + len(x.left_period)
    right_len = len(x.right_transient) + len(x.right_period)
    for j in range(1, left_len + 1):
        if x.letter(-j) not in space.alphabet_a:
            return AdmissibilityReport(False, f"letter {x.letter(-j)!r} at index {-j} is not in A")
    for i in range(right_len):
        if x.letter(i) not in space.alphabet_aprime:
            return AdmissibilityReport(False, f"letter {x.letter(i)!r} at index {i} is not in A'")
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


@dataclass(frozen=True)
class LabelClassification:
    """Bounded-depth search metadata over the pre-image branches.

    kind is one of delay, left_closing, distinguishable, sofic_left_closing
    or branching; ``searched_to`` reports the exhausted depth when the search
    did not resolve (branching is an answer, never an error).  Witness paths
    list, per branch letter, the vertex labels of one backward walk from the
    position-0 vertex outward.
    """

    kind: str
    delay: int | None = None
    length: int | None = None
    multiplicity: int | None = None
    variant: str | None = None
    searched_to: int | None = None
    witness_paths: tuple[tuple[str, tuple[Word, ...]], ...] = ()


@dataclass(frozen=True)
class PreimageResult:
    classification: LabelClassification
    points: tuple[EpPoint, ...]


def _preimage_point(x: EpPoint, t: str) -> EpPoint:
    if x.left_transient:
        lt = x.left_transient[:-1]
        lp = x.left_period
    else:
        lt = ()
        lp = (x.left_period[-1],) + x.left_period[:-1]
    return EpPoint(lp, lt, (t,) + x.right_transient, x.right_period)


class _Chain:
    """Backward path sets of one branch letter, tracked per depth.

    Counts are capped at 2: the search only distinguishes none / one / many
    paths, which is all the classification needs.  ``origin`` remembers one
    position-0 vertex behind each depth-1 vertex so witnesses can be walked
    back to the start of the path.
    """

    def __init__(
        self,
        g: LabeledGraph,
        x: EpPoint,
        starts: dict[int, int],
        origin: dict[int, int],
        d_max: int,
    ):
        counts = {u: min(2, c) for u, c in starts.items()}
        self.origin = origin
        self.parents: dict[tuple[int, int], int] = {}
        self.history: list[dict[int, int]] = [dict(counts)]
        for depth in range(2, d_max + 1):
            a = x.letter(-depth)
            new: dict[int, int] = {}
            for v, cnt in counts.items():
                for u in g.sources_by_sofic[v].get(a, ()):
                    new[u] = min(2, new.get(u, 0) + cnt)
                    self.parents.setdefault((depth, u), v)
            counts = new
            self.history.append(dict(counts))
            if not counts:
                break

    def state_at(self, depth: int) -> dict[int, int]:
        if depth - 1 < len(self.history):
            return self.history[depth - 1]
        return {}

    def paths_at(self, depth: int) -> int:
        return min(2, sum(self.state_at(depth).values()))

    def witness(self, g: LabeledGraph, depth: int) -> tuple[Word, ...]:
        d = depth
        while d >= 1 and not self.state_at(d):
            d -= 1
        if d < 1:
            return ()
        v = min(self.state_at(d))
        path = [v]
        for dd in range(d, 1, -1):
            v = self.parents[(dd, v)]
            path.append(v)
        path.append(self.origin[v])
        path.reverse()
        return tuple(g.labels[u] for u in path)


def _classify(
    space: ZipShiftSpace,
    g: LabeledGraph,
    x: EpPoint,
    left: _Label,
    cands: dict[str, dict[int, int]],
    origin: dict[str, dict[int, int]],
    viable: list[str],
    v0: set[int],
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
    """
    chains = {t: _Chain(g, x, cands[t], origin[t], d_max) for t in cands}
    sofic = space.kind == "sofic"
    m_points = len(viable)

    def wits(depth: int):
        return tuple((t, chains[t].witness(g, depth)) for t in viable)

    start_chains: dict[int, _Chain] = {}
    if sofic and len(v0) >= 2:
        for v in sorted(v0):
            sv: dict[int, int] = {}
            for u in g.sources_by_sofic[v].get(x.letter(-1), ()):
                sv[u] = min(2, sv.get(u, 0) + 1)
            if sv:
                start_chains[v] = _Chain(g, x, sv, dict.fromkeys(sv, v), d_max)

    for d in range(1, d_max + 1):
        alive = [t for t in cands if chains[t].state_at(d)]
        if not alive:
            break
        total = sum(chains[t].paths_at(d) for t in alive)
        if total == 1:
            if sofic:
                return LabelClassification(
                    kind="distinguishable",
                    variant="dL",
                    delay=d,
                    multiplicity=1,
                    witness_paths=wits(d),
                )
            return LabelClassification(
                kind="delay", delay=d, multiplicity=1, witness_paths=wits(d)
            )
        union: set[int] = set()
        for t in alive:
            union |= set(chains[t].state_at(d))
        if len(union) == 1 and len(alive) >= 2:
            if sofic and sum(1 for ch in start_chains.values() if ch.state_at(d)) >= 2:
                return LabelClassification(
                    kind="sofic_left_closing",
                    length=d,
                    multiplicity=len(alive),
                    witness_paths=wits(d),
                )
            return LabelClassification(
                kind="left_closing",
                length=d,
                multiplicity=len(alive),
                witness_paths=wits(d),
            )
    if sofic:
        if sum(1 for v in v0 if left.viable(v, 0)) == 1:
            return LabelClassification(
                kind="distinguishable",
                variant="L",
                multiplicity=m_points,
                searched_to=d_max,
                witness_paths=wits(d_max),
            )
    return LabelClassification(
        kind="branching",
        multiplicity=m_points,
        searched_to=d_max,
        witness_paths=wits(d_max),
    )


def preimages(space: ZipShiftSpace, x: EpPoint, d_max: int = 32) -> PreimageResult:
    """All y with shift(y) = x, plus classification metadata."""
    report, v0, left = _admissibility(space, x)
    if not report.ok:
        raise NotInSpace(report.reason)
    g = labeled_graph_for(space)
    cands: dict[str, dict[int, int]] = {}
    origin: dict[str, dict[int, int]] = {}
    for v in sorted(v0):
        for u in g.sources_by_sofic[v].get(x.letter(-1), ()):
            t = g.labels[u][0]
            per_u = cands.setdefault(t, {})
            per_u[u] = min(2, per_u.get(u, 0) + 1)
            origin.setdefault(t, {}).setdefault(u, v)
    viable: list[str] = []
    points: list[EpPoint] = []
    for t in sorted(cands, key=space.alphabet_aprime.index):
        if any(left.viable(u, 1) for u in cands[t]):
            viable.append(t)
            points.append(_preimage_point(x, t))
    classification = _classify(space, g, x, left, cands, origin, viable, v0, d_max)
    return PreimageResult(classification, tuple(points))


def preimages_k(
    space: ZipShiftSpace, x: EpPoint, k: int, d_max: int = 32
) -> set[EpPoint]:
    """All y with shift_k(y) = x, by k-fold branching with per-step pruning."""
    if k < 1:
        raise InvalidWord(f"pre-image depth must be >= 1, got {k}")
    frontier = {x}
    for _ in range(k):
        frontier = {y for p in frontier for y in preimages(space, p, d_max).points}
    return frontier


def canonical_lift(space: ZipShiftSpace, x: EpPoint) -> Lift:
    """The unique backward lift that always picks the least viable branch.

    The right side of the lift is x's right side verbatim.  Going left, each
    step follows the backward edge matching x's left label whose source
    vertex is least in (label, id) order among vertices that stay viable for
    the rest of the label.  The choices repeat once the (vertex, label phase)
    pair repeats, so the lift is eventually periodic.
    """
    g = labeled_graph_for(space)
    key = space.alphabet_aprime.key
    starts = _position_zero_vertices(g, x)
    left = _left_label(g, x)
    viable0 = [v for v in starts if left.viable(v, 0)]
    if not viable0:
        raise NotInSpace("point has no backward lift")
    v = min(viable0, key=lambda i: (key(g.labels[i]), i))
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
                return Lift(
                    tuple(reversed(letters[j:])),
                    tuple(reversed(letters[:j])),
                    x.right_transient,
                    x.right_period,
                )
            seen[state] = depth
        depth += 1
        options = [u for u in g.sources_by_sofic[v].get(x.letter(-depth), ()) if left.viable(u, depth)]
        if not options:
            raise NotInSpace("left label is not liftable")
        chosen = min(options, key=lambda i: (key(g.labels[i]), i))
        letters.append(g.labels[chosen][0])
        v = chosen

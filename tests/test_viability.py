"""Label viability, the graph trim and the folded path search against the
loops they replaced.

The viability and trim oracles are the original "drop what has no live
successor until nothing changes" loops: over (vertex, phase) pairs, with
the transient walked from the start set first, and over the vertices of a
graph.  The chain oracle is the path search that visits every depth up to
d_max, and the classification oracle checks the patterns at every one of
those depths, where the classification stops at its first repeated joint
state and folds the witnesses onto that cycle.  Two sofic kinds that few
draws reach are pinned by value.  The canonical lift is checked against its
choice rule spelled out: the least viable source by (label key, id) at
every step.
Graphs are drawn small and unconstrained: self-loops, parallel edges, dead
ends and empty edge sets all occur.
"""
from __future__ import annotations

import random
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_a_side import spaces
from zipshift import (
    Alphabet,
    NotInSpace,
    TransitionMap,
    canonical_lift,
    format_point,
    parse_point,
    preimages,
    random_point,
    sft_space,
    sofic_space,
)
from zipshift import preimage
from zipshift.graph import LabeledGraph, _trim
from zipshift.point import EpPoint
from zipshift.preimage import (
    LabelClassification,
    _position_zero_vertices,
    _Chain,
    _classify,
    _Label,
    _branches,
    _left_label,
    labeled_graph_for,
)


def fixpoint_alive(n: int, m: int, succ) -> set[tuple[int, int]]:
    alive = {(v, ph) for v in range(n) for ph in range(m)}
    changed = True
    while changed:
        changed = False
        for node in list(alive):
            if not (succ(node) & alive):
                alive.discard(node)
                changed = True
    return alive


def oracle_viability(g: LabeledGraph, starts, label, steps) -> bool:
    """Can some start vertex spell the label forever, ``steps(v, a)`` giving
    the vertices one step on from v reading a?"""
    transient, period = label
    states = set(starts)
    for a in transient:
        states = {u for v in states for u in steps(v, a)}
        if not states:
            return False
    m = len(period)

    def succ(node):
        v, ph = node
        return {(u, (ph + 1) % m) for u in steps(v, period[ph])}

    alive = fixpoint_alive(g.n_vertices(), m, succ)
    return any((v, 0) in alive for v in states)


def oracle_left_viability(g: LabeledGraph, starts, label) -> bool:
    """Backward along in-edges, reading sofic letters."""
    return oracle_viability(g, starts, label, lambda v, a: [e[0] for e in g.in_edges(v) if e[3] == a])


def oracle_right_viability(g: LabeledGraph, starts, label) -> bool:
    """Forward along out-edges, reading first letters."""
    return oracle_viability(g, starts, label, lambda v, a: [e[1] for e in g.out_edges(v) if e[2] == a])


def label_from(transient, period, depth):
    """The label read from its depth-th letter on: past the transient, the
    rotation of the period by (depth - len(transient)) mod len(period)."""
    if depth <= len(transient):
        return transient[depth:], period
    k = (depth - len(transient)) % len(period)
    return (), period[k:] + period[:k]


@st.composite
def graphs(draw):
    letters = draw(st.sampled_from(["ab", "abc"]))
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    letter = st.sampled_from(letters)
    edges = draw(st.lists(st.tuples(vertex, vertex, letter, letter), max_size=3 * n))
    return LabeledGraph([(str(v),) for v in range(n)], edges), letters


def words(letters: str, min_size: int, max_size: int):
    return st.lists(st.sampled_from(letters), min_size=min_size, max_size=max_size).map(tuple)


@given(st.data())
def test_linear_trim_matches_fixpoint(data):
    g, letters = data.draw(graphs())
    period = data.draw(words(letters, 1, 4))
    n, m = g.n_vertices(), len(period)
    backward = {
        (v, ph): {(e[0], (ph + 1) % m) for e in g.in_edges(v) if e[3] == period[ph]}
        for v in range(n)
        for ph in range(m)
    }
    forward = {
        (v, ph): {(e[1], (ph + 1) % m) for e in g.out_edges(v) if e[2] == period[ph]}
        for v in range(n)
        for ph in range(m)
    }
    for walk, succ in ((g.leftward, backward), (g.rightward, forward)):
        label = _Label(walk, (), period)
        got = {(v, ph) for v in range(n) for ph in range(m) if label.viable(v, ph)}
        assert got == fixpoint_alive(n, m, succ.__getitem__)


@given(st.data())
def test_viability_on_demand_in_any_order(data):
    """One label asked about every (vertex, depth) in a drawn order answers
    as a fresh label and the fixpoint oracle do, on both walks: what one
    question's search leaves on the label must not change a later answer."""
    g, letters = data.draw(graphs())
    transient = data.draw(words(letters, 0, 3))
    period = data.draw(words(letters, 1, 4))
    depths = range(len(transient) + 2 * len(period))
    questions = data.draw(st.permutations([(v, d) for v in range(g.n_vertices()) for d in depths]))
    for walk, oracle in ((g.leftward, oracle_left_viability), (g.rightward, oracle_right_viability)):
        shared = _Label(walk, transient, period)
        for v, depth in questions:
            got = shared.viable(v, depth)
            assert got == _Label(walk, transient, period).viable(v, depth)
            assert got == oracle(g, {v}, label_from(transient, period, depth))


@given(st.data())
def test_left_viability_every_rotation(data):
    g, letters = data.draw(graphs())
    transient = data.draw(words(letters, 0, 3))
    period = data.draw(words(letters, 1, 4))
    n = g.n_vertices()
    starts = data.draw(st.sets(st.integers(0, n - 1)))
    for k in range(len(period)):
        rotation = period[k:] + period[:k]
        label = _Label(g.leftward, transient, rotation)
        got = any(label.viable(v, 0) for v in starts)
        assert got == oracle_left_viability(g, starts, (transient, rotation))


class UnfoldedChain:
    """The path search as it was before the cycle fold: every depth to d_max."""

    def __init__(self, g, x, starts, origin, d_max):
        counts = {u: min(2, c) for u, c in starts.items()}
        self.origin = origin
        self.parents = {}
        self.history = [dict(counts)]
        for depth in range(2, d_max + 1):
            a = x.letter(-depth)
            new = {}
            for v, cnt in counts.items():
                for u in g.sources_by_sofic[v].get(a, ()):
                    new[u] = min(2, new.get(u, 0) + cnt)
                    self.parents.setdefault((depth, u), v)
            counts = new
            self.history.append(dict(counts))
            if not counts:
                break

    def state_at(self, depth):
        if depth - 1 < len(self.history):
            return self.history[depth - 1]
        return {}

    def paths_at(self, depth):
        return min(2, sum(self.state_at(depth).values()))

    def witness(self, g, depth):
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


def walked_chain(g, x, starts, origin, d_max):
    """A ``_Chain`` stepped along x's left label out to depth d_max."""
    chain = _Chain(g, starts, origin)
    for depth in range(2, d_max + 1):
        chain.step(x.letter(-depth))
    return chain


def assert_chain_matches_unfolded(g, x, starts, origin, d_max):
    chain = walked_chain(g, x, starts, origin, d_max)
    oracle = UnfoldedChain(g, x, starts, origin, d_max)
    for depth in range(1, d_max + 1):
        state = chain.states[depth - 1]
        # Items in order: the order of the counts decides which parent a
        # deeper vertex records, and so the witness paths.
        assert list(zip(state.verts, state.counts)) == list(oracle.state_at(depth).items())
        assert state.total == oracle.paths_at(depth)
        assert chain.witness(g, depth) == oracle.witness(g, depth)
    return chain


@settings(max_examples=1000)
@given(st.data())
def test_chain_fold_matches_unfolded_search(data):
    """A chain stepped to d_max without folding matches the unfolded search
    at every depth: states, totals and witnesses.  The fold itself is the
    classification's, checked against the full scan below."""
    g, letters = data.draw(graphs())
    n = g.n_vertices()
    x = EpPoint(data.draw(words(letters, 1, 4)), data.draw(words(letters, 0, 3)), (), ("a",))
    starts = data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, 3)))
    origin = {u: data.draw(st.integers(0, n - 1)) for u in starts}
    assert_chain_matches_unfolded(g, x, starts, origin, data.draw(st.integers(1, 40)))


def full_scan_classify(space, g, x, left, cands, origin, viable, v0, d_max):
    """The classification as it was before the early stop: unfolded chains,
    every depth up to d_max checked against the patterns."""
    chains = {t: UnfoldedChain(g, x, cands[t], origin[t], d_max) for t in cands}
    sofic = space.kind == "sofic"

    def wits(depth):
        return tuple((t, chains[t].witness(g, depth)) for t in viable)

    start_chains = {}
    if sofic and len(v0) >= 2:
        for v in sorted(v0):
            sv = {}
            for u in g.sources_by_sofic[v].get(x.letter(-1), ()):
                sv[u] = min(2, sv.get(u, 0) + 1)
            if sv:
                start_chains[v] = UnfoldedChain(g, x, sv, dict.fromkeys(sv, v), d_max)
    for d in range(1, d_max + 1):
        alive = [t for t in cands if chains[t].state_at(d)]
        if not alive:
            break
        if sum(chains[t].paths_at(d) for t in alive) == 1:
            if sofic:
                return LabelClassification(
                    kind="distinguishable", variant="dL", delay=d, multiplicity=1, witness_paths=wits(d)
                )
            return LabelClassification(kind="delay", delay=d, multiplicity=1, witness_paths=wits(d))
        union = set()
        for t in alive:
            union |= set(chains[t].state_at(d))
        if len(union) == 1 and len(alive) >= 2:
            kind = "left_closing"
            if sofic and sum(1 for ch in start_chains.values() if ch.state_at(d)) >= 2:
                kind = "sofic_left_closing"
            return LabelClassification(kind=kind, length=d, multiplicity=len(alive), witness_paths=wits(d))
    if sofic and sum(1 for v in v0 if left.viable(v, 0)) == 1:
        return LabelClassification(
            kind="distinguishable",
            variant="L",
            multiplicity=len(viable),
            searched_to=d_max,
            witness_paths=wits(d_max),
        )
    return LabelClassification(
        kind="branching", multiplicity=len(viable), searched_to=d_max, witness_paths=wits(d_max)
    )


# A witness folded onto [d0, d0 + p), a key taken one depth inside the
# transient or a key without the label's phase each fails on only a few
# draws in a thousand.
@settings(max_examples=1000)
@given(st.data())
def test_classify_early_stop_matches_full_scan(data):
    g, letters = data.draw(graphs())
    n = g.n_vertices()
    vertex = st.integers(0, n - 1)
    x = EpPoint(data.draw(words(letters, 1, 4)), data.draw(words(letters, 0, 3)), (), ("a",))
    space = SimpleNamespace(kind=data.draw(st.sampled_from(["sft", "sofic"])))
    branch = st.dictionaries(vertex, st.integers(1, 3), min_size=1)
    cands = data.draw(st.dictionaries(st.sampled_from("xyz"), branch))
    origin = {t: {u: data.draw(vertex) for u in cands[t]} for t in cands}
    viable = [t for t in cands if data.draw(st.booleans())]
    v0 = data.draw(st.sets(vertex))
    d_max = data.draw(st.integers(1, 40))
    args = (space, g, x, _left_label(g, x), cands, origin, viable, v0, d_max)
    assert _classify(*args) == full_scan_classify(*args)


def test_classify_waits_for_a_late_ending_chain():
    """Branch y cycles on one path from depth 1; branch x's path dies at
    depth 3, which leaves one path there: a delay of 3, found only if the
    scan runs past the depth where y starts to repeat."""
    g = LabeledGraph([("0",), ("1",), ("2",)], [(0, 0, "a", "a"), (2, 1, "a", "a")])
    x = EpPoint(("a",), (), (), ("a",))
    cands = {"x": {1: 1}, "y": {0: 1}}
    origin = {"x": {1: 1}, "y": {0: 0}}
    args = (SimpleNamespace(kind="sft"), g, x, _left_label(g, x), cands, origin, ["y"], {0, 1}, 32)
    got = _classify(*args)
    assert (got.kind, got.delay) == ("delay", 3)
    assert got == full_scan_classify(*args)


@pytest.mark.parametrize("cleared", [False, True])
@settings(max_examples=300)
@given(data=st.data())
def test_chains_on_one_graph_share_its_table(cleared, data):
    """Chains and classifications built in turn on one graph, with different
    labels, starts, origins and bounds, read and extend one table of count
    states; each matches the unfolded search.  With the cap at 0, every
    classification starts from a cleared table."""
    g, letters = data.draw(graphs())
    vertex = st.integers(0, g.n_vertices() - 1)
    cap = 0 if cleared else preimage._STATES_PER_VERTEX
    with patch.object(preimage, "_STATES_PER_VERTEX", cap):
        for _ in range(data.draw(st.integers(1, 5))):
            x = EpPoint(data.draw(words(letters, 1, 4)), data.draw(words(letters, 0, 3)), (), ("a",))
            starts = data.draw(st.dictionaries(vertex, st.integers(1, 3)))
            origin = {u: data.draw(vertex) for u in starts}
            d_max = data.draw(st.integers(1, 40))
            chain = assert_chain_matches_unfolded(g, x, starts, origin, d_max)
            # The same chain again takes every step from the table.
            size = len(g.leftward.count_states)
            again = walked_chain(g, x, starts, origin, d_max)
            assert len(g.leftward.count_states) == size
            assert all(a is b for a, b in zip(again.states, chain.states, strict=True))
            branch = st.dictionaries(vertex, st.integers(1, 3), min_size=1)
            cands = data.draw(st.dictionaries(st.sampled_from("xyz"), branch))
            origins = {t: {u: data.draw(vertex) for u in cands[t]} for t in cands}
            viable = [t for t in cands if data.draw(st.booleans())]
            space = SimpleNamespace(kind=data.draw(st.sampled_from(["sft", "sofic"])))
            args = (space, g, x, _left_label(g, x), cands, origins, viable, set(starts), d_max)
            assert _classify(*args) == full_scan_classify(*args)


def scaled_space(rng: random.Random):
    """A finite-type space with six A'-letters, n = 2 and six forbidden
    4-words drawn from ``rng``, every window mapped onto a, b or c."""
    letters = [str(i) for i in range(6)]
    pairs = [(p, q) for p in letters for q in letters]
    forbidden = set()
    while len(forbidden) < 6:
        forbidden.add(tuple(rng.choice(letters) for _ in range(4)))
    return sft_space(
        Alphabet(["a", "b", "c"]),
        Alphabet(letters),
        TransitionMap(2, {w: "abc"[i % 3] for i, w in enumerate(pairs)}),
        forbidden,
    )


def test_count_state_table_stays_under_its_cap():
    """500 warm pre-image queries on one space never leave the path search's
    table of count states above its cap, and the table keeps what they read."""
    rng = random.Random(11)
    space = scaled_space(rng)
    g = labeled_graph_for(space)
    cap = preimage._STATES_PER_VERTEX * g.n_vertices()
    sizes = []
    for _ in range(500):
        preimages(space, random_point(space, rng))
        sizes.append(len(g.leftward.count_states))
    assert 0 < max(sizes) <= cap


def test_joint_table_stays_under_its_cap():
    """500 warm pre-image queries on one space keep the path search's table
    of joint states non-empty and never leave it above its cap."""
    rng = random.Random(11)
    space = scaled_space(rng)
    g = labeled_graph_for(space)
    cap = preimage._STATES_PER_VERTEX * g.n_vertices()
    preimages(space, random_point(space, rng))
    sizes = []
    for _ in range(500):
        preimages(space, random_point(space, rng))
        sizes.append(len(g.leftward.joint_states))
    assert 0 < min(sizes) and max(sizes) <= cap


@pytest.mark.parametrize(
    "name", ["ex21", "f3", "classical", "sigma_f", "sigma_g", "even", "five", "coding1", "coding2",
             "scaled-1", "scaled-2"]
)
def test_classify_folds_far_past_the_cycle(name, request):
    """At d_max = 2,000 a branching answer's witnesses fold round the joint
    cycle many times over, far past the depths the drawn graphs reach."""
    if name.startswith("scaled-"):
        space = scaled_space(random.Random(int(name[-1])))
    else:
        space = request.getfixturevalue(name)
    rng = random.Random(3)
    for _ in range(20):
        x = random_point(space, rng)
        viable, g, v0, left, cands, origin = _branches(space, x)
        args = (space, g, x, left, cands, origin, viable, v0, 2000)
        assert _classify(*args) == full_scan_classify(*args)


def pinned_sofic(letters, phi, edges):
    """A sofic space over A = {a, b, c} with vertices v0, v1, ... and edges
    given as "src dst letter" triples."""
    edges = [tuple(e.split()) for e in edges.split(", ")]
    vertices = sorted({e[0] for e in edges} | {e[1] for e in edges})
    return sofic_space(Alphabet(["a", "b", "c"]), Alphabet(list(letters)), TransitionMap(2, phi), vertices, edges)


def test_sofic_left_closing_by_value():
    pairs = [(p, q) for p in "0123" for q in "0123" if (p, q) != ("2", "3")]
    space = pinned_sofic(
        "0123",
        {w: "abc"[i % 3] for i, w in enumerate(pairs)},
        "v0 v1 2, v0 v2 3, v0 v1 1, v1 v2 0, v1 v3 0, v1 v0 1, v1 v1 0, v1 v1 2, v2 v3 3, "
        "v2 v1 3, v2 v1 1, v3 v4 1, v4 v5 0, v4 v1 0, v4 v4 3, v5 v0 1, v5 v1 3",
    )
    tail = (("0", "1"), ("1", "0"), ("0", "1"), ("1", "0"), ("0", "1"))
    for d_max in (32, 200):
        r = preimages(space, parse_point("(b)* c c ; 0 3 (2)*"), d_max)
        assert r.classification == LabelClassification(
            kind="sofic_left_closing",
            length=8,
            multiplicity=2,
            witness_paths=(
                ("2", (("0", "3"), ("2", "0"), ("0", "2"), ("1", "0")) + tail),
                ("3", (("0", "3"), ("3", "0"), ("3", "3"), ("1", "3")) + tail),
            ),
        )
        assert [format_point(y) for y in r.points] == ["(b)* c ; 2 0 3 (2)*", "(b)* c ; 3 0 3 (2)*"]


def test_distinguishable_by_the_label_by_value():
    space = pinned_sofic(
        "012",
        {("0", "1"): "a", ("0", "2"): "b", ("1", "0"): "c", ("1", "1"): "a", ("1", "2"): "b",
         ("2", "1"): "c", ("2", "2"): "a"},
        "v0 v1 0, v1 v2 2, v1 v2 1, v2 v0 1, v2 v2 2, v2 v0 1",
    )
    cycle = (("1", "0"), ("2", "1"), ("1", "2"), ("0", "1"))
    for d_max in (32, 200):
        r = preimages(space, parse_point("(a b c c)* ; (0 1 1)*"), d_max)
        assert r.classification == LabelClassification(
            kind="distinguishable",
            variant="L",
            multiplicity=1,
            searched_to=d_max,
            witness_paths=(("1", (("0", "1"),) + cycle * (d_max // 4)),),
        )
        assert [format_point(y) for y in r.points] == ["(c a b c)* ; (1 0 1)*"]


def fixpoint_graph_trim(g: LabeledGraph) -> LabeledGraph:
    """The vertex trim as a loop until nothing changes."""
    alive = set(range(g.n_vertices()))
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            has_out = any(e[1] in alive for e in g.out_edges(v))
            has_in = any(e[0] in alive for e in g.in_edges(v))
            if not (has_out and has_in):
                alive.discard(v)
                changed = True
    keep = sorted(alive)
    remap = {old: new for new, old in enumerate(keep)}
    edges = [(remap[s], remap[d], f, x) for (s, d, f, x) in g.edges if s in alive and d in alive]
    return LabeledGraph([g.labels[v] for v in keep], edges)


@given(st.data())
def test_graph_trim_matches_fixpoint(data):
    g, _letters = data.draw(graphs())
    got, want = _trim(g), fixpoint_graph_trim(g)
    assert (got.labels, got.edges) == (want.labels, want.edges)


def keyed_lift_letters(space, x, depth):
    """Letters -1 .. -depth of x's canonical lift, each step taking the least
    viable source by (alphabet_aprime.key(label), id), or None when no
    position-0 vertex lifts x."""
    g = labeled_graph_for(space)
    left = _Label(g.leftward, tuple(reversed(x.left_transient)), tuple(reversed(x.left_period)))

    def key(v):
        return (space.alphabet_aprime.key(g.labels[v]), v)

    viable0 = [v for v in _position_zero_vertices(g, x) if left.viable(v, 0)]
    if not viable0:
        return None
    v = min(viable0, key=key)
    letters = []
    for d in range(1, depth + 1):
        v = min((u for u in g.sources_by_sofic[v].get(x.letter(-d), ()) if left.viable(u, d)), key=key)
        letters.append(g.labels[v][0])
    return letters


def assert_lift_matches_keyed_rule(space, x):
    g = labeled_graph_for(space)
    depth = len(x.left_transient) + len(x.left_period) * (g.n_vertices() + 2)
    want = keyed_lift_letters(space, x, depth)
    if want is None:
        with pytest.raises(NotInSpace):
            canonical_lift(space, x)
        return
    lift = canonical_lift(space, x)
    assert [lift.letter(-d) for d in range(1, depth + 1)] == want
    assert (lift.right_transient, lift.right_period) == (x.right_transient, x.right_period)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spaces(), st.integers(0, 2**32 - 1), st.data())
def test_canonical_lift_takes_the_least_viable_source(space, seed, data):
    """On drawn spaces, sofic ones with repeated labels among them, the lift
    is the one its choice rule gives, letter by letter past its cycle, for
    points of the space and points with one left letter changed."""
    rng = random.Random(seed)
    a = space.alphabet_a.symbols
    for _ in range(3):
        x = random_point(space, rng)
        assert_lift_matches_keyed_rule(space, x)
        lt = x.left_transient + (data.draw(st.sampled_from(a)),)
        assert_lift_matches_keyed_rule(space, EpPoint(x.left_period, lt, x.right_transient, x.right_period))


def test_canonical_lift_breaks_label_ties_by_id():
    """Two presentation edges read 0, so two window-graph vertices share the
    label 0; only the one with the lower id has a 0 before it, and the lift
    of (a)* ; (0 0 1)* starts there."""
    space = sofic_space(
        Alphabet(["a"]),
        Alphabet(["0", "1"]),
        TransitionMap(1, {("0",): "a", ("1",): "a"}),
        ["q0", "q1"],
        [("q0", "q0", "0"), ("q0", "q1", "1"), ("q1", "q0", "0")],
    )
    assert labeled_graph_for(space).labels == (("0",), ("1",), ("0",))
    x = parse_point("(a)* ; (0 0 1)*")
    assert format_point(canonical_lift(space, x)) == "(0)* ; (0 0 1)*"
    assert_lift_matches_keyed_rule(space, x)
    rng = random.Random(4)
    for _ in range(20):
        assert_lift_matches_keyed_rule(space, random_point(space, rng))

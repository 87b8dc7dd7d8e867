"""The linear product trim against the fixpoint loop it replaced.

The oracle below is the original "drop nodes without live successors until
nothing changes" trim over (vertex, phase) pairs, with the transient walked
from the start set first.  Graphs are drawn small and unconstrained:
self-loops, parallel edges, dead ends and empty edge sets all occur.
"""
from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given
from hypothesis import strategies as st

from zipshift.graph import LabeledGraph
from zipshift.preimage import _alive_cycle_nodes, _Label, left_viability


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


def oracle_left_viability(g: LabeledGraph, starts, label) -> bool:
    transient, period = label
    states = set(starts)
    for a in transient:
        states = {e[0] for v in states for e in g.in_edges(v) if e[3] == a}
        if not states:
            return False
    m = len(period)

    def succ(node):
        v, ph = node
        return {(e[0], (ph + 1) % m) for e in g.in_edges(v) if e[3] == period[ph]}

    alive = fixpoint_alive(g.n_vertices(), m, succ)
    return any((v, 0) in alive for v in states)


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
    for step, succ in ((g.sources_by_sofic, backward), (g.targets_by_first, forward)):
        alive = _alive_cycle_nodes(step, period)
        got = {(v, ph) for v in range(n) for ph in range(m) if alive[ph * n + v]}
        assert got == fixpoint_alive(n, m, succ.__getitem__)


@given(st.data())
def test_left_viability_every_rotation(data):
    g, letters = data.draw(graphs())
    transient = data.draw(words(letters, 0, 3))
    period = data.draw(words(letters, 1, 4))
    n = g.n_vertices()
    starts = data.draw(st.sets(st.integers(0, n - 1)))
    space = SimpleNamespace(_labeled_graph=g)
    for k in range(len(period)):
        label = (transient, period[k:] + period[:k])
        assert left_viability(space, starts, label) == oracle_left_viability(g, starts, label)
    # One trim, read at every depth: past the transient, depth d is the
    # rotation of the period by (d - len(transient)) mod len(period).
    once = _Label(g.sources_by_sofic, transient, period)
    for depth in range(len(transient) + 2 * len(period)):
        if depth <= len(transient):
            label = (transient[depth:], period)
        else:
            k = (depth - len(transient)) % len(period)
            label = ((), period[k:] + period[:k])
        for v in range(n):
            assert once.viable(v, depth) == oracle_left_viability(g, {v}, label)

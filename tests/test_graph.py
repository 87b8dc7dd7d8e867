from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from test_a_side import spaces
from zipshift import (
    Alphabet,
    InvalidWord,
    LabeledGraph,
    NotFiniteType,
    TransitionMap,
    backward,
    build_labeled_graph,
    export_dot,
    full_space,
    parse_point,
    preimages,
    presentation_graph,
    sofic_space,
    spelled_language,
    vertex_like,
)
from zipshift import graph


def test_build_ex21(ex21):
    g = build_labeled_graph(ex21)
    assert g.labels == (("1",), ("2",), ("3",))
    assert len(g.edges) == 5
    assert (0, 1, "2", "a") in g.edges
    assert (1, 2, "3", "b") in g.edges
    assert (1, 1, "2", "b") in g.edges
    assert (2, 0, "1", "b") in g.edges
    assert (2, 1, "2", "b") in g.edges


def test_build_full(classical):
    g = build_labeled_graph(classical)
    assert g.n_vertices() == 2
    assert len(g.edges) == 4


def test_build_even(even):
    g = build_labeled_graph(even)
    assert sorted(g.labels) == [
        ("0", "0"),
        ("0", "0"),
        ("0", "1"),
        ("1", "0"),
        ("1", "1"),
    ]
    # the pinned edge: from the 01 vertex, reading a 1 lands in 11 and
    # spells the image of the source window
    [v01] = g.ids_with_label(("0", "1"))
    [v11] = g.ids_with_label(("1", "1"))
    assert (v01, v11, "1", "b") in g.edges
    assert all(first == g.labels[dst][-1] for _s, dst, first, _x in g.edges)


def test_spelled_language_matches_space(ex21, even, five):
    for space in (ex21, even, five):
        g = build_labeled_graph(space)
        for k in range(1, 7):
            assert spelled_language(g, k) == set(space.language(k))


def _brute_spelled(g, k):
    """Each label followed by the letters of every walk of max(k - ell, 0)
    edges from its vertex, cut into k-windows (walks kept as distinct
    (end vertex, word) pairs)."""
    ell = len(g.labels[0]) if g.labels else 0
    words = set()
    for v, lab in enumerate(g.labels):
        walks = {(v, lab)}
        for _ in range(max(k - ell, 0)):
            walks = {(d, w + (first,)) for u, w in walks for _s, d, first, _x in g.out_edges(u)}
        words |= {w[i : i + k] for _u, w in walks for i in range(len(w) - k + 1)}
    return words


@st.composite
def labeled_graphs(draw):
    """Up to 7 vertices and 14 edges, one label length of 0 to 3 letters;
    dead ends, parallel edges, repeated labels and empty graphs occur."""
    n = draw(st.integers(0, 7))
    ell = draw(st.integers(0, 3))
    letter = st.sampled_from("01")
    labels = draw(st.lists(st.tuples(*[letter] * ell), min_size=n, max_size=n))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from("012"), st.none())
    edges = draw(st.lists(edge, max_size=14)) if n else []
    return LabeledGraph(labels, edges)


@settings(max_examples=200, deadline=None)
@given(labeled_graphs())
def test_spelled_language_matches_brute_force(g):
    for k in range(1, 7):
        assert spelled_language(g, k) == _brute_spelled(g, k)


def test_vertex_like(even):
    p = presentation_graph(even)
    assert p.labels == (("P",), ("Q",))
    assert len(p.edges) == 3
    v = vertex_like(p)
    assert sorted(v.labels) == [("0",), ("0",), ("1",)]
    for k in range(1, 9):
        assert spelled_language(v, k) == set(even.language(k))


def test_recode_language_mismatch_raises(even, monkeypatch):
    monkeypatch.setattr(graph, "spelled_language", lambda g, k: set())
    with pytest.raises(InvalidWord, match="window graph spells a different language"):
        build_labeled_graph(even)


def test_presentation_graph_needs_sofic(ex21):
    with pytest.raises(NotFiniteType):
        presentation_graph(ex21)


def test_backward(ex21):
    g = build_labeled_graph(ex21)
    b = backward(g)
    assert b.labels == g.labels
    assert sorted(b.edges) == sorted((d, s, f, x) for s, d, f, x in g.edges)
    assert sorted(backward(b).edges) == sorted(g.edges)


def test_export_dot(ex21):
    text = export_dot(build_labeled_graph(ex21))
    assert text.startswith("digraph")
    assert 'v1_2 -> v1_2 [label="2/b"]' in text
    assert "v0_1" in text and "v2_3" in text
    # deterministic
    assert text == export_dot(build_labeled_graph(ex21))


def test_export_dot_escapes_quotes_and_backslashes():
    space = full_space(Alphabet(["a"]), Alphabet(['x"y', "z\\"]), TransitionMap(1, {('x"y',): "a", ("z\\",): "a"}))
    edges = [line for line in export_dot(build_labeled_graph(space)).splitlines() if "->" in line]
    assert len(edges) == 4
    assert all(re.fullmatch(r'  \w+ -> \w+ \[label="(?:[^"\\]|\\["\\])*"\];', line) for line in edges)
    assert sum('[label="x\\"y/a"]' in line for line in edges) == 2
    assert sum('[label="z\\\\/a"]' in line for line in edges) == 2


def test_spelled_language_refuses_nonpositive_lengths(even):
    g = build_labeled_graph(even)
    for k in (0, -1):
        with pytest.raises(InvalidWord, match=f"word length must be positive, got {k}"):
            spelled_language(g, k)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LabeledGraph([("1",)], [(0, 1, "1", None)]), "edge (0, 1) references a missing vertex"),
        (lambda: LabeledGraph([("1",)], [(-1, 0, "1", None)]), "edge (-1, 0) references a missing vertex"),
        (
            lambda: spelled_language(LabeledGraph([("1",), ("1", "2")], []), 1),
            "spelled_language needs uniform label length",
        ),
    ],
    ids=["missing-target", "negative-source", "mixed-label-lengths"],
)
def test_graph_refusals(build, message):
    with pytest.raises(InvalidWord) as exc:
        build()
    assert str(exc.value) == message


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(spaces().filter(lambda space: space.kind == "sofic"))
def test_sofic_window_graph_is_a_higher_edge_graph(space):
    """At widths n and n + 1 the window graph spells the space's language,
    its edges slide the label window and carry the transition image; at
    width 1 on a presentation with no parallel edges it is the line graph
    that ``vertex_like`` builds."""
    n = space.n
    for ell in (n, n + 1):
        g = build_labeled_graph(space, ell)
        for k in range(1, 7):
            assert spelled_language(g, k) == set(space.language(k))
        for src, dst, first, a_letter in g.edges:
            w = g.labels[src] + (first,)
            assert g.labels[dst] == w[1:]
            assert a_letter == space.tm(w[:n])
    ends = [(src, dst) for src, dst, _c in space.presentation_edges]
    if n == 1 and len(set(ends)) == len(ends):
        g = build_labeled_graph(space, 1)
        line = vertex_like(presentation_graph(space))
        assert g.labels == line.labels
        assert [e[:3] for e in g.edges] == [e[:3] for e in line.edges]


def _full(letters, n):
    """The full space on ``letters`` with window n, its n-words mapped onto
    a and b in turn."""
    words = itertools.product(letters, repeat=n)
    tm = TransitionMap(n, {w: "ab"[i % 2] for i, w in enumerate(words)})
    return full_space(Alphabet(["a", "b"]), Alphabet(letters), tm)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(spaces().filter(lambda space: space.kind != "sofic"))
@example(_full(["0", "1"], 3))
def test_finite_type_window_graph_edges_slide_and_carry_images(space):
    """At the least width and one wider, every edge of a finite-type window
    graph goes to its source's label slid one letter on and carries the
    image of the first n letters.  Full draws with n = 2 have labels of
    n - 1 letters at the least width; the n = 3 example has labels of n - 1
    letters that are longer than the space's blocks."""
    n = space.n
    least = max(n - 1, space.step_k, 1)
    for ell in (least, least + 1):
        g = build_labeled_graph(space, ell)
        for src, dst, first, a_letter in g.edges:
            w = g.labels[src] + (first,)
            assert g.labels[dst] == w[1:]
            assert a_letter == space.tm(w[:n])


def _loops(k):
    return sofic_space(
        Alphabet(["a"]),
        Alphabet(["0", "1", "2", "3"]),
        TransitionMap(2, {("3", "3"): "a"}),
        ["q0"],
        [("q0", "q0", "3")] * k,
    )


def test_parallel_loops_stay_distinct_paths():
    """Six parallel loops give one vertex per 2-edge path, 6 * 6, and one
    edge per 3-edge path; the pre-images are those of a single loop."""
    g = build_labeled_graph(_loops(6))
    assert (g.n_vertices(), len(g.edges)) == (36, 216)
    x = parse_point("(a)* ; (3)*")
    assert preimages(_loops(6), x).points == preimages(_loops(1), x).points


def test_width_below_n_raises(even):
    with pytest.raises(InvalidWord, match="below the least width 2"):
        build_labeled_graph(even, 1)
    assert len(build_labeled_graph(even, 3).labels[0]) == 3

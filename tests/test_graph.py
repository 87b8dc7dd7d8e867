from __future__ import annotations

import pytest

from zipshift import (
    InvalidWord,
    NotFiniteType,
    backward,
    build_labeled_graph,
    export_dot,
    presentation_graph,
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
    with pytest.raises(InvalidWord, match="vertex-like recode changed the language"):
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

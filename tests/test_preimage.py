from __future__ import annotations

import gc
import random
import weakref

import pytest

from zipshift import (
    Alphabet,
    InvalidWord,
    TransitionMap,
    canonical_lift,
    format_point,
    full_space,
    is_admissible,
    parse_point,
    preimages,
    preimages_k,
    random_point,
    shift,
)


def pts(result):
    return sorted(format_point(p) for p in result.points)


def test_classify_delay_classical(classical):
    r = preimages(classical, parse_point("(0)* 1 ; 1 (0)*"))
    assert r.classification.kind == "delay"
    assert r.classification.delay == 1
    assert r.classification.multiplicity == 1
    assert pts(r) == ["(0)* ; 1 1 (0)*"]


def test_classify_branching_sigma_f(sigma_f):
    r = preimages(sigma_f, parse_point("(a)* ; (1)*"))
    assert r.classification.kind == "branching"
    assert r.classification.multiplicity == 2
    assert r.classification.searched_to == 32
    assert pts(r) == ["(a)* ; (1)*", "(a)* ; 3 (1)*"]


def test_classify_branching_sigma_g(sigma_g):
    r = preimages(sigma_g, parse_point("(a)* ; (1)*"))
    assert r.classification.kind == "branching"
    assert r.classification.multiplicity == 4
    assert pts(r) == [
        "(a)* ; (1)*",
        "(a)* ; 2 (1)*",
        "(a)* ; 3 (1)*",
        "(a)* ; 4 (1)*",
    ]


def test_classify_branching_ex21(ex21):
    r = preimages(ex21, parse_point("(b)* ; (2 3)*"))
    assert r.classification.kind == "branching"
    assert r.classification.multiplicity == 2
    assert pts(r) == ["(b)* ; (3 2)*", "(b)* ; 2 (2 3)*"]


def test_classify_delay_ex21(ex21):
    r = preimages(ex21, parse_point("(b)* a b ; (2 3)*"))
    assert r.classification.kind == "delay"
    assert r.classification.delay == 2
    assert pts(r) == ["(b)* a ; 2 (2 3)*"]
    r = preimages(ex21, parse_point("(b)* a ; (2 3)*"))
    assert r.classification.kind == "delay"
    assert r.classification.delay == 1
    assert pts(r) == ["(b)* ; 1 (2 3)*"]


def test_classify_left_closing_f3(f3):
    r = preimages(f3, parse_point("(a b)* ; (1)*"))
    assert r.classification.kind == "left_closing"
    assert r.classification.length == 2
    assert r.classification.multiplicity == 2
    assert pts(r) == ["(b a)* ; 2 (1)*", "(b a)* ; 3 (1)*"]
    assert r.classification.witness_paths == (
        ("2", (("1",), ("2",), ("1",))),
        ("3", (("1",), ("3",), ("1",))),
    )


def test_classify_even(even):
    r = preimages(even, parse_point("(c)* ; (0)*"))
    assert r.classification.multiplicity == 1
    assert pts(r) == ["(c)* ; (0)*"]
    r = preimages(even, parse_point("(a)* ; (1)*"))
    assert r.classification.kind == "distinguishable"
    assert r.classification.delay == 1
    assert pts(r) == ["(a)* ; (1)*"]
    r = preimages(even, parse_point("(c)* b ; 1 (0)*"))
    assert pts(r) == ["(c)* ; 0 1 (0)*"]


def test_d_max_does_not_change_points(sigma_f):
    x = parse_point("(a)* ; (1)*")
    small = preimages(sigma_f, x, d_max=5)
    assert small.classification.searched_to == 5
    assert pts(small) == pts(preimages(sigma_f, x))


def test_preimages_k(sigma_f):
    x = parse_point("(a)* ; (1)*")
    assert preimages_k(sigma_f, x, 1) == set(preimages(sigma_f, x).points)
    assert len(preimages_k(sigma_f, x, 3)) == 8
    with pytest.raises(InvalidWord):
        preimages_k(sigma_f, x, 0)


def test_preimage_shift_round_trip(ex21, even, five, sigma_f):
    rng = random.Random(5)
    for space in (ex21, even, five, sigma_f):
        for _ in range(20):
            x = random_point(space, rng)
            result = preimages(space, x)
            assert len(result.points) >= 1
            for y in result.points:
                assert shift(space, y) == x
                assert is_admissible(space, y)


def test_canonical_lift(ex21, even):
    for space, text in ((ex21, "(b)* a ; 2 (2 3)*"), (even, "(c)* b ; 1 0 0 (1 1)*")):
        x = parse_point(text)
        lift = canonical_lift(space, x)
        assert lift == canonical_lift(space, x)
        n = space.n
        for j in range(1, 7):
            assert space.tm(lift.window(-j, n)) == x.letter(-j)
        for i in range(6):
            assert lift.letter(i) == x.letter(i)


def test_graph_cache_does_not_keep_spaces():
    space = full_space(
        Alphabet(["a", "b"]),
        Alphabet(["1", "2"]),
        TransitionMap(1, {("1",): "a", ("2",): "b"}),
    )
    assert preimages(space, parse_point("(a)* ; (1)*")).points
    ref = weakref.ref(space)
    del space
    gc.collect()
    assert ref() is None

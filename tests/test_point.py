from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipshift import (
    EpPoint,
    InvalidWord,
    format_point,
    is_admissible,
    metrics,
    parse_point,
    random_point,
    shift,
    shift_k,
)


def test_parse_format_round_trip():
    for text in (
        "(b)* ; (2 3)*",
        "(a b)* b ; 3 1 2 2 (2 3)*",
        "(a)* ; 0' (1 1')*",
        "(c b b)* a ; (0)*",
    ):
        x = parse_point(text)
        assert format_point(x) == text
        assert parse_point(format_point(x)) == x


def test_parse_rejects_malformed():
    for text in ("", ";", "(a)*", "(a)* ; ", "a ; (1)*", "(a)* ; 1", "() ; (1)*"):
        with pytest.raises(InvalidWord):
            parse_point(text)


def test_constructor_refuses_an_empty_period():
    with pytest.raises(InvalidWord) as exc:
        EpPoint((), (), (), ("1",))
    assert str(exc.value) == "periods must be non-empty"


def test_canonical_junction_absorption():
    # the same left-infinite sequence spelled with a redundant transient
    assert parse_point("(b a)* b a b b ; (1)*") == parse_point("(a b)* b ; (1)*")
    assert parse_point("(b a)* b a b ; (1)*") == parse_point("(a b)* ; (1)*")
    # and on the right, a transient that is a phase of the period
    assert parse_point("(b)* ; 2 3 (2 3)*") == parse_point("(b)* ; (2 3)*")


def test_canonical_primitive_period():
    assert parse_point("(b b)* ; (2 3 2 3)*") == parse_point("(b)* ; (2 3)*")
    assert parse_point("(a b a b)* ; (1)*") == parse_point("(a b)* ; (1)*")


def test_letter_and_window_indexing():
    x = parse_point("(b)* a ; 1 (2 3)*")
    assert [x.letter(i) for i in range(-3, 4)] == ["b", "b", "a", "1", "2", "3", "2"]
    assert x.window(-1, 2) == ("a", "1")
    assert x.window(0, 3) == ("1", "2", "3")
    assert x.window(-4, 2) == ("b", "b")


def test_shift_periodic_example(ex21):
    x = parse_point("(b a)* ; (2 3)*")
    assert format_point(shift(ex21, x)) == "(a b)* ; (3 2)*"


def test_shift_fixed_point(ex21):
    x = parse_point("(b)* ; (2)*")
    assert shift(ex21, x) == x


def test_shift_k_transient(ex21):
    x = parse_point("(b a)* b a b ; 3 1 2 2 (2 3)*")
    assert format_point(shift_k(ex21, x, 1)) == "(a b)* b ; 1 2 2 (2 3)*"
    assert format_point(shift_k(ex21, x, 2)) == "(a b)* b a ; 2 2 (2 3)*"
    assert shift_k(ex21, x, 0) == x
    assert shift_k(ex21, x, 3) == shift(ex21, shift(ex21, shift(ex21, x)))
    with pytest.raises(InvalidWord):
        shift_k(ex21, x, -1)


def test_shift_window_two(even):
    # with a length-2 window the new left letter reads both x0 and x1
    x = parse_point("(a)* ; 1 0 0 (1)*")
    y = shift(even, x)
    assert y.letter(-1) == "b"
    assert format_point(y) == "(a)* b ; 0 0 (1)*"


def test_metric_values():
    s = parse_point("(b)* ; (2 3)*")
    assert metrics(s, s) == metrics(s, s)
    r = metrics(s, s)
    assert (r.d, r.d_plus, r.d_minus, r.d_pm) == (0, 0, 0, 0)
    r = metrics(s, parse_point("(b)* ; (3 2)*"))
    assert (r.d, r.d_plus, r.d_minus, r.d_pm) == (1, 1, 0, Fraction(1, 2))
    r = metrics(s, parse_point("(b)* ; 2 (2 3)*"))
    assert (r.d, r.d_plus, r.d_minus, r.d_pm) == (
        Fraction(1, 2),
        Fraction(1, 2),
        0,
        Fraction(1, 4),
    )
    s2 = parse_point("(b)* a ; 2 2 2 (2 3)*")
    t2 = parse_point("(b)* ; 2 2 2 (3 2)*")
    r = metrics(s2, t2)
    assert (r.d, r.d_plus, r.d_minus, r.d_pm) == (
        Fraction(1, 2),
        Fraction(1, 8),
        1,
        Fraction(9, 16),
    )


def test_metric_axioms(sigma_f):
    rng = random.Random(11)
    pts = [random_point(sigma_f, rng) for _ in range(30)]
    for s in pts[:10]:
        for t in pts[:10]:
            r = metrics(s, t)
            assert r == metrics(t, s)
            assert (r.d == 0) == (s == t)
            assert r.d_pm == (r.d_plus + r.d_minus) / 2
    for s, t, u in zip(pts, pts[10:], pts[20:]):
        assert metrics(s, u).d <= max(metrics(s, t).d, metrics(t, u).d)


def test_is_admissible(ex21):
    assert is_admissible(ex21, parse_point("(b)* ; (2 3)*"))
    rep = is_admissible(ex21, parse_point("(b)* ; 3 3 (2 3)*"))
    assert not rep and "3 3" in rep.reason
    rep = is_admissible(ex21, parse_point("(a b)* ; 3 1 2 2 (2 3)*"))
    assert not rep and "lift" in rep.reason
    rep = is_admissible(ex21, parse_point("(x)* ; (2)*"))
    assert not rep and "not in A" in rep.reason
    rep = is_admissible(ex21, parse_point("(b)* ; (9)*"))
    assert not rep and "not in A'" in rep.reason


def test_is_admissible_even(even):
    assert is_admissible(even, parse_point("(c)* b ; 1 0 0 (1 1)*"))
    assert is_admissible(even, parse_point("(c)* ; (0)*"))
    assert not is_admissible(even, parse_point("(c)* ; 1 0 (1)*"))
    # c a forces a zero pair overlapping a one pair in any lift
    assert not is_admissible(even, parse_point("(b c)* c a ; (1)*"))
    # every width-2 window is admissible; only the walk check refuses it
    rep = is_admissible(even, parse_point("(a)* ; (1 0)*"))
    assert (rep.ok, rep.reason) == (False, "right tail is not realizable by any walk")


def test_random_point_deterministic(ex21, even, sigma_g):
    for space in (ex21, even, sigma_g):
        assert random_point(space, random.Random(3)) == random_point(
            space, random.Random(3)
        )
        for seed in range(10):
            assert is_admissible(space, random_point(space, random.Random(seed)))


# Draws of random_point for seeds 0-4, recorded from an earlier implementation
# of the A'-side: a change to the A'-graph or to its random walks that alters
# which sequence a seed draws shows here.
PINNED_DRAWS = {
    "ex21": (
        "(b)* ; (2 3 1)*",
        "(b)* ; (1 2 3)*",
        "(b)* ; (1 2 2 3)*",
        "(b)* ; 1 (2 3 2)*",
        "(a b b)* ; 1 (2 2 3)*",
    ),
    "five": (
        "(c b b)* ; (4 5 2)*",
        "(b c a b c c)* ; 2 1 3 1 (5)*",
        "(c)* b a b ; 1 1 1 (3 2 4)*",
        "(b c c c)* ; 2 3 3 4 (1)*",
        "(a)* b ; 2 4 1 (5)*",
    ),
    "even": (
        "(c)* ; (0 1 0)*",
        "(c)* b ; 1 (0)*",
        "(a b c b)* ; (1 1 0 0)*",
        "(b c b a)* ; (1 0 0 1)*",
        "(a)* b ; (0)*",
    ),
    "sigma_f": (
        "(a b)* ; (4 4 1 3)*",
        "(a b b b)* ; 2 1 3 1 (4)*",
        "(b a)* ; 1 1 1 (3 2)*",
        "(b b a b)* ; 2 2 3 4 (1)*",
        "(a)* b ; 2 3 1 (4)*",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DRAWS))
def test_random_point_pinned(name, request):
    space = request.getfixturevalue(name)
    got = tuple(format_point(random_point(space, random.Random(s))) for s in range(5))
    assert got == PINNED_DRAWS[name]


letters = st.sampled_from(["a", "b", "0", "1", "0'"])
words = st.lists(letters, min_size=1, max_size=4).map(tuple)
maybe_words = st.lists(letters, min_size=0, max_size=4).map(tuple)


@settings(max_examples=200, deadline=None)
@given(words, maybe_words, maybe_words, words)
def test_canonical_round_trip(lp, lt, rt, rp):
    x = EpPoint(lp, lt, rt, rp)
    assert parse_point(format_point(x)) == x
    # re-canonicalizing the stored representation is a no-op
    assert EpPoint(x.left_period, x.left_transient, x.right_transient, x.right_period) == x


@settings(max_examples=200, deadline=None)
@given(words, maybe_words, maybe_words, words)
def test_canonical_preserves_sequence(lp, lt, rt, rp):
    x = EpPoint(lp, lt, rt, rp)
    seq_left = [lt[-j] if j <= len(lt) else lp[-1 - (j - len(lt) - 1) % len(lp)] for j in range(1, 9)]
    assert [x.letter(-j) for j in range(1, 9)] == seq_left
    seq_right = [rt[i] if i < len(rt) else rp[(i - len(rt)) % len(rp)] for i in range(8)]
    assert [x.letter(i) for i in range(8)] == seq_right


@settings(max_examples=200, deadline=None)
@given(words, maybe_words, maybe_words, words)
def test_unchecked_construction_matches_public(lp, lt, rt, rp):
    """The constructor for letters already known to be symbols gives the
    point, fields and hash that the checking constructor gives."""
    x = EpPoint._of_symbols(lp, lt, rt, rp)
    y = EpPoint(lp, lt, rt, rp)
    assert x == y and hash(x) == hash(y)
    assert (x.left_period, x.left_transient, x.right_transient, x.right_period) == (
        y.left_period,
        y.left_transient,
        y.right_transient,
        y.right_period,
    )

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_a_side import spaces

from zipshift import (
    Alphabet,
    HomoclinicOrbit,
    InvalidWord,
    NotInSpace,
    TransitionMap,
    format_point,
    heteroclinic_check,
    homoclinic_datum,
    homoclinic_orbits,
    is_admissible,
    letter_preimage_sum,
    orbit_points,
    parse_point,
    periodic_point,
    periodic_points,
    pre_periodic_points,
    preimages,
    preimages_k,
    shift,
    sofic_space,
    stable_unstable_membership,
)


def test_periodic_point_ex21(ex21):
    p = periodic_point(ex21, ("2",))
    assert p.period == 1
    assert format_point(p.point) == "(b)* ; (2)*"
    assert format_point(periodic_point(ex21, ("2", "3")).point) == "(b)* ; (2 3)*"
    assert format_point(periodic_point(ex21, ("3", "2")).point) == "(b)* ; (3 2)*"
    for bad in (("1",), ("3",), ("1", "3"), ("2", "1")):
        with pytest.raises(InvalidWord):
            periodic_point(ex21, bad)


def test_periodic_point_even(even):
    assert format_point(periodic_point(even, ("0",)).point) == "(c)* ; (0)*"
    assert format_point(periodic_point(even, ("1",)).point) == "(a)* ; (1)*"
    assert (
        format_point(periodic_point(even, ("1", "0", "0")).point)
        == "(b c b)* ; (1 0 0)*"
    )
    # a repeated word spells the same point
    assert periodic_point(even, ("0", "0")).point == periodic_point(even, ("0",)).point
    # 01 is admissible in every window yet labels no closed walk
    for bad in (("0", "1"), ("1", "0")):
        with pytest.raises(InvalidWord):
            periodic_point(even, bad)


def test_periodic_point_needs_a_closed_walk():
    """0 0 0 0 is a word here, yet 0 repeated is no point: the 0-edges form
    a path, not a cycle, so no fixed number of reads of a cycle word
    decides it."""
    space = sofic_space(
        Alphabet(["a"]),
        Alphabet(["0", "1"]),
        TransitionMap(1, {("0",): "a", ("1",): "a"}),
        ["P", "Q", "R", "S", "T"],
        [("P", "P", "1"), ("P", "Q", "0"), ("Q", "R", "0"), ("R", "S", "0"), ("S", "T", "0"), ("T", "T", "1")],
    )
    assert space.admissible_word(("0",) * 4)
    with pytest.raises(InvalidWord):
        periodic_point(space, ("0",))
    assert {p.word for p in periodic_points(space, 2)} == {("1", "1")}


def test_periodic_points_counts(ex21, sigma_f, classical, five):
    for space in (ex21, sigma_f, classical, five):
        for m in range(1, 6):
            assert len(periodic_points(space, m)) == space.count_periodic(m)
    assert {p.word for p in periodic_points(ex21, 2)} == {
        ("2", "2"),
        ("2", "3"),
        ("3", "2"),
    }


def test_periodic_points_even_listed(even):
    """Sofic spaces list their periodic points too: in the even shift a
    cycle word is a point exactly when its 0-runs, read cyclically, are
    even."""
    got = {p.word: format_point(p.point) for p in periodic_points(even, 3)}
    assert sorted(got) == [("0", "0", "0"), ("0", "0", "1"), ("0", "1", "0"), ("1", "0", "0"), ("1", "1", "1")]
    assert got[("1", "0", "0")] == "(b c b)* ; (1 0 0)*"
    assert got[("0", "0", "0")] == "(c)* ; (0)*"


def test_periodic_points_keep_no_word_lists():
    """Listing walks the m-words without keeping them: with its result
    dropped, periodic_points leaves the space holding less memory than a
    kept list of its m-words would take.  A full collection empties the
    interpreter's free lists, whose dropped tuples tracemalloc still counts."""
    space = sofic_space(
        Alphabet(["a", "b", "c"]),
        Alphabet(["0", "1"]),
        TransitionMap(2, {("1", "1"): "a", ("1", "0"): "b", ("0", "1"): "b", ("0", "0"): "c"}),
        ["P", "Q", "R"],
        [("P", "P", "1"), ("P", "Q", "0"), ("Q", "R", "0"), ("R", "P", "0"), ("R", "R", "1")],
    )
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        periodic_points(space, 7)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    words = space.language(7)
    assert held < sys.getsizeof(words) + sum(map(sys.getsizeof, words))
    got = {p.word for p in periodic_points(space, 7)}
    assert got == {w for w in space.language(7) if space._spells(w)}
    assert len(got) > 10


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spaces(), st.data())
def test_spells_matches_a_bounded_word(space, data):
    """``left`` repeated to the left, ``middle``, then ``right`` repeated to
    the right is spelled exactly when K copies of each around ``middle``
    form an admissible word, for K one more than the A'-graph's vertex
    count: a walk spelling K copies ends two copies at one vertex, so it
    closes a loop that repeats forever."""
    word = st.lists(st.sampled_from(space.alphabet_aprime.symbols), max_size=3).map(tuple)
    left, right = data.draw(word.filter(bool)), data.draw(word.filter(bool))
    middle = data.draw(word)
    k = len(space._step) + 1
    assert space._spells(left, middle, right) == space.admissible_word(left * k + middle + right * k)
    assert space._spells(left) == space.admissible_word(left * (2 * k))


def test_orbit_points(ex21):
    p = periodic_point(ex21, ("2", "3"))
    orb = orbit_points(ex21, p)
    assert len(orb) == 2
    assert orb[0] == p.point
    assert shift(ex21, orb[0]) == orb[1]
    assert shift(ex21, orb[1]) == orb[0]


def test_pre_periodic_points(ex21, sigma_f, sigma_g, classical):
    p = periodic_point(sigma_f, ("1",))
    got = pre_periodic_points(sigma_f, p, 1)
    assert {format_point(q) for q in got} == {"(a)* ; 3 (1)*"}
    assert len(pre_periodic_points(sigma_g, periodic_point(sigma_g, ("1",)), 1)) == 3
    assert pre_periodic_points(classical, periodic_point(classical, ("0",)), 2) == set()
    p2 = periodic_point(ex21, ("2",))
    assert {format_point(q) for q in pre_periodic_points(ex21, p2, 1)} == {
        "(b)* ; 3 (2)*"
    }
    assert {format_point(q) for q in pre_periodic_points(ex21, p2, 2)} == {
        "(b)* ; 3 (2)*",
        "(b)* ; 2 3 (2)*",
    }


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda s: periodic_point(s, ()), InvalidWord, "period word must be non-empty"),
        (lambda s: periodic_points(s, 0), InvalidWord, "period must be >= 1, got 0"),
        (
            lambda s: pre_periodic_points(s, periodic_point(s, ("2", "3")), 0),
            InvalidWord,
            "level must be >= 1, got 0",
        ),
        (
            lambda s: homoclinic_datum(s, periodic_point(s, ("2", "3")), periodic_point(s, ("2", "3")).point),
            NotInSpace,
            "the point lies on the periodic orbit itself",
        ),
        # Its left tail (b)* is the orbit's, but its right tail (3 2 2)* never joins (2 3)*.
        (
            lambda s: homoclinic_datum(s, periodic_point(s, ("2", "3")), parse_point("(b)* ; 2 (3 2 2)*")),
            NotInSpace,
            "the point is not doubly asymptotic to the orbit",
        ),
    ],
    ids=["empty-word", "period-zero", "level-zero", "on-orbit", "not-doubly-asymptotic"],
)
def test_orbit_refusals(ex21, call, error, message):
    with pytest.raises(error) as exc:
        call(ex21)
    assert type(exc.value) is error and str(exc.value) == message


def _assert_orbit_points_have_no_transients(space):
    for m in range(1, 5):
        for p in periodic_points(space, m):
            for r in orbit_points(space, p):
                assert not r.left_transient and not r.right_transient, (p.word, format_point(r))


@pytest.mark.parametrize(
    "name", ["ex21", "f3", "classical", "sigma_f", "sigma_g", "even", "five", "coding1", "coding2"]
)
def test_orbit_points_have_no_transients(request, name):
    """Orbit points repeat on both sides from the seam out, which is what lets
    the tail flags take a merge index straight from the other point's
    transient."""
    _assert_orbit_points_have_no_transients(request.getfixturevalue(name))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spaces())
def test_drawn_orbit_points_have_no_transients(space):
    _assert_orbit_points_have_no_transients(space)


def test_orbit_tools_run_no_classification(ex21, coding2, sigma_f, monkeypatch):
    """Pre-periodic points, homoclinic orbits and iterated pre-images read
    only the pre-image branch letters, never the path-search classification."""

    def no_classify(*args):
        raise AssertionError("the pre-image classification ran")

    monkeypatch.setattr("zipshift.preimage._classify", no_classify)
    p2 = periodic_point(ex21, ("2",))
    assert {format_point(q) for q in pre_periodic_points(ex21, p2, 2)} == {
        "(b)* ; 3 (2)*",
        "(b)* ; 2 3 (2)*",
    }
    p = periodic_point(coding2, ("0", "1'"))
    datum = homoclinic_datum(coding2, p, parse_point("(a b)* b a ; 1 (0 1')*"))
    assert [o.choices for o in homoclinic_orbits(coding2, datum)] == [
        ("0", "1"),
        ("0", "1'"),
        ("0'", "1"),
        ("0'", "1'"),
    ]
    assert len(preimages_k(sigma_f, parse_point("(a)* ; (1)*"), 3)) == 8


def test_stable_unstable_membership(coding2):
    p = periodic_point(coding2, ("0", "1'"))
    h = parse_point("(a b)* b a ; 1 (0 1')*")
    rep = stable_unstable_membership(coding2, p, h)
    assert rep.s_global.holds and rep.s_global.merge == 1 and rep.s_global.phase == 1
    assert rep.u_global.holds and rep.u_global.merge == 2 and rep.u_global.phase == 0
    assert not rep.s_special.holds
    assert not rep.u_special.holds
    # the periodic point itself sits in all four of its sets
    rep = stable_unstable_membership(coding2, p, shift(coding2, p.point))
    assert rep.s_global.holds and rep.u_global.holds


def test_heteroclinic_check(sigma_f):
    p = periodic_point(sigma_f, ("1",))
    q = periodic_point(sigma_f, ("2",))
    assert heteroclinic_check(sigma_f, p, q, parse_point("(b)* ; (1)*"))
    assert not heteroclinic_check(sigma_f, p, q, parse_point("(b)* ; 3 (1)*"))
    assert not heteroclinic_check(sigma_f, q, p, parse_point("(b)* ; (1)*"))
    with pytest.raises(InvalidWord):
        heteroclinic_check(sigma_f, p, p, parse_point("(b)* ; (1)*"))


def test_homoclinic_example(coding2):
    p = periodic_point(coding2, ("0", "1'"))
    h = parse_point("(a b)* b a ; 1 (0 1')*")
    datum = homoclinic_datum(coding2, p, h)
    assert (datum.k_back, datum.n_back, datum.k_fwd, datum.n_fwd) == (0, 3, 1, 1)
    orbs = homoclinic_orbits(coding2, datum)
    assert [o.choices for o in orbs] == [
        ("0", "1"),
        ("0", "1'"),
        ("0'", "1"),
        ("0'", "1'"),
    ]
    level1 = {format_point(o.point(coding2, -1)) for o in orbs}
    assert level1 == {"(a b)* b ; 0 1 (0 1')*", "(a b)* b ; 0' 1 (0 1')*"}
    level2 = [format_point(o.point(coding2, -2)) for o in orbs]
    assert level2 == [
        "(a b)* ; 1 0 1 (0 1')*",
        "(a b)* ; 1' 0 1 (0 1')*",
        "(a b)* ; 1 0' 1 (0 1')*",
        "(a b)* ; 1' 0' 1 (0 1')*",
    ]
    assert orbs[0].point(coding2, 0) == h
    assert orbs[0].point(coding2, 2) == parse_point("(a b)* b a b a ; (1' 0)*")
    assert letter_preimage_sum(coding2, datum) == 4


def test_homoclinic_shift_consistency(coding2):
    p = periodic_point(coding2, ("0", "1'"))
    datum = homoclinic_datum(coding2, p, parse_point("(a b)* b a ; 1 (0 1')*"))
    o = homoclinic_orbits(coding2, datum)[0]
    for i in range(-5, 3):
        assert shift(coding2, o.point(coding2, i)) == o.point(coding2, i + 1)


def test_homoclinic_orbit_follows_another_phase(ex21):
    """The datum anchors the left tail at (b)* ; (2 3)*, whose lift forces
    3 at depth 1 and so the forbidden 3 3; the orbit follows the lift of
    (b)* ; (3 2)*, which shares that left tail, instead."""
    p = periodic_point(ex21, ("2", "3"))
    datum = homoclinic_datum(ex21, p, parse_point("(b)* ; 3 2 (2 3)*"))
    assert (datum.k_back, datum.n_back) == (0, 1)
    (o,) = homoclinic_orbits(ex21, datum)
    assert o.choices == ()
    assert format_point(o.point(ex21, -1)) == "(b)* ; 2 3 2 (2 3)*"
    for i in range(-6, 1):
        assert shift(ex21, o.point(ex21, i - 1)) == o.point(ex21, i)


def test_homoclinic_forced_tail_that_dies(five):
    """(c b)* ; 5 (3 4)* shares its left tail with (c b)* ; (4 3)*, whose
    lift puts 3 before the 5, and five forbids 3 5: no orbit goes through
    the point, and asking a hand-built one for that entry says so."""
    p = periodic_point(five, ("3", "4"))
    datum = homoclinic_datum(five, p, parse_point("(c b)* ; 5 (3 4)*"))
    assert homoclinic_orbits(five, datum) == ()
    with pytest.raises(NotInSpace):
        HomoclinicOrbit(datum, ()).point(five, -1)


def test_hand_built_orbit_gives_the_listed_entries(coding2):
    """An orbit built by hand from a listed orbit's choice words equals it
    and gives the same seven entries past the choices."""
    p = periodic_point(coding2, ("0", "1'"))
    datum = homoclinic_datum(coding2, p, parse_point("(a b)* b a ; 1 (0 1')*"))
    listed = homoclinic_orbits(coding2, datum)[0]
    by_hand = HomoclinicOrbit(datum, listed.choices)
    assert by_hand == listed and len(listed.choices) == 2
    entries = range(-3, -10, -1)
    assert [listed.point(coding2, i) for i in entries] == [by_hand.point(coding2, i) for i in entries]


def _takes_forced(space, leaf, depth, w, steps=40):
    """Can leaf take ``steps`` letters of w's lift (w[-s mod len(w)] at
    depth s, from ``depth`` on) as pre-images, asked through ``preimages``?"""
    for s in range(depth, depth + steps):
        wanted = [y for y in preimages(space, leaf, d_max=1).points if y.letter(0) == w[-s % len(w)]]
        if not wanted:
            return False
        (leaf,) = wanted
    return True


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spaces())
def test_homoclinic_orbits_match_forced_prefixes(space):
    """On finite-type and sofic spaces, where a forced tail can die, the
    orbits returned are exactly the choice words whose branch takes 40
    forced letters of some orbit point sharing the datum's left tail from
    depth n_back on; each orbit's entries are admissible and shift onto
    each other."""
    for m in (1, 2):
        for p in sorted(periodic_points(space, m), key=lambda q: q.word)[:3]:
            orbit = orbit_points(space, p)
            for h in sorted(pre_periodic_points(space, p, 1), key=format_point)[:3]:
                try:
                    datum = homoclinic_datum(space, p, h)
                except NotInSpace:
                    continue
                deep = range(datum.n_back, datum.n_back + 40)
                words = [r.right_period for r in orbit if all(r.letter(-s) == h.letter(-s) for s in deep)]
                leaves = [((), h)]
                for _ in range(1, datum.n_back):
                    leaves = [
                        (cs + (y.letter(0),), y) for cs, x in leaves for y in preimages(space, x, d_max=1).points
                    ]
                want = {
                    cs for cs, leaf in leaves if any(_takes_forced(space, leaf, datum.n_back, w) for w in words)
                }
                orbits = homoclinic_orbits(space, datum)
                assert {o.choices for o in orbits} == want
                for o in orbits:
                    for i in range(-6, 1):
                        assert is_admissible(space, o.point(space, i))
                        assert shift(space, o.point(space, i - 1)) == o.point(space, i)


def test_homoclinic_full_branching(sigma_f):
    p = periodic_point(sigma_f, ("1",))
    h = parse_point("(a)* b b b ; (1)*")
    datum = homoclinic_datum(sigma_f, p, h)
    assert (datum.k_back, datum.n_back, datum.k_fwd, datum.n_fwd) == (0, 4, 0, 0)
    orbs = homoclinic_orbits(sigma_f, datum)
    assert len(orbs) == 8
    assert sorted(o.choices for o in orbs) == [
        ("2", "2", "2"),
        ("2", "2", "4"),
        ("2", "4", "2"),
        ("2", "4", "4"),
        ("4", "2", "2"),
        ("4", "2", "4"),
        ("4", "4", "2"),
        ("4", "4", "4"),
    ]
    assert letter_preimage_sum(sigma_f, datum) == 6


def test_homoclinic_invertible_unique(classical):
    p = periodic_point(classical, ("0",))
    h = parse_point("(0)* 1 ; 1 (0)*")
    datum = homoclinic_datum(classical, p, h)
    orbs = homoclinic_orbits(classical, datum)
    assert len(orbs) == 1
    assert format_point(orbs[0].point(classical, -2)) == "(0)* ; 0 1 1 (0)*"

from __future__ import annotations

import copy
import gc
import pickle
import random
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import oracle_preimages
from test_a_side import spaces
from zipshift import (
    AdmissibilityReport,
    Alphabet,
    EpPoint,
    InvalidWord,
    NotInSpace,
    TransitionMap,
    canonical_lift,
    format_point,
    full_space,
    is_admissible,
    parse_point,
    point_from_lift,
    preimages,
    preimages_k,
    random_point,
    shift,
)
from zipshift import preimage
from zipshift.cli import space_from_dict, space_to_dict
from zipshift.graph import LabeledGraph
from zipshift.preimage import _Label, _window_failure, labeled_graph_for


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


def test_exact_says_whether_the_walk_decided_within_the_bound(even):
    """The walk at (c)* ; (0)* meets a repeated state at depth 3, so the
    branching answer holds at every depth; with the bound at 1 it does not
    get there.  The flag is neither compared nor printed."""
    x = parse_point("(c)* ; (0)*")
    decided = preimages(even, x, d_max=32).classification
    cut = preimages(even, x, d_max=1).classification
    assert (decided.kind, decided.exact) == ("branching", True)
    assert (cut.kind, cut.exact) == ("branching", False)
    assert "exact" not in repr(decided)
    assert decided == preimages(even, x, d_max=32).classification
    assert preimages(even, parse_point("(a)* ; (1)*")).classification.exact


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


def test_search_bound_below_one_refused(sigma_f):
    x = parse_point("(a)* ; (1)*")
    for d_max in (0, -3):
        with pytest.raises(InvalidWord, match=f"search bound must be >= 1, got {d_max}"):
            preimages(sigma_f, x, d_max)
    assert preimages(sigma_f, x, 1).classification.searched_to == 1


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
    def make():
        return full_space(
            Alphabet(["a", "b"]),
            Alphabet(["1", "2"]),
            TransitionMap(1, {("1",): "a", ("2",): "b"}),
        )

    space = make()
    x = parse_point("(a)* ; (1)*")
    assert preimages(space, x).points
    # A result kept with its witness paths unread holds their replay, which
    # must not hold the space.  It holds the space's graph until the paths
    # are read, and no longer.
    kept = preimages(space, x)
    assert isinstance(vars(kept.classification)["_witness_paths"], preimage._Witnesses)
    ref = weakref.ref(space)
    graph_ref = weakref.ref(preimage.labeled_graph_for(space))
    del space
    gc.collect()
    assert ref() is None
    assert graph_ref() is not None
    paths = kept.classification.witness_paths
    gc.collect()
    assert graph_ref() is None
    assert paths == preimages(make(), x).classification.witness_paths


def test_pickled_answer_carries_its_paths_not_their_replay(f3):
    for clone in (lambda c: pickle.loads(pickle.dumps(c)), copy.copy):
        c = preimages(f3, parse_point("(a b)* ; (1)*")).classification
        got = clone(c)
        assert not isinstance(vars(got)["_witness_paths"], preimage._Witnesses)
        assert (got, got.exact) == (c, c.exact)
        assert got.witness_paths == (("2", (("1",), ("2",), ("1",))), ("3", (("1",), ("3",), ("1",))))


@pytest.mark.parametrize("name", ["ex21", "even", "five", "f3", "coding2"])
def test_one_position_zero_scan_per_right_tail(name, request, monkeypatch):
    """Membership, pre-images and the lift of one point look up its
    position-0 window once between them: the vertices are kept on the right
    label the three queries share."""
    space = space_from_dict(space_to_dict(request.getfixturevalue(name)))
    x = random_point(space, random.Random(5))
    calls = []
    lookup = LabeledGraph.ids_with_label

    def counted(g, label):
        calls.append(label)
        return lookup(g, label)

    monkeypatch.setattr(LabeledGraph, "ids_with_label", counted)
    assert is_admissible(space, x).ok
    assert preimages(space, x).points
    canonical_lift(space, x)
    assert len(calls) == 1


def window_first_admissibility(space, x) -> AdmissibilityReport:
    """Membership in the order it was decided before the exact check went
    first: the letter and window scan, then the lift, every trim built
    afresh."""
    failure = _window_failure(space, x)
    if failure is not None:
        return failure
    g = labeled_graph_for(space)
    ell = len(g.labels[0])
    right = _Label(g.rightward, x.right_transient, x.right_period)
    starts = {v for v in g.ids_with_label(x.window(0, ell)) if right.viable(v, ell)}
    if not starts:
        return AdmissibilityReport(False, "right tail is not realizable by any walk")
    left = _Label(g.leftward, tuple(reversed(x.left_transient)), tuple(reversed(x.left_period)))
    if not any(left.viable(v, 0) for v in starts):
        return AdmissibilityReport(False, "left label is not liftable")
    return AdmissibilityReport(True, None)


@st.composite
def points_near(draw, space):
    """A point of the space or an eventually periodic sequence over both
    alphabets, then maybe one letter replaced by a letter of A, of A' or of
    neither."""
    a, ap = space.alphabet_a.symbols, space.alphabet_aprime.symbols
    if draw(st.booleans()):
        x = random_point(space, random.Random(draw(st.integers(0, 2**32 - 1))))
        parts = [x.left_period, x.left_transient, x.right_transient, x.right_period]
    else:
        def word(alphabet, least):
            return draw(st.lists(st.sampled_from(alphabet), min_size=least, max_size=3).map(tuple))

        parts = [word(a, 1), word(a, 0), word(ap, 0), word(ap, 1)]
    if draw(st.booleans()):
        i = draw(st.sampled_from([j for j, w in enumerate(parts) if w]))
        k = draw(st.integers(0, len(parts[i]) - 1))
        c = draw(st.sampled_from(a + ap + ("z",)))
        parts[i] = parts[i][:k] + (c,) + parts[i][k + 1 :]
    return EpPoint(*parts)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spaces(), st.data())
def test_exact_check_first_keeps_the_window_first_reports(space, data):
    """A refused point's report still names the first letter or window that
    fails, and the exact check accepts exactly what the scan-first order did."""
    for x in data.draw(st.lists(points_near(space), min_size=1, max_size=8)):
        assert is_admissible(space, x) == window_first_admissibility(space, x)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spaces(), st.integers(0, 2**32 - 1))
def test_preimages_and_lift_match_oracles(space, seed):
    """Pre-images, once and twice over, against the depth-12 oracle of
    acceptance criterion 9, and the canonical lift against the point it lifts."""
    rng = random.Random(seed)
    for _ in range(2):
        x = random_point(space, rng)
        assert set(preimages(space, x).points) == oracle_preimages(space, x)
        twice = {z for y in oracle_preimages(space, x) for z in oracle_preimages(space, y)}
        assert preimages_k(space, x, 2) == twice
        assert point_from_lift(space, canonical_lift(space, x)) == x


def _ask(query, space, x):
    try:
        return query(space, x)
    except NotInSpace as exc:
        return f"NotInSpace: {exc}"


def test_label_memo_does_not_leak_between_points(ex21, even, five, f3):
    """Queries on one space that alternate between points sharing one side
    (a right tail with another left label, a left label with another right
    tail) answer as a fresh space does, and each walk keeps one label."""
    queries = (is_admissible, preimages, canonical_lift)
    for fixture in (ex21, even, five, f3):
        spec = space_to_dict(fixture)
        space = space_from_dict(spec)
        a, ap = space.alphabet_a.symbols, space.alphabet_aprime.symbols
        rng = random.Random(7)
        asked = set()
        for i in range(20):
            x = random_point(space, rng)
            lp, lt, rt, rp = x.left_period, x.left_transient, x.right_transient, x.right_period
            other_left = EpPoint(lp, lt + (rng.choice(a),), rt, rp)
            other_right = EpPoint(lp, lt, (rng.choice(ap),) + rt, rp)
            for j, p in enumerate((x, other_left, x, other_right)):
                for k in range(3):
                    query = queries[(i + j + k) % 3]
                    got = _ask(query, space, p)
                    assert got == _ask(query, space_from_dict(spec), p), (query.__name__, format_point(p))
                    asked.add((query.__name__, p))
        assert len(asked) >= 100
        g = labeled_graph_for(space)
        for walk in (g.leftward, g.rightward):
            assert isinstance(walk.last_label, _Label)

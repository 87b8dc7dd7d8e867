"""Acceptance gate: one test per release criterion, each timed against its
stated bound and printed as a single pass line (run with -s to see them)."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

from zipshift import (
    Alphabet,
    TransitionMap,
    build_labeled_graph,
    build_model,
    check_commutation,
    coding_space,
    format_point,
    higher_block,
    higher_power,
    homoclinic_datum,
    homoclinic_orbits,
    invert_code,
    parse_point,
    periodic_point,
    periodic_points,
    preimages,
    random_point,
    sft_space,
    shift,
    shift_k,
    stable_string,
    verify_conjugacy,
)
from oracles import oracle_preimages


def _finish(num: int, t0: float, bound: float, detail: str) -> None:
    dt = time.perf_counter() - t0
    print(f"PASS criterion {num}: {detail} ({dt:.2f}s, bound {bound:g}s)")
    assert dt < bound


@pytest.fixture(scope="module")
def golden():
    # two-step finite-type fixture: no adjacent 1s on the A'-side
    return sft_space(
        Alphabet(["b", "c"]),
        Alphabet(["0", "1"]),
        TransitionMap(2, {("1", "0"): "b", ("0", "1"): "b", ("0", "0"): "c"}),
        {("1", "1")},
    )


def test_criterion_01_stable_strings():
    t0 = time.perf_counter()
    model = build_model(2, Fraction(1, 2))
    chain = ["".join(w) for w in stable_string(model, "00")]
    assert chain == ["00", "10", "11", "01"]
    chain = ["".join(w) for w in stable_string(model, "10'1'")]
    assert chain == ["00'0'", "10'0'", "11'0'", "01'0'", "01'1'", "11'1'", "10'1'", "00'1'"]
    _finish(1, t0, 1, "both fold-connected chains byte-exact")


def test_criterion_02_periodic_counts(coding2):
    t0 = time.perf_counter()
    for m, expected in ((1, 4), (2, 16), (3, 64)):
        assert len(periodic_points(coding2, m)) == expected
        assert coding2.count_periodic(m) == expected
    _finish(2, t0, 5, "two-fold coding has (2N)^m period-m points for m<=3")


def test_criterion_03_preimage_cardinality(sigma_f, sigma_g):
    t0 = time.perf_counter()
    rng = random.Random(3)
    for space, expected in ((sigma_f, 2), (sigma_g, 4)):
        for _ in range(100):
            x = random_point(space, rng)
            assert len(preimages(space, x).points) == expected
    _finish(3, t0, 5, "2 branches on the 2-to-1 shift, 4 on the 4-to-1, 100 samples each")


def test_criterion_04_homoclinic_orbits(coding2):
    t0 = time.perf_counter()
    p = periodic_point(coding2, ("0", "1'"))
    h = parse_point("(a b)* b a ; 1 (0 1')*")
    orbits = homoclinic_orbits(coding2, homoclinic_datum(coding2, p, h))
    assert len(orbits) == 4
    assert all(orbit.point(coding2, 0) == h for orbit in orbits)
    level1 = {format_point(orbit.point(coding2, -1)) for orbit in orbits}
    assert level1 == {"(a b)* b ; 0 1 (0 1')*", "(a b)* b ; 0' 1 (0 1')*"}
    level2 = {format_point(orbit.point(coding2, -2)) for orbit in orbits}
    assert level2 == {
        "(a b)* ; 1 0 1 (0 1')*",
        "(a b)* ; 1' 0 1 (0 1')*",
        "(a b)* ; 1 0' 1 (0 1')*",
        "(a b)* ; 1' 0' 1 (0 1')*",
    }
    _finish(4, t0, 5, "4 orbits with the listed first- and second-level branch points")


def test_criterion_05_conjugacy():
    t0 = time.perf_counter()
    for n in (1, 2):
        model = build_model(n, Fraction(1, 2))
        report = verify_conjugacy(model, coding_space(model), 6, 200, rng=random.Random(n))
        assert report.samples == 200 and report.depth == 6
        assert report and not report.violations
    _finish(5, t0, 30, "depth-6 coding checks clean for 1 and 2 folds, 200 samples each")


def _brute_force_periodic_count(space, m):
    # independent of the transfer-matrix path: try every length-m word and
    # test the wrapped repetition letter by letter
    reps = 2 + (max(space.n, space.step_k + 1) + m - 1) // m
    count = 0
    for word in itertools.product(space.alphabet_aprime.symbols, repeat=m):
        if space.admissible_word(word * reps):
            count += 1
    return count


def test_criterion_06_trace_counting(ex21, classical, sigma_f, sigma_g, golden, coding1, coding2):
    t0 = time.perf_counter()
    fixtures = (ex21, classical, sigma_f, sigma_g, golden, coding1, coding2)
    for space in fixtures:
        assert len(space.alphabet_aprime.symbols) <= 4
        for m in range(1, 6):
            assert space.count_periodic(m) == _brute_force_periodic_count(space, m)
    _finish(6, t0, 10, f"trace counts match cycle enumeration on {len(fixtures)} fixtures, m<=5")


def _two_block_spec(space):
    from zipshift import BlockCodeSpec

    plus = {u: "".join(u) for u in space.language(2)}
    minus = {}
    for u in space.language(2):
        for a in space.alphabet_a:
            if space.mixed_admissible((a,), u):
                minus[(a,) + u] = a + space.tm(u[: space.n])
    target_a = Alphabet(sorted(set(minus.values())))
    target_aprime = Alphabet(["".join(u) for u in space.language(2)])
    return BlockCodeSpec(space, target_a, target_aprime, 1, plus, minus, window=2)


def _projection_spec(sigma_f):
    from zipshift import BlockCodeSpec

    plus = {("1",): "1", ("2",): "2", ("3",): "1", ("4",): "2"}
    minus = {(a, w): a for a in ("a", "b") for w in ("1", "2", "3", "4")}
    return BlockCodeSpec(sigma_f, Alphabet(["a", "b"]), Alphabet(["1", "2"]), 1, plus, minus)


def _identity_spec(space):
    # arity-preserving recode: each letter maps to itself, m = source arity
    from zipshift import BlockCodeSpec

    plus = {(s,): s for s in space.alphabet_aprime}
    minus = {}
    for u in space.language(1):
        for a in space.alphabet_a:
            if space.mixed_admissible((a,), u):
                minus[(a,) + u] = a
    return BlockCodeSpec(
        space, space.alphabet_a, space.alphabet_aprime, space.n, plus, minus, window=1
    )


def test_criterion_07_commutation(ex21, even, classical, sigma_f, coding2):
    t0 = time.perf_counter()
    codes = [
        _projection_spec(sigma_f),
        _two_block_spec(ex21),
        _two_block_spec(classical),
        _two_block_spec(coding2),
        _identity_spec(even),
        invert_code(_two_block_spec(ex21)),
    ]
    for i, spec in enumerate(codes):
        assert spec, f"code {i} missing"
        assert check_commutation(spec, samples=200, rng=random.Random(i))
    corrupted = _two_block_spec(ex21)
    corrupted.psi_plus[("2", "3")] = "31"
    report = check_commutation(corrupted, samples=200, rng=random.Random(99))
    assert not report.ok and report.witness is not None
    _finish(7, t0, 30, f"{len(codes)} codes commute; corrupted table fails with a witness")


def test_criterion_08_higher_block_and_power(ex21, even, coding1):
    t0 = time.perf_counter()
    rng = random.Random(8)
    for space in (ex21, even, coding1):
        samples = {random_point(space, rng) for _ in range(100)}
        for N in (1, 2, 3):
            block, fwd, inv = higher_block(space, N)
            power, pfwd = higher_power(space, N)
            images = set()
            for x in samples:
                bx = fwd(x)
                assert inv(bx) == x
                assert fwd(shift(space, x)) == shift(block, bx)
                px = pfwd(x)
                images.add(px)
                assert pfwd(shift_k(space, x, N)) == shift(power, px)
            assert len(images) == len(samples)
    _finish(8, t0, 30, "block/power recodings round-trip and commute, N<=3, 100 points each")


def test_criterion_09_preimage_oracle(ex21, classical, sigma_f, sigma_g, even, five, golden, coding2):
    t0 = time.perf_counter()
    fixtures = (ex21, classical, sigma_f, sigma_g, even, five, golden, coding2)
    rng = random.Random(9)
    for space in fixtures:
        assert len(space.alphabet_aprime.symbols) <= 6
        for _ in range(100):
            x = random_point(space, rng)
            assert set(preimages(space, x).points) == oracle_preimages(space, x)
    _finish(9, t0, 60, f"branch sets equal the depth-12 oracle on {len(fixtures)} fixtures")


def test_criterion_10_even_shift(even):
    t0 = time.perf_counter()
    assert not even.admissible_word(("1", "0", "1"))
    assert even.admissible_word(("1", "0", "0", "1"))
    g = build_labeled_graph(even)
    by_label = {}
    for v, label in enumerate(g.labels):
        by_label.setdefault(label, []).append(v)
    (src,) = by_label[("0", "1")]
    (dst,) = by_label[("1", "1")]
    labels = [(first, sofic) for s, d, first, sofic in g.edges if (s, d) == (src, dst)]
    assert labels == [("1", "b")]
    _finish(10, t0, 1, "odd 0-run rejected, even accepted; 01->11 edge labeled 1/b")

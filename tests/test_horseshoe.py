from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zipshift import (
    Alphabet,
    BadLetter,
    EpPoint,
    EscapedSquare,
    GeometryError,
    HorseshoeModel,
    InvalidWord,
    ItineraryCode,
    TransitionMap,
    build_model,
    code_point,
    coding_space,
    count_point_preimages,
    decode,
    full_space,
    shift,
    stable_string,
    verify_conjugacy,
)
from zipshift.horseshoe import _overlapping_pairs

F = Fraction


def test_geometry_one_fold(model1):
    assert model1.delta == 3
    assert model1.delta_prime == F(1, 3)
    assert model1.letters == ("0", "1")
    assert model1.x_interval("0") == (0, F(1, 3))
    assert model1.x_interval("1") == (F(2, 3), 1)
    assert model1.h_interval("a") == (0, F(1, 3))
    assert model1.h_interval("b") == (F(2, 3), 1)


def test_geometry_two_fold(model2):
    assert model2.delta == F(9, 2)
    assert model2.delta_prime == F(4, 9)
    assert model2.letters == ("0", "1", "0'", "1'")
    assert model2.x_interval("0") == (0, F(2, 9))
    assert model2.x_interval("1") == (F(5, 18), F(1, 2))
    assert model2.x_interval("0'") == (F(1, 2), F(13, 18))
    assert model2.x_interval("1'") == (F(7, 9), 1)
    assert model2.h_interval("a") == (0, F(4, 9))
    assert model2.h_interval("b") == (F(5, 9), 1)
    assert [model2.fold_of(c) for c in model2.letters] == [1, 1, 2, 2]
    assert [model2.branch_type(c) for c in model2.letters] == [0, 1, 0, 1]


def test_geometry_rejections():
    with pytest.raises(GeometryError):
        build_model(0)
    with pytest.raises(GeometryError):
        build_model(2, Fraction(0))
    assert build_model(3, F(1, 3)).letters == (
        "0_1",
        "1_1",
        "0_2",
        "1_2",
        "0_3",
        "1_3",
    )


def test_strip_membership_boundaries(model2):
    # strips are closed on the left, open on the right, except the last
    assert model2.letter_at((F(0), F(0))) == "0"
    assert model2.letter_at((F(2, 9), F(0))) is None
    assert model2.letter_at((F(1, 2), F(0))) == "0'"
    assert model2.letter_at((F(1), F(0))) == "1'"
    assert model2.h_letter_at((F(0), F(1, 2))) is None


def test_apply_inverse_round_trip(model1, model2):
    rng = random.Random(13)
    for model in (model1, model2):
        for letter in model.letters:
            lo, hi = model.x_interval(letter)
            for _ in range(5):
                x = lo + (hi - lo) * F(rng.randrange(1, 16), 16)
                y = F(rng.randrange(0, 16), 16)
                p = (x, y)
                if model.letter_at(p) != letter:
                    continue
                c, q = model.apply(p)
                assert c == letter
                assert model.inverse(q, model.fold_of(c)) == p


def test_apply_two_cycle(model1):
    p = (F(3, 10), F(9, 10))
    c1, q = model1.apply(p)
    c2, r = model1.apply(q)
    assert (c1, c2) == ("0", "1")
    assert q == (F(9, 10), F(3, 10))
    assert r == p


def test_code_point(model1):
    assert str(code_point(model1, (F(0), F(0)), 4)) == "a a a a ; 0 0 0 0"
    assert str(code_point(model1, (F(3, 10), F(9, 10)), 4)) == "a b a b ; 0 1 0 1"
    with pytest.raises(EscapedSquare) as exc:
        code_point(model1, (F(1, 2), F(1, 2)), 3)
    assert exc.value.step == 0


def test_code_point_branch_choices(model2):
    # the fold chosen for a backward step moves the point, not its letters:
    # both folds land in strips with the same image letter
    p = (F(0), F(0))
    c1 = code_point(model2, p, 3, branch_choices=(1, 1))
    c2 = code_point(model2, p, 3, branch_choices=(2, 2))
    assert c1 == c2
    assert str(code_point(model2, p, 3)) == "a a a ; 0 0 0"


def test_decode(model1):
    assert decode(model1, ItineraryCode((), ("0",))) == (
        (F(0), F(1, 3)),
        (F(0), F(1)),
    )
    assert decode(model1, ItineraryCode(("a",), ("0",))) == (
        (F(0), F(1, 3)),
        (F(0), F(1, 3)),
    )
    (xlo, xhi), _ = decode(model1, ItineraryCode((), ("0", "1", "0")))
    assert xhi - xlo == F(1, 27)
    assert (xlo, xhi) == (F(8, 27), F(1, 3))


def test_count_point_preimages(model1, model2):
    assert count_point_preimages(model2, (F(1, 3), F(1, 5))) == 2
    assert count_point_preimages(model2, (F(1, 3), F(1, 2))) == 0
    assert count_point_preimages(model1, (F(1, 3), F(1, 5))) == 1


def test_coding_space(model2):
    space = coding_space(model2)
    assert space.kind == "full"
    assert space.alphabet_aprime.symbols == ("0", "1", "0'", "1'")
    assert space.alphabet_a.symbols == ("a", "b")
    assert space.tm(("0",)) == "a" and space.tm(("1'",)) == "b"


def test_verify_conjugacy(model1, model2, coding1, coding2):
    rep = verify_conjugacy(model1, coding1, 6, 50)
    assert rep.violations == () and rep.samples == 50 and rep.depth == 6
    assert verify_conjugacy(model2, coding2, 5, 50).violations == ()


def test_verify_conjugacy_negative(model2):
    wrong = full_space(
        Alphabet(["a", "b"]),
        Alphabet(["0", "1", "0'", "1'"]),
        TransitionMap(1, {("0",): "b", ("1",): "a", ("0'",): "a", ("1'",): "b"}),
    )
    rep = verify_conjugacy(model2, wrong, 4, 40)
    assert len(rep.violations) > 0


def test_verify_conjugacy_needs_a_sample(model2, coding2):
    for samples in (0, -3):
        with pytest.raises(InvalidWord):
            verify_conjugacy(model2, coding2, 3, samples)


def interiors_meet(r, s) -> bool:
    dx = min(r[0][1], s[0][1]) - max(r[0][0], s[0][0])
    dy = min(r[1][1], s[1][1]) - max(r[1][0], s[1][0])
    return dx > 0 and dy > 0


def all_pairs_verify(model, space, depth, samples, rng):
    """The conjugacy check with every new rectangle compared against every
    earlier one, kept here as the oracle of the sorted sweep."""
    violations = []
    seen = {}
    for _ in range(samples):
        code = ItineraryCode(
            tuple(rng.choice(("a", "b")) for _ in range(depth)),
            tuple(rng.choice(model.letters) for _ in range(depth)),
        )
        rect = decode(model, code)
        if code not in seen:
            for other, orect in seen.items():
                if interiors_meet(rect, orect):
                    violations.append(f"rectangles overlap: {code} and {other}")
            seen[code] = rect
        p = ((rect[0][0] + rect[0][1]) / 2, (rect[1][0] + rect[1][1]) / 2)
        choices = tuple(rng.randint(1, model.n_folds) for _ in range(depth))
        if code_point(model, p, depth, choices) != code:
            violations.append(f"recoding the center of {code} changed the window")
            continue
        _, image = model.apply(p)
        geometric = code_point(model, image, depth - 1, choices)
        x = EpPoint((code.back[0],), code.back, code.fwd, (code.fwd[-1],))
        symbolic = shift(space, x).window(-(depth - 1), 2 * (depth - 1))
        if geometric.back + geometric.fwd != symbolic:
            violations.append(
                f"window of coded image {geometric} differs from shifted code at {code}"
            )
        if count_point_preimages(model, p) != model.n_folds:
            violations.append(f"pre-image count at the center of {code} is not N")
    return tuple(violations)


class AliasedStripModel(HorseshoeModel):
    """Decodes strip 1 as if it were strip 0.  The map itself, which reads
    the strips directly, is untouched, so every rectangle center stays in the
    square; only the decoded rectangles of 0 and 1 now overlap."""

    def x_interval(self, letter):
        return super().x_interval("0" if letter == "1" else letter)


@pytest.mark.parametrize(
    "n, depth, samples, aliased",
    [(2, 2, 200, True), (2, 3, 300, True), (1, 4, 100, True), (1, 5, 120, False), (3, 3, 120, False)],
)
def test_verify_conjugacy_matches_all_pairs_scan(n, depth, samples, aliased):
    model = AliasedStripModel(n, F(1, 2)) if aliased else build_model(n)
    space = coding_space(model)
    got = verify_conjugacy(model, space, depth, samples, random.Random(depth))
    want = all_pairs_verify(model, space, depth, samples, random.Random(depth))
    assert got.violations == want
    overlaps = [v for v in want if v.startswith("rectangles overlap: ")]
    later = {v.split(" and ")[0] for v in overlaps}
    if aliased:
        # with two folds some later codes overlap several earlier ones, so the
        # order within those runs of lines is pinned too
        assert len(later) > 5 and (n == 1 or len(overlaps) > len(later))
    else:
        assert want == ()


_grid = st.integers(0, 8).map(lambda k: F(k, 8))
_interval = st.tuples(_grid, _grid).map(lambda t: (min(t), max(t)))


@given(st.lists(st.tuples(_interval, _interval), max_size=30))
def test_overlapping_pairs_match_all_pairs(rects):
    """On a coarse grid many rectangles share edges or have no width; only
    interiors that meet count, as in the all-pairs scan."""
    want = [(i, j) for i in range(len(rects)) for j in range(i) if interiors_meet(rects[i], rects[j])]
    assert _overlapping_pairs(rects) == want


def test_stable_string_chains(model2):
    assert ["".join(w) for w in stable_string(model2, "00")] == [
        "00",
        "10",
        "11",
        "01",
    ]
    assert ["".join(w) for w in stable_string(model2, "10'1'")] == [
        "00'0'",
        "10'0'",
        "11'0'",
        "01'0'",
        "01'1'",
        "11'1'",
        "10'1'",
        "00'1'",
    ]
    assert ["".join(w) for w in stable_string(model2, "0'0'0'")] == [
        "0'0'0'",
        "1'0'0'",
        "1'1'0'",
        "0'1'0'",
        "0'1'1'",
        "1'1'1'",
        "1'0'1'",
        "0'0'1'",
    ]


def test_stable_string_rejections(model1, model2):
    with pytest.raises(InvalidWord):
        stable_string(model1, "00")
    with pytest.raises(BadLetter):
        stable_string(model2, "02")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda m: m.x_interval("z"), BadLetter, "'z' is not a branch letter of this model"),
        (lambda m: m.h_interval("z"), BadLetter, "'z' is not a horizontal strip name"),
        (lambda m: m.inverse((F(0), F(0)), 0), InvalidWord, "fold choice must be in 1..2, got 0"),
        # y = 1/2 lies between H_a = [0, 4/9] and H_b = [5/9, 1].
        (lambda m: m.inverse((F(0), F(1, 2)), 1), EscapedSquare, "iterate 0 left all branch rectangles"),
        (lambda m: code_point(m, (F(0), F(0)), 0), InvalidWord, "depth must be >= 1, got 0"),
        (lambda m: decode(m, ItineraryCode((), ())), InvalidWord, "a code needs at least the letter at index 0"),
        (lambda m: decode(m, ItineraryCode(("z",), ("0",))), BadLetter, "'z' is not a horizontal strip name"),
        (
            lambda m: verify_conjugacy(m, coding_space(m), 1, 10),
            InvalidWord,
            "conjugacy checks need depth >= 2, got 1",
        ),
        (lambda m: stable_string(m, ""), BadLetter, "the strip word is empty"),
        (lambda m: stable_string(m, ("0", "2")), BadLetter, "'2' is not a strip letter of this model"),
    ],
    ids=[
        "strip-letter", "side", "fold-zero", "inverse-in-gap", "depth-zero", "decode-empty", "decode-side",
        "conjugacy-depth", "empty-strip-word", "strip-tuple",
    ],
)
def test_model_and_coding_refusals(model2, call, error, message):
    with pytest.raises(error) as exc:
        call(model2)
    assert type(exc.value) is error and str(exc.value) == message


def test_code_point_names_the_backward_escape_step():
    # (0, 2/9) sits in H_a = [0, 4/9], and its fold-1 pre-image (0, 1/2) in neither strip.
    with pytest.raises(EscapedSquare) as exc:
        code_point(build_model(2), (F(0), F(2, 9)), 3)
    assert exc.value.step == -1 and str(exc.value) == "iterate -1 left all branch rectangles"


def x_inverse(model, letter, t):
    lo, hi = model.x_interval(letter)
    if model.branch_type(letter) == 0:
        return lo + t / model.delta
    return hi - t / model.delta


def fold_midline(model, fold):
    bottom = model.x_interval(model.letters[2 * (fold - 1)])
    top = model.x_interval(model.letters[2 * (fold - 1) + 1])
    return (bottom[1] + top[0]) / 2


def test_stable_string_mirror_geometry(model2):
    """Consecutive chain entries are mirror strips.

    Two neighbours differ in one position; their vertical strips must be
    reflections about the fold-gap midline pulled back through the shared
    prefix branches.
    """
    for w in ("00", "10'1'", "0'0'0'"):
        chain = stable_string(model2, w)
        k = len(chain[0])
        for u, v in zip(chain, chain[1:]):
            diffs = [i for i in range(k) if u[i] != v[i]]
            assert len(diffs) == 1
            i = diffs[0]
            fold = model2.fold_of(u[i])
            assert model2.fold_of(v[i]) == fold
            assert model2.branch_type(u[i]) != model2.branch_type(v[i])
            axis = fold_midline(model2, fold)
            for letter in reversed(u[:i]):
                axis = x_inverse(model2, letter, axis)
            (alo, ahi), _ = decode(model2, ItineraryCode((), u))
            (blo, bhi), _ = decode(model2, ItineraryCode((), v))
            assert ahi - alo == bhi - blo == model2.delta ** -k
            assert alo + bhi == 2 * axis
            assert ahi + blo == 2 * axis


# Run under ``python -O``, which strips ``assert``: each corruption must
# still raise the typed error.  The first three break one Markov identity
# checked by build_model, the last the stable-string chain.
_CORRUPTED = """
import sys
import zipshift.horseshoe as h

print(sys.flags.optimize)
init = h.HorseshoeModel.__init__
model = h.build_model(2)


def off_product(self, n, eps):
    init(self, n, eps)
    self.delta_prime += 1


def wide_strip(self, n, eps):
    init(self, n, eps)
    lo, hi = self._x[self.letters[0]]
    self._x[self.letters[0]] = (lo, 2 * hi)


def report(call):
    try:
        call()
    except Exception as e:
        print(type(e).__name__)
    else:
        print("no error")


for corrupt in (off_product, wide_strip):
    h.HorseshoeModel.__init__ = corrupt
    report(lambda: h.build_model(2))
h.HorseshoeModel.__init__ = init
h.HorseshoeModel.h_interval = lambda self, side: (0, 1)
report(lambda: h.build_model(2))
h._parse_strip_word = lambda model, w: ("2",)
report(lambda: h.stable_string(model, "0"))
"""


def test_corrupted_model_raises_under_optimize():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPTED],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    ).stdout.split()
    assert out == ["1"] + [GeometryError.__name__] * 4

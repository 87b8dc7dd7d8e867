"""A piecewise-affine N-to-1 horseshoe on the unit square, with the
symbolic coding that conjugates it to a zip shift.

The map is defined branch-wise on 2N vertical strips arranged in N folds.
Within each fold the left strip keeps orientation and lands on the bottom
horizontal strip; the right strip reverses orientation and lands on the top
one.  All 2N branches expand horizontally by ``delta`` and contract
vertically by ``delta_prime``, with ``delta * delta_prime = N`` exactly,
so every image crosses the square fully and the Markov identities hold as
equalities of rectangles.

All geometry uses exact rational arithmetic.  Consecutive folds share a
boundary x-coordinate; strip membership treats each strip as closed on the
left and open on the right (the rightmost strip also keeps its right
endpoint), which makes the map single valued everywhere.  Sampled points in
the verification flows always sit in rectangle interiors, so the convention
never shows up in results.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .errors import (
    BadLetter,
    EscapedSquare,
    GeometryError,
    InvalidWord,
    Unrealizable,
)
from .point import EpPoint, shift
from .space import ZipShiftSpace, full_space
from .symbols import Alphabet, TransitionMap, Word, _Value

Pt = tuple[Fraction, Fraction]
Interval = tuple[Fraction, Fraction]


def _letter_names(n_folds: int) -> tuple[str, ...]:
    if n_folds == 1:
        return ("0", "1")
    if n_folds == 2:
        return ("0", "1", "0'", "1'")
    return tuple(
        f"{digit}_{fold}" for fold in range(1, n_folds + 1) for digit in (0, 1)
    )


class HorseshoeModel:
    """Branch geometry of the N-fold horseshoe.

    ``letters`` lists the vertical strips left to right; even positions are
    bottom-bound (image H_a), odd positions are top-bound (image H_b).
    """

    def __init__(self, n_folds: int, epsilon: Fraction):
        epsilon = Fraction(epsilon)
        if n_folds < 1:
            raise GeometryError(f"fold count must be >= 1, got {n_folds}")
        if epsilon <= 0:
            raise GeometryError(
                f"epsilon must be positive, got {epsilon}; branches overlap otherwise"
            )
        self.n_folds = n_folds
        self.epsilon = epsilon
        self.delta = 2 * n_folds + epsilon
        self.delta_prime = Fraction(n_folds, 1) / self.delta
        self.letters = _letter_names(n_folds)
        span = (2 + epsilon / n_folds) / self.delta
        width = Fraction(1) / self.delta
        self._x: dict[str, Interval] = {}
        for fold in range(n_folds):
            left = fold * span
            self._x[self.letters[2 * fold]] = (left, left + width)
            self._x[self.letters[2 * fold + 1]] = (
                left + (1 + epsilon / n_folds) / self.delta,
                (fold + 1) * span,
            )
        ordered = [self._x[c] for c in self.letters]
        for (_, hi), (lo, _) in zip(ordered, ordered[1:]):
            if hi > lo:
                raise GeometryError("branch rectangles overlap")
        if ordered[-1][1] > 1:
            raise GeometryError("branch rectangles leave the unit square")

    # -- letters and membership -------------------------------------------

    def x_interval(self, letter: str) -> Interval:
        try:
            return self._x[letter]
        except KeyError:
            raise BadLetter(f"{letter!r} is not a branch letter of this model") from None

    def branch_type(self, letter: str) -> int:
        """0 for bottom-bound strips, 1 for top-bound ones."""
        self.x_interval(letter)
        return self.letters.index(letter) % 2

    def fold_of(self, letter: str) -> int:
        self.x_interval(letter)
        return self.letters.index(letter) // 2 + 1

    def h_interval(self, side: str) -> Interval:
        if side == "a":
            return (Fraction(0), self.delta_prime)
        if side == "b":
            return (1 - self.delta_prime, Fraction(1))
        raise BadLetter(f"{side!r} is not a horizontal strip name")

    def letter_at(self, p: Pt) -> str | None:
        """The strip containing p, or None.

        Strips are half open on the right except the last, so shared fold
        boundaries belong to the strip on their right.
        """
        x = p[0]
        for i, c in enumerate(self.letters):
            lo, hi = self._x[c]
            if lo <= x < hi or (i == len(self.letters) - 1 and x == hi):
                return c
        return None

    def h_letter_at(self, p: Pt) -> str | None:
        y = p[1]
        if 0 <= y <= self.delta_prime:
            return "a"
        if 1 - self.delta_prime <= y <= 1:
            return "b"
        return None

    # -- the map and its inverse branches ----------------------------------

    def apply(self, p: Pt) -> tuple[str, Pt]:
        """One forward step: the strip letter of p and its image."""
        c = self.letter_at(p)
        if c is None:
            raise EscapedSquare(0)
        lo, hi = self._x[c]
        if self.branch_type(c) == 0:
            return c, (self.delta * (p[0] - lo), self.delta_prime * p[1])
        return c, (self.delta * (hi - p[0]), 1 - self.delta_prime * p[1])

    def inverse(self, p: Pt, fold: int) -> Pt:
        """The pre-image of p through the chosen fold.

        The branch type is forced by which horizontal strip holds p; only
        the fold is free, so a backward orbit needs one choice in 1..N per
        step.
        """
        if not 1 <= fold <= self.n_folds:
            raise InvalidWord(f"fold choice must be in 1..{self.n_folds}, got {fold}")
        side = self.h_letter_at(p)
        if side is None:
            raise EscapedSquare(0)
        t = 0 if side == "a" else 1
        lo, hi = self._x[self.letters[2 * (fold - 1) + t]]
        if t == 0:
            return (lo + p[0] / self.delta, p[1] / self.delta_prime)
        return (hi - p[0] / self.delta, (1 - p[1]) / self.delta_prime)


def build_model(n_folds: int, epsilon=Fraction(1, 2)) -> HorseshoeModel:
    """Construct the N-fold horseshoe and check its Markov identities."""
    model = HorseshoeModel(n_folds, epsilon)
    if model.delta * model.delta_prime != n_folds:
        raise GeometryError(
            f"expansion {model.delta} times contraction {model.delta_prime} is not {n_folds}"
        )
    for c in model.letters:
        lo, hi = model.x_interval(c)
        if hi - lo != 1 / model.delta:
            raise GeometryError(f"strip {c!r} has width {hi - lo}, not 1/{model.delta}")
        t = model.branch_type(c)
        corners = [(lo, Fraction(0)), (lo, Fraction(1)), (hi, Fraction(0)), (hi, Fraction(1))]
        ys = set()
        for x, y in corners:
            if t == 0:
                ys.add(model.delta_prime * y)
            else:
                ys.add(1 - model.delta_prime * y)
        want = model.h_interval("a" if t == 0 else "b")
        if {min(ys), max(ys)} != {want[0], want[1]}:
            raise GeometryError(f"the image of strip {c!r} does not span its horizontal strip")
    return model


class ItineraryCode(_Value):
    """A finite central window of the coding: ``back`` holds the horizontal
    strip letters for negative indices (deepest first), ``fwd`` the vertical
    strip letters from index 0 on."""

    back: Word
    fwd: Word

    def __init__(self, back: Word, fwd: Word):
        self.__dict__.update(back=back, fwd=fwd)

    def __str__(self) -> str:
        return f"{' '.join(self.back)} ; {' '.join(self.fwd)}".strip()


def code_point(
    model: HorseshoeModel,
    p: Pt,
    depth: int,
    branch_choices: tuple[int, ...] = (),
) -> ItineraryCode:
    """The depth-k central window of the coding of p.

    Forward letters record which vertical strip each forward iterate sits
    in.  Backward letters record which horizontal strip each backward
    iterate sits in, starting with p itself; the fold walked through at
    each backward step comes from ``branch_choices`` (defaulting to fold 1)
    and never changes the letters, only the pre-image point.
    """
    if depth < 1:
        raise InvalidWord(f"depth must be >= 1, got {depth}")
    fwd: list[str] = []
    cur = p
    for i in range(depth):
        if model.letter_at(cur) is None:
            raise EscapedSquare(i)
        c, cur = model.apply(cur)
        fwd.append(c)
    back: list[str] = []
    cur = p
    for i in range(depth):
        side = model.h_letter_at(cur)
        if side is None:
            raise EscapedSquare(-i)
        back.append(side)
        if i < depth - 1:
            fold = branch_choices[i] if i < len(branch_choices) else 1
            cur = model.inverse(cur, fold)
    return ItineraryCode(tuple(reversed(back)), tuple(fwd))


def decode(model: HorseshoeModel, code: ItineraryCode) -> tuple[Interval, Interval]:
    """The rational rectangle of all points matching the code window.

    The x-interval pulls the forward letters back through the branch maps
    (innermost letter first); the y-interval pushes the backward letters
    forward through the two vertical contractions.  Widths shrink by delta
    (respectively delta_prime) per letter.
    """
    if not code.fwd:
        raise InvalidWord("a code needs at least the letter at index 0")
    xlo, xhi = Fraction(0), Fraction(1)
    for c in reversed(code.fwd):
        lo, hi = model.x_interval(c)
        if model.branch_type(c) == 0:
            xlo, xhi = lo + xlo / model.delta, lo + xhi / model.delta
        else:
            xlo, xhi = hi - xhi / model.delta, hi - xlo / model.delta
    ylo, yhi = Fraction(0), Fraction(1)
    for side in code.back:
        if side == "a":
            ylo, yhi = model.delta_prime * ylo, model.delta_prime * yhi
        elif side == "b":
            ylo, yhi = 1 - model.delta_prime * yhi, 1 - model.delta_prime * ylo
        else:
            raise BadLetter(f"{side!r} is not a horizontal strip name")
    if xlo > xhi or ylo > yhi:
        raise Unrealizable(f"code {code} has an empty rectangle")
    return (xlo, xhi), (ylo, yhi)


def count_point_preimages(model: HorseshoeModel, p: Pt) -> int:
    """How many points map to p under one forward step."""
    side = model.h_letter_at(p)
    if side is None:
        return 0
    count = 0
    for fold in range(1, model.n_folds + 1):
        q = model.inverse(p, fold)
        c = model.letter_at(q)
        if c is None:
            continue
        letter, image = model.apply(q)
        if letter == c and image == p:
            count += 1
    return count


def coding_space(model: HorseshoeModel) -> ZipShiftSpace:
    """The zip shift space the horseshoe codes into: a full shift on the
    2N strip letters whose transition map sends bottom-bound strips to a
    and top-bound ones to b."""
    table = {
        (c,): "a" if model.branch_type(c) == 0 else "b" for c in model.letters
    }
    return full_space(
        Alphabet(["a", "b"]), Alphabet(list(model.letters)), TransitionMap(1, table)
    )


class ConjugacyReport(_Value):
    samples: int
    depth: int
    violations: tuple[str, ...]

    def __init__(self, samples: int, depth: int, violations: tuple[str, ...]):
        self.__dict__.update(samples=samples, depth=depth, violations=violations)

    def __bool__(self) -> bool:
        return not self.violations


def verify_conjugacy(
    model: HorseshoeModel,
    space: ZipShiftSpace,
    depth: int,
    samples: int,
    rng: random.Random | None = None,
) -> ConjugacyReport:
    """Sample random depth-k windows and check the coding against the shift.

    For each sampled code the rectangle center is re-coded (the coding must
    reproduce the window), its image under the map is coded to depth k-1
    and compared with the space's shift of the same window, and its
    pre-image count must equal the fold count.  Distinct sampled codes must
    decode to rectangles with disjoint interiors; the overlapping pairs are
    found by one sweep over the rectangles sorted by x (see
    :func:`_overlapping_pairs`), so the cost grows with the sample count
    and not with its square.  Each overlap is reported at the first sample
    of the later code, against the earlier codes in the order they were
    first drawn.  Violations are reported, never raised, so a deliberately
    wrong space shows up as a non-empty report.
    """
    if depth < 2:
        raise InvalidWord(f"conjugacy checks need depth >= 2, got {depth}")
    if samples < 1:
        raise InvalidWord(f"conjugacy checks need at least one sample, got {samples}")
    rng = rng or random.Random(0)
    draws: list[tuple[ItineraryCode, tuple[int, ...]]] = []
    for _ in range(samples):
        code = ItineraryCode(
            tuple(rng.choice(("a", "b")) for _ in range(depth)),
            tuple(rng.choice(model.letters) for _ in range(depth)),
        )
        draws.append((code, tuple(rng.randint(1, model.n_folds) for _ in range(depth))))
    rects: dict[ItineraryCode, tuple[Interval, Interval]] = {}
    for code, _ in draws:
        if code not in rects:
            rects[code] = decode(model, code)
    codes = list(rects)
    earlier: dict[ItineraryCode, list[ItineraryCode]] = {}
    for i, j in _overlapping_pairs(list(rects.values())):
        earlier.setdefault(codes[i], []).append(codes[j])
    violations: list[str] = []
    for code, choices in draws:
        for other in earlier.pop(code, ()):
            violations.append(f"rectangles overlap: {code} and {other}")
        rect = rects[code]
        p = ((rect[0][0] + rect[0][1]) / 2, (rect[1][0] + rect[1][1]) / 2)
        if code_point(model, p, depth, choices) != code:
            violations.append(f"recoding the center of {code} changed the window")
            continue
        _, image = model.apply(p)
        geometric = code_point(model, image, depth - 1, choices)
        x = EpPoint((code.back[0],), code.back, code.fwd, (code.fwd[-1],))
        shifted = shift(space, x)
        symbolic = shifted.window(-(depth - 1), 2 * (depth - 1))
        if geometric.back + geometric.fwd != symbolic:
            violations.append(
                f"window of coded image {geometric} differs from shifted code at {code}"
            )
        if count_point_preimages(model, p) != model.n_folds:
            violations.append(f"pre-image count at the center of {code} is not N")
    return ConjugacyReport(samples, depth, tuple(violations))


def _overlapping_pairs(rects: list[tuple[Interval, Interval]]) -> list[tuple[int, int]]:
    """The pairs (i, j), j < i, of rectangles whose interiors meet, sorted.

    Rectangles are taken in order of their left edge.  The active list holds
    those seen so far whose right edge lies right of the current left edge;
    only they can share interior points with the current rectangle, so
    rectangles that merely touch along an edge never pair up.
    """
    pairs: list[tuple[int, int]] = []
    active: list[int] = []
    for i in sorted(range(len(rects)), key=lambda i: rects[i][0][0]):
        (xlo, xhi), (ylo, yhi) = rects[i]
        active = [j for j in active if rects[j][0][1] > xlo]
        if xhi > xlo:
            for j in active:
                jy = rects[j][1]
                if min(yhi, jy[1]) > max(ylo, jy[0]):
                    pairs.append((i, j) if j < i else (j, i))
        active.append(i)
    return sorted(pairs)


def stable_string(model: HorseshoeModel, w) -> tuple[Word, ...]:
    """The ordered chain of 2^k vertical rectangles whose stable strips
    connect through the folds, for the two-fold model.

    Position i of entry j carries digit 0 exactly when (j + 2^(i-1)) div 2^i
    is even, and keeps w's prime mark at that position; the chain is the
    reflected-binary order, contains w exactly once, and consecutive
    entries differ in one position.
    """
    if model.n_folds != 2:
        raise InvalidWord("stable strings are defined for the two-fold model only")
    word = _parse_strip_word(model, w)
    k = len(word)
    out: list[Word] = []
    for j in range(2**k):
        entry = []
        for i in range(1, k + 1):
            digit = "0" if ((j + 2 ** (i - 1)) // 2**i) % 2 == 0 else "1"
            primed = word[i - 1].endswith("'")
            entry.append(digit + "'" if primed else digit)
        out.append(tuple(entry))
    if out.count(word) != 1:
        raise GeometryError(f"the stable-string chain holds {' '.join(word)} {out.count(word)} times")
    return tuple(out)


def _parse_strip_word(model: HorseshoeModel, w) -> Word:
    if isinstance(w, str):
        letters: list[str] = []
        i = 0
        while i < len(w):
            c = w[i]
            if c not in ("0", "1"):
                raise BadLetter(f"{c!r} is not a strip letter")
            if i + 1 < len(w) and w[i + 1] == "'":
                c += "'"
                i += 1
            letters.append(c)
            i += 1
        word = tuple(letters)
    else:
        word = tuple(w)
    if not word:
        raise BadLetter("the strip word is empty")
    for c in word:
        if c not in model.letters:
            raise BadLetter(f"{c!r} is not a strip letter of this model")
    return word

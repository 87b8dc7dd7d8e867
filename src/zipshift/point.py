"""Eventually periodic points: canonical form, text format, shift and metrics.

A point carries A-letters at negative indices and A'-letters from index 0 on.
Both tails are eventually periodic, which covers every example this package
works with (periodic, pre-periodic, homoclinic, heteroclinic and horseshoe
itineraries) while keeping equality and the metrics exactly computable.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import InvalidWord
from .symbols import Word, _check_symbol

if TYPE_CHECKING:
    from .space import ZipShiftSpace


def _primitive(word: Word) -> Word:
    """The shortest root r with word = r^k."""
    m = len(word)
    for d in range(1, m + 1):
        if m % d == 0 and word == word[:d] * (m // d):
            return word[:d]
    return word


@dataclass(frozen=True)
class EpPoint:
    """A two-sided eventually periodic point in canonical form.

    ``left_transient`` stores the entry nearest index -1 last; ``left_period``
    repeats toward minus infinity with its last letter adjacent to the
    transient.  Construction canonicalizes: periods are reduced to their
    primitive roots and transient letters that merely continue the adjacent
    period are absorbed into it (rotating the period to keep the phase pinned
    at the junction).  Equality of canonical forms is equality of sequences.
    The same type holds lifts, whose letters are A'-letters on both sides
    (``ZipShiftSpace.random_lift``, ``canonical_lift``).
    """

    left_period: Word
    left_transient: Word
    right_transient: Word
    right_period: Word

    def __post_init__(self):
        lp = tuple(self.left_period)
        lt = tuple(self.left_transient)
        rt = tuple(self.right_transient)
        rp = tuple(self.right_period)
        if not lp or not rp:
            raise InvalidWord("periods must be non-empty")
        for w in (lp, lt, rt, rp):
            for c in w:
                _check_symbol(c)
        lp = _primitive(lp)
        rp = _primitive(rp)
        while lt and lt[0] == lp[0]:
            lt = lt[1:]
            lp = lp[1:] + lp[:1]
        while rt and rt[-1] == rp[-1]:
            rt = rt[:-1]
            rp = rp[-1:] + rp[:-1]
        object.__setattr__(self, "left_period", lp)
        object.__setattr__(self, "left_transient", lt)
        object.__setattr__(self, "right_transient", rt)
        object.__setattr__(self, "right_period", rp)

    def letter(self, i: int) -> str:
        if i >= 0:
            if i < len(self.right_transient):
                return self.right_transient[i]
            return self.right_period[(i - len(self.right_transient)) % len(self.right_period)]
        depth = -i
        if depth <= len(self.left_transient):
            return self.left_transient[len(self.left_transient) - depth]
        d = depth - len(self.left_transient)
        m = len(self.left_period)
        return self.left_period[m - 1 - ((d - 1) % m)]

    def window(self, i: int, length: int) -> Word:
        return tuple(self.letter(i + j) for j in range(length))

    def __str__(self) -> str:
        return format_point(self)


def format_point(x: EpPoint) -> str:
    parts = ["(" + " ".join(x.left_period) + ")*"]
    if x.left_transient:
        parts.append(" ".join(x.left_transient))
    parts.append(";")
    if x.right_transient:
        parts.append(" ".join(x.right_transient))
    parts.append("(" + " ".join(x.right_period) + ")*")
    return " ".join(parts)


_POINT_RE = re.compile(
    r"^\s*\(\s*(?P<lp>[^();*]+?)\s*\)\*"
    r"(?P<lt>[^();*]*?);"
    r"(?P<rt>[^();*]*?)\(\s*(?P<rp>[^();*]+?)\s*\)\*\s*$"
)


def parse_point(text: str) -> EpPoint:
    """Parse ``(lp)* lt ; rt (rp)*`` with whitespace-separated symbols."""
    m = _POINT_RE.match(text)
    if m is None:
        raise InvalidWord(
            f"cannot parse point {text!r}; expected \"(w)* u ; v (w')*\""
        )
    lp = tuple(m.group("lp").split())
    lt = tuple(m.group("lt").split())
    rt = tuple(m.group("rt").split())
    rp = tuple(m.group("rp").split())
    return EpPoint(lp, lt, rt, rp)


def shift(space: ZipShiftSpace, x: EpPoint) -> EpPoint:
    """One application of the zip shift map.

    Every index moves left by one; the letter entering index -1 is the
    transition image of the window that starts at index 0.
    """
    n = space.n
    new_left = x.left_transient + (space.tm(x.window(0, n)),)
    if x.right_transient:
        return EpPoint(x.left_period, new_left, x.right_transient[1:], x.right_period)
    rp = x.right_period
    return EpPoint(x.left_period, new_left, (), rp[1:] + rp[:1])


def shift_k(space: ZipShiftSpace, x: EpPoint, k: int) -> EpPoint:
    if k < 0:
        raise InvalidWord("backward shifts are multivalued; use the preimage engine")
    for _ in range(k):
        x = shift(space, x)
    return x


@dataclass(frozen=True)
class MetricReport:
    """The four distances: two-sided, right, left, and their average."""

    d: Fraction
    d_plus: Fraction
    d_minus: Fraction
    d_pm: Fraction


def _right_difference(s: EpPoint, t: EpPoint) -> int | None:
    """Smallest i >= 0 with s_i != t_i, or None when the right tails agree."""
    bound = max(len(s.right_transient), len(t.right_transient)) + math.lcm(
        len(s.right_period), len(t.right_period)
    )
    for i in range(bound):
        if s.letter(i) != t.letter(i):
            return i
    return None


def _left_difference(s: EpPoint, t: EpPoint) -> int | None:
    """Smallest depth n >= 1 with s_{-n} != t_{-n}, or None when equal."""
    bound = max(len(s.left_transient), len(t.left_transient)) + math.lcm(
        len(s.left_period), len(t.left_period)
    )
    for n in range(1, bound + 1):
        if s.letter(-n) != t.letter(-n):
            return n
    return None


def metrics(s: EpPoint, t: EpPoint) -> MetricReport:
    """Exact values of d, d+, d- and their average.

    d halves with the absolute position of the first difference over all
    indices; d+ looks only right of the seam, d- only left, with the depth-1
    difference already giving d- = 1.
    """
    i_plus = _right_difference(s, t)
    n_minus = _left_difference(s, t)
    d_plus = Fraction(0) if i_plus is None else Fraction(1, 2**i_plus)
    d_minus = Fraction(0) if n_minus is None else Fraction(1, 2 ** (n_minus - 1))
    sides = [v for v in (i_plus, n_minus) if v is not None]
    d = Fraction(0) if not sides else Fraction(1, 2 ** min(sides))
    return MetricReport(d=d, d_plus=d_plus, d_minus=d_minus, d_pm=(d_minus + d_plus) / 2)


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    reason: str | None

    def __bool__(self) -> bool:
        return self.ok


def _letter_failure(space: ZipShiftSpace, x: EpPoint) -> str | None:
    """Why x has a letter outside its side's alphabet, or None: the first
    such letter of its unrolled representation, A-side depths first."""
    for j in range(1, len(x.left_transient) + len(x.left_period) + 1):
        if x.letter(-j) not in space.alphabet_a:
            return f"letter {x.letter(-j)!r} at index {-j} is not in A"
    for i in range(len(x.right_transient) + len(x.right_period)):
        if x.letter(i) not in space.alphabet_aprime:
            return f"letter {x.letter(i)!r} at index {i} is not in A'"
    return None


def is_admissible(space: ZipShiftSpace, x: EpPoint) -> AdmissibilityReport:
    """Window admissibility plus left-tail liftability."""
    from . import preimage

    return preimage.point_admissibility(space, x)


def point_from_lift(space: ZipShiftSpace, lift: EpPoint) -> EpPoint:
    """The point whose left tail is the transition image of the given lift,
    a two-sided A'-sequence."""
    n = space.n
    depth = len(lift.left_transient) + n - 1
    outward = [space.tm(lift.window(-j, n)) for j in range(1, depth + 1)]
    m = len(lift.left_period)
    cycle = [space.tm(lift.window(-(depth + i), n)) for i in range(1, m + 1)]
    return EpPoint(
        tuple(reversed(cycle)),
        tuple(reversed(outward)),
        lift.right_transient,
        lift.right_period,
    )


def random_point(space: ZipShiftSpace, rng: random.Random) -> EpPoint:
    """A random admissible point, eventually periodic on both sides."""
    return point_from_lift(space, space.random_lift(rng))

"""Periodic orbit structure: periodic and pre-periodic points, stable and
unstable tail membership, and homoclinic orbit enumeration.

A periodic point is the two-sided repetition of a cycle word, with
transition-map images filling the negative side.  In full, finite-type and
sofic spaces alike a word is a cycle exactly when some closed walk of the
space's A'-graph spells a power of it, which the space decides on its own
subset walk; listing the points of repeat length m tests only the
admissible m-words, generated on that walk as they are tested and never
kept.  Pre-periodic points are the extra backward branches
that fall onto such an orbit after finitely many steps.  Homoclinic orbits
are enumerated by choosing a backward branch letter at each depth before
the point's left tail has merged with the orbit; deeper letters are forced
by the orbit's own two-sided lift.  Both read only the pre-image branch
letters; the path-search classification runs in ``preimages`` alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidWord, NotInSpace
from .point import EpPoint, shift, shift_k
from .preimage import _branches, _preimage_point, labeled_graph_for, preimages_k
from .space import ZipShiftSpace
from .symbols import Word


@dataclass(frozen=True)
class PeriodicPoint:
    """An admissible cycle word together with its two-sided repetition."""

    word: Word
    point: EpPoint

    @property
    def period(self) -> int:
        return len(self.word)


def periodic_point(space: ZipShiftSpace, word: Word) -> PeriodicPoint:
    """The periodic point repeating ``word``, or InvalidWord if no such point
    (UnknownSymbol for a letter outside A').

    The left side holds the transition-map images of the repetition, so its
    repeating pattern generally differs from ``word`` and may be shorter
    after canonicalization.
    """
    word = tuple(word)
    if not word:
        raise InvalidWord("period word must be non-empty")
    if not space._is_cycle(word):
        raise InvalidWord(f"no closed walk spells a power of cycle {' '.join(word)}")
    return _cycle_point(space, word)


def _cycle_point(space: ZipShiftSpace, word: Word) -> PeriodicPoint:
    """The periodic point repeating ``word``, which must be a cycle."""
    u = word * (space.n // len(word) + 2)
    lp = tuple(space.tm(u[i : i + space.n]) for i in range(len(word)))
    return PeriodicPoint(word, EpPoint._of_symbols(lp, (), (), word))


def periodic_points(space: ZipShiftSpace, m: int) -> set[PeriodicPoint]:
    """All periodic points whose repeat length is m (not necessarily least).

    One entry per admissible cycle word, so a fixed point reappears at every
    multiple of its least period under a different word.  Only the
    admissible m-words are tested, by the space's cycle test; for full and
    finite-type spaces the count matches count_periodic(m).  The m-words are
    generated on the space's A'-walk together with their states, which start
    each cycle test, and neither this function nor the space keeps them.
    """
    if m < 1:
        raise InvalidWord(f"period must be >= 1, got {m}")
    words = space._aprime_walk.words(m)
    return {_cycle_point(space, w) for w, state in words if space._is_cycle(w, state)}


def orbit_points(space: ZipShiftSpace, p: PeriodicPoint) -> tuple[EpPoint, ...]:
    """The forward orbit of p as distinct points, starting at p itself."""
    pts = [p.point]
    while True:
        nxt = shift(space, pts[-1])
        if nxt == pts[0]:
            return tuple(pts)
        pts.append(nxt)


def pre_periodic_points(space: ZipShiftSpace, p: PeriodicPoint, level: int) -> set[EpPoint]:
    """Points that fall onto the orbit of p within ``level`` whole periods.

    A point qualifies when some multiple k*m of the period with k <= level
    shifts it onto an orbit point, and it is not an orbit point itself.  One
    frontier of pre-images grows from the whole orbit, m steps per level.
    """
    if level < 1:
        raise InvalidWord(f"level must be >= 1, got {level}")
    orbit = set(orbit_points(space, p))
    m = len(p.word)
    found: set[EpPoint] = set()
    frontier = orbit
    for _ in range(level):
        frontier = {y for x in frontier for y in preimages_k(space, x, m)}
        found |= frontier
    return found - orbit


@dataclass(frozen=True)
class TailFlag:
    """One membership verdict: ``merge`` is the index from which the tails
    agree (right side: letters at i >= merge; left side: depths > merge),
    and ``phase`` is the orbit shift that makes them agree."""

    holds: bool
    merge: int | None = None
    phase: int | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class StableUnstableReport:
    s_global: TailFlag
    s_special: TailFlag
    u_global: TailFlag
    u_special: TailFlag


def _right_merge(t: EpPoint, r: EpPoint) -> int | None:
    """Least i0 >= 0 with t_i = r_i for all i >= i0, or None."""
    start = max(len(t.right_transient), len(r.right_transient))
    span = math.lcm(len(t.right_period), len(r.right_period))
    if any(t.letter(i) != r.letter(i) for i in range(start, start + span)):
        return None
    d = start
    while d > 0 and t.letter(d - 1) == r.letter(d - 1):
        d -= 1
    return d


def _right_flags(t: EpPoint, orbit: tuple[EpPoint, ...]) -> tuple[TailFlag, TailFlag]:
    """The global and special right-tail flags of t against an orbit that
    starts at the periodic point itself."""
    glob = TailFlag(False)
    for k, r in enumerate(orbit):
        d = _right_merge(t, r)
        if d is not None:
            glob = TailFlag(True, d, k)
            break
    special = TailFlag(True, 0, 0) if _right_merge(t, orbit[0]) == 0 else TailFlag(False)
    return glob, special


def stable_unstable_membership(
    space: ZipShiftSpace, p: PeriodicPoint, t: EpPoint
) -> StableUnstableReport:
    """Tail-equality tests of t against the orbit of p.

    The global sets allow any orbit phase; the special variants compare
    against p itself and require agreement on the whole half line.  Left
    tails are compared as the right tails of the mirrored points, where
    index i is depth i + 1.
    """
    orb = orbit_points(space, p)
    s_global, s_special = _right_flags(t, orb)
    u_global, u_special = _right_flags(t._mirrored(), tuple(r._mirrored() for r in orb))
    return StableUnstableReport(s_global, s_special, u_global, u_special)


def heteroclinic_check(
    space: ZipShiftSpace, p: PeriodicPoint, q: PeriodicPoint, y: EpPoint
) -> bool:
    """Whole-half-line membership: right side on p's orbit anchor, left on q's."""
    if q.point in set(orbit_points(space, p)):
        raise InvalidWord("the two periodic orbits coincide")
    return bool(stable_unstable_membership(space, p, y).s_special) and bool(
        stable_unstable_membership(space, q, y).u_special
    )


@dataclass(frozen=True)
class HomoclinicDatum:
    """A point doubly asymptotic to a periodic orbit, with merge data.

    The left tail of ``point`` equals the ``k_back``-shifted orbit point at
    every depth >= n_back; the right tail equals the ``k_fwd``-shifted orbit
    point at every index >= n_fwd.
    """

    periodic: PeriodicPoint
    point: EpPoint
    n_back: int
    n_fwd: int
    k_back: int
    k_fwd: int


def homoclinic_datum(
    space: ZipShiftSpace, p: PeriodicPoint, x: EpPoint
) -> HomoclinicDatum:
    """Derive the merge indices of x against the orbit of p.

    Raises NotInSpace when x lies on the orbit or one of its tails never
    merges with the orbit.
    """
    if x in set(orbit_points(space, p)):
        raise NotInSpace("the point lies on the periodic orbit itself")
    report = stable_unstable_membership(space, p, x)
    back, fwd = report.u_global, report.s_global
    if not (back and fwd):
        raise NotInSpace("the point is not doubly asymptotic to the orbit")
    return HomoclinicDatum(p, x, back.merge + 1, fwd.merge, back.phase, fwd.phase)


@dataclass(frozen=True)
class HomoclinicOrbit:
    """One backward branch history through a homoclinic point.

    ``choices`` lists the branch letters picked at depths 1..n_back-1; all
    deeper letters are forced by the orbit's two-sided lift.  Two orbits are
    the same exactly when their choice words agree.
    """

    datum: HomoclinicDatum
    choices: Word

    def point(self, space: ZipShiftSpace, i: int) -> EpPoint:
        """The orbit entry at index i (index 0 is the datum's point)."""
        if i >= 0:
            return shift_k(space, self.datum.point, i)
        letters = self.choices[:-i]
        if -i > len(self.choices):
            forced, _phase_mod = _forced_letters(space, self.datum)
            letters += tuple(forced(depth) for depth in range(len(self.choices) + 1, -i + 1))
        cur = self.datum.point
        for t in letters:
            cur = _preimage_point(cur, t)
        return cur


def _forced_letters(space: ZipShiftSpace, datum: HomoclinicDatum):
    """The letter forced at each depth from ``n_back`` on, as a function of
    the depth, and the period after which those letters and the anchor's
    left side repeat together.

    The anchor is the orbit point that the left tail merges with; the
    forced letters are its right period read backward.
    """
    anchor = orbit_points(space, datum.periodic)[datum.k_back]
    w = anchor.right_period

    def forced(depth: int) -> str:
        return w[(-depth) % len(w)]

    return forced, math.lcm(len(w), len(anchor.left_period))


def _forced_tail_ok(
    space: ZipShiftSpace,
    datum: HomoclinicDatum,
    leaf: EpPoint,
    forced,
    phase_mod: int,
) -> bool:
    """Can the branch keep following the forced lift letters forever?

    Each step is decided exactly by the pre-image engine; the loop stops
    once the (depth phase, seam window) state repeats, since from then on
    the answers cycle.
    """
    g = labeled_graph_for(space)
    width = len(g.labels[0]) + max(space.n, space.step_k, 1)
    seen: set[tuple[int, Word]] = set()
    cur = leaf
    s = datum.n_back
    while True:
        state = (s % phase_mod, cur.window(0, width))
        if state in seen:
            return True
        seen.add(state)
        t = forced(s)
        if t not in _branches(space, cur)[0]:
            return False
        cur = _preimage_point(cur, t)
        s += 1


def homoclinic_orbits(space: ZipShiftSpace, datum: HomoclinicDatum) -> tuple[HomoclinicOrbit, ...]:
    """All backward branch histories through the datum's point.

    Depths 1..n_back-1 branch over every viable pre-image letter; from depth
    n_back on the letters are forced by the two-sided lift of the orbit
    anchor, and branches whose forced continuation dies are dropped.
    Returned in alphabet order of the choice words.
    """
    forced, phase_mod = _forced_letters(space, datum)
    leaves: list[tuple[Word, EpPoint]] = [((), datum.point)]
    for _ in range(1, datum.n_back):
        grown: list[tuple[Word, EpPoint]] = []
        for choices, cur in leaves:
            for t in _branches(space, cur)[0]:
                grown.append((choices + (t,), _preimage_point(cur, t)))
        leaves = grown
    out = [
        HomoclinicOrbit(datum, choices)
        for choices, leaf in leaves
        if _forced_tail_ok(space, datum, leaf, forced, phase_mod)
    ]
    out.sort(key=lambda o: space.alphabet_aprime.key(o.choices))
    return tuple(out)


def letter_preimage_sum(space: ZipShiftSpace, datum: HomoclinicDatum) -> int:
    """Sum over the free backward depths of the seam letter's fiber size.

    A coarse count of branch letters considered depth by depth; the exact
    orbit count from homoclinic_orbits can exceed it, since independent
    choices multiply rather than add.
    """
    fiber = {a: 0 for a in space.alphabet_a}
    for u in space.language(space.n):
        fiber[space.tm(u)] += 1
    return sum(
        fiber[datum.point.letter(-s)] for s in range(1, datum.n_back)
    )

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
by the two-sided lift of the first orbit point sharing that tail that the
branch can follow forever.  That fixes the branch's whole lift, and the
query that decides cycle words decides whether the space spells it, one
query per point tried.  Both read only the pre-image branch letters; the
path-search classification runs in ``preimages`` alone.
"""
from __future__ import annotations

import math
from collections import Counter

from .errors import InvalidWord, NotInSpace
from .point import EpPoint, point_from_lift, shift, shift_k
from .preimage import _branches, _preimage_point, preimages_k
from .space import ZipShiftSpace
from .symbols import Word, _Value


class PeriodicPoint(_Value):
    """An admissible cycle word together with its two-sided repetition."""

    word: Word
    point: EpPoint

    def __init__(self, word: Word, point: EpPoint):
        self.__dict__.update(word=word, point=point)

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
    if not space._spells(word):
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
    return {_cycle_point(space, w) for w, state in words if space._spells(w, state=state)}


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


class TailFlag(_Value):
    """One membership verdict: ``merge`` is the index from which the tails
    agree (right side: letters at i >= merge; left side: depths > merge),
    and ``phase`` is the orbit shift that makes them agree."""

    holds: bool
    merge: int | None
    phase: int | None

    def __init__(self, holds: bool, merge: int | None = None, phase: int | None = None):
        self.__dict__.update(holds=holds, merge=merge, phase=phase)

    def __bool__(self) -> bool:
        return self.holds


class StableUnstableReport(_Value):
    s_global: TailFlag
    s_special: TailFlag
    u_global: TailFlag
    u_special: TailFlag

    def __init__(self, s_global: TailFlag, s_special: TailFlag, u_global: TailFlag, u_special: TailFlag):
        self.__dict__.update(s_global=s_global, s_special=s_special, u_global=u_global, u_special=u_special)


def _right_merge(t: EpPoint, r: EpPoint) -> int | None:
    """Least i0 >= 0 with t_i = r_i for all i >= i0, or None, for r with no
    right transient (orbit points and their mirrors).  The tails cannot agree
    before t's transient ends: canonical t's last transient letter differs
    from its period's last letter, which is r's letter there."""
    start = len(t.right_transient)
    span = math.lcm(len(t.right_period), len(r.right_period))
    if any(t.letter(i) != r.letter(i) for i in range(start, start + span)):
        return None
    return start


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


class HomoclinicDatum(_Value):
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

    def __init__(self, periodic: PeriodicPoint, point: EpPoint, n_back: int, n_fwd: int, k_back: int,
                 k_fwd: int):
        self.__dict__.update(periodic=periodic, point=point, n_back=n_back, n_fwd=n_fwd, k_back=k_back,
                             k_fwd=k_fwd)


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


class HomoclinicOrbit(_Value):
    """One backward branch history through a homoclinic point.

    ``choices`` lists the branch letters picked at depths 1..n_back-1; all
    deeper letters follow the lift of the first orbit point the branch can
    follow forever, found again by each entry past the choices
    (``_forced_period``), so a choice word stands for that phase too, and
    two orbits are the same exactly when their choice words agree.
    """

    datum: HomoclinicDatum
    choices: Word

    def __init__(self, datum: HomoclinicDatum, choices: Word):
        self.__dict__.update(datum=datum, choices=choices)

    def point(self, space: ZipShiftSpace, i: int) -> EpPoint:
        """The orbit entry at index i (index 0 is the datum's point).

        Raises NotInSpace when a choice letter on the way is not a pre-image
        branch letter of the entry before it.
        """
        if i >= 0:
            return shift_k(space, self.datum.point, i)
        cur = self.datum.point
        for depth, t in enumerate(self.choices[:-i], 1):
            if t not in _branches(space, cur)[0]:
                raise NotInSpace(f"choice {t!r} at depth {depth} is not a pre-image branch letter")
            cur = _preimage_point(cur, t)
        if -i > len(self.choices):
            w = _forced_period(space, self.datum)(cur)
            if w is None:
                raise NotInSpace("the branch follows the lift of no orbit point")
            for depth in range(len(self.choices) + 1, -i + 1):
                cur = _preimage_point(cur, w[-depth % len(w)])
        return cur


def _forced_period(space: ZipShiftSpace, datum: HomoclinicDatum):
    """A function from a branch's point at depth n_back - 1 to the right
    period w of the first orbit point, in orbit order, whose two-sided lift
    the branch can follow forever (letter w[-s mod len(w)] at each depth
    s >= n_back), or None.  The points tried are those whose left side the
    datum's point takes on from depth n_back (mirrored merge below n_back).

    That fixes the branch's lift: w's forced letters left of the seam, the
    branch point's own letters from index 0 on.  w is taken when the space
    spells that lift (``ZipShiftSpace._spells``) and its point is the leaf."""
    back = datum.point._mirrored()
    periods = [
        r.right_period
        for r in orbit_points(space, datum.periodic)
        if (merge := _right_merge(back, r._mirrored())) is not None and merge < datum.n_back
    ]

    def period_for(leaf: EpPoint) -> Word | None:
        rt, rp = leaf.right_transient, leaf.right_period
        for w in periods:
            r = (1 - datum.n_back) % len(w)
            left = w[r:] + w[:r]
            if space._spells(left, rt, rp) and point_from_lift(space, EpPoint._of_symbols(left, (), rt, rp)) == leaf:
                return w
        return None

    return period_for


def homoclinic_orbits(space: ZipShiftSpace, datum: HomoclinicDatum) -> tuple[HomoclinicOrbit, ...]:
    """All backward branch histories through the datum's point.

    Depths 1..n_back-1 branch over every viable pre-image letter; from depth
    n_back on the letters are forced by the two-sided lift of an orbit point
    (see ``_forced_period``), and branches that can follow none are dropped.
    Returned in alphabet order of the choice words.
    """
    period_for = _forced_period(space, datum)
    leaves: list[tuple[Word, EpPoint]] = [((), datum.point)]
    for _ in range(1, datum.n_back):
        leaves = [
            (cs + (t,), _preimage_point(cur, t)) for cs, cur in leaves for t in _branches(space, cur)[0]
        ]
    out = [HomoclinicOrbit(datum, choices) for choices, leaf in leaves if period_for(leaf) is not None]
    return tuple(sorted(out, key=lambda o: space.alphabet_aprime.key(o.choices)))


def letter_preimage_sum(space: ZipShiftSpace, datum: HomoclinicDatum) -> int:
    """Sum over the free backward depths of the seam letter's fiber size.

    A coarse count of branch letters considered depth by depth; the exact
    orbit count from homoclinic_orbits can exceed it, since independent
    choices multiply rather than add.
    """
    fiber = Counter(space.tm.table.values())
    return sum(
        fiber[datum.point.letter(-s)] for s in range(1, datum.n_back)
    )

"""Pre-image oracles shared by the acceptance gate and the property tests.

They decide by index arithmetic and bounded searches over the space's word
queries alone, never through the labeled graph the pre-image engine runs on.
"""

from __future__ import annotations

from zipshift import EpPoint, UndefinedWindow


def unshift_candidate(x, t):
    # y with sigma(y) = x and y_0 = t, by index arithmetic alone
    m = len(x.left_period)
    depth = len(x.left_transient) + m
    lt = tuple(x.letter(-j - 1) for j in range(depth, 0, -1))
    lp = tuple(x.letter(-(depth + 1 + k)) for k in range(m, 0, -1))
    return EpPoint(lp, lt, (t,) + x.right_transient, x.right_period)


def oracle_member(space, y, depth=12):
    # extendability oracle: admissible right ray plus a depth-limited
    # backward search for an A'-lift of the left letters
    n = space.n
    reach = (
        len(y.right_transient)
        + 6 * len(y.right_period)
        + n
        + space.step_k
        + depth
    )
    right = y.window(0, reach)
    if not space.admissible_word(right):
        return False
    targets = [y.letter(-j) for j in range(1, depth + 1)]

    def search(j, lifted):
        if j > depth:
            return True
        for t in space.alphabet_aprime:
            window = ((t,) + lifted + right)[:n]
            try:
                image = space.tm(window)
            except UndefinedWindow:
                continue
            if image != targets[j - 1]:
                continue
            attempt = (t,) + lifted
            if not space.admissible_word(attempt + right):
                continue
            if search(j + 1, attempt):
                return True
        return False

    return search(1, ())


def oracle_preimages(space, x) -> set:
    """Every y with sigma(y) = x: one candidate per A'-letter t whose seam
    window maps to x_{-1}, kept when the depth-12 oracle admits it."""
    n = space.n
    expected = set()
    for t in space.alphabet_aprime:
        seam = (t,) + x.window(0, n - 1)
        try:
            if space.tm(seam) != x.letter(-1):
                continue
        except UndefinedWindow:
            continue
        y = unshift_candidate(x, t)
        if oracle_member(space, y):
            expected.add(y)
    return expected

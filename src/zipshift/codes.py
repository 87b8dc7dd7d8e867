"""Sliding block codes between zip shift spaces, with block, power, and
inversion constructions.

A code is given by two finite tables: one maps source windows of positive
letters to a target letter, the other maps seam blocks (one negative-side
letter followed by a window of positive letters) to a target negative-side
letter.  The constructor checks that the two tables cohere, derives the
target's own transition map from them, and builds the image space as a
relabeled walk graph of the source; the image space's validation then
re-checks the derived map against the actual image language.

Every image of a point here -- under a code, a block presentation or a
power -- is one sliding rule, turned into a point by ``EpPoint._sliding``.
"""
from __future__ import annotations

import random

from dataclasses import dataclass

from .errors import InvalidCode, InvalidWord, UnknownSymbol, ZipShiftError
from .orbits import periodic_points
from .point import EpPoint, point_from_lift, random_point, shift
from .preimage import canonical_lift
from .space import ZipShiftSpace, _minimal_forbidden, full_space, sft_space, sofic_space
from .symbols import Alphabet, TransitionMap, Word


class BlockCodeSpec:
    """A validated sliding block code from one zip shift space to another.

    ``psi_plus`` maps every admissible ``window``-word of positive letters
    to a letter of ``target_aprime`` (``window`` defaults to its longest key,
    or the source's n when it has none); ``psi_minus`` maps every admissible
    seam block (one negative-side letter, then a window) to a letter of
    ``target_a``.  ``m`` is the arity of the image space's transition map,
    which is derived from the tables: each source stretch long enough to
    produce m image letters also forces their image seam letter, and any
    two stretches producing the same image letters must agree on it.

    The image space is constructed as part of validation and exposed as
    ``target``; codes that leave the image's left side depending on the
    choice of backward branches are rejected by the coherence check.
    """

    def __init__(
        self,
        source: ZipShiftSpace,
        target_a: Alphabet,
        target_aprime: Alphabet,
        m: int,
        psi_plus: dict[Word, str],
        psi_minus: dict[Word, str],
        window: int | None = None,
    ):
        if m < 1:
            raise InvalidCode(f"target map arity must be >= 1, got {m}")
        self.psi_plus = {tuple(k): v for k, v in psi_plus.items()}
        self.psi_minus = {tuple(k): v for k, v in psi_minus.items()}
        window = max(map(len, self.psi_plus), default=source.n) if window is None else window
        if window < 1:
            raise InvalidCode(f"window must be >= 1, got {window}")
        self.source = source
        self.target_a = target_a
        self.target_aprime = target_aprime
        self.m = m
        self.window = window

        dom = set(self.psi_plus)
        want = set(source.language(window))
        if dom != want:
            raise InvalidCode(
                "positive table domain mismatch: "
                f"missing {sorted(want - dom)[:3]}, extra {sorted(dom - want)[:3]}"
            )
        vals = set(self.psi_plus.values())
        if not vals <= set(target_aprime.symbols):
            raise InvalidCode(f"positive table emits unknown letters {sorted(vals - set(target_aprime.symbols))}")
        if vals != set(target_aprime.symbols):
            raise InvalidCode(f"positive table never emits {sorted(set(target_aprime.symbols) - vals)}")

        mwant = {
            (a,) + u
            for u in want
            for a in source.alphabet_a
            if source.mixed_admissible((a,), u)
        }
        mdom = set(self.psi_minus)
        if mdom != mwant:
            raise InvalidCode(
                "seam table domain mismatch: "
                f"missing {sorted(mwant - mdom)[:3]}, extra {sorted(mdom - mwant)[:3]}"
            )
        mvals = set(self.psi_minus.values())
        if not mvals <= set(target_a.symbols):
            raise InvalidCode(f"seam table emits unknown letters {sorted(mvals - set(target_a.symbols))}")

        # Coherence: every long-enough source stretch determines both the m
        # image letters and the image seam letter; the map from the former
        # to the latter must be single-valued to be a transition map at all.
        n = source.n
        span = max(m + window - 1, window + 1, n)
        derived: dict[Word, str] = {}
        for u in source.language(span):
            y = tuple(self.psi_plus[u[j : j + window]] for j in range(m))
            seam = self.psi_minus[(source.tm(u[:n]),) + u[1 : window + 1]]
            prev = derived.setdefault(y, seam)
            if prev != seam:
                raise InvalidCode(
                    f"image block {' '.join(y)} forces both seam letters "
                    f"{prev!r} and {seam!r}; the tables do not commute with the shift"
                )

        try:
            self.target = _image_space(
                source, window - 1, lambda u: self.psi_plus[u[:window]],
                target_a, target_aprime, TransitionMap(m, derived),
            )
        except (InvalidWord, UnknownSymbol) as e:
            raise InvalidCode(f"derived image space is inconsistent: {e}") from e


def _image_space(
    source: ZipShiftSpace, width: int, letter, target_a: Alphabet, target_aprime: Alphabet,
    tm: TransitionMap,
) -> ZipShiftSpace:
    """The image of a sliding rule as a sofic space: the source's kept window
    graph at ``width`` (at least the default width), each edge relabeled by
    ``letter`` of its source vertex's label followed by its first letter."""
    g = source._graph(max(width, source._default_width()))
    names = [f"q{i}" for i in range(g.n_vertices())]
    edges = [
        (names[src], names[dst], letter(g.labels[src] + (first,)))
        for src, dst, first, _ in g.edges
    ]
    return sofic_space(target_a, target_aprime, tm, names, edges)


def apply_code(spec: BlockCodeSpec, x: EpPoint) -> EpPoint:
    """The image of x under the code, as a point of spec.target.

    The positive table slides over the canonical lift of x, and the image is
    the target's point of that image lift.  Coherence of the tables makes the
    result independent of which backward branch the lift takes.
    """
    lift = canonical_lift(spec.source, x)
    image = lift._sliding(lambda i: spec.psi_plus[lift.window(i, spec.window)], spec.window - 1)
    return point_from_lift(spec.target, image)


@dataclass(frozen=True)
class CommutationReport:
    ok: bool
    witness: EpPoint | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_commutation(
    spec: BlockCodeSpec, samples: int = 50, rng: random.Random | None = None
) -> CommutationReport:
    """Spot-check code-then-shift against shift-then-code.

    Samples random source points, adds every periodic point of repeat
    length up to 4, sofic sources included, and reports the first point where
    the two sides disagree.
    """
    if samples < 0:
        raise InvalidWord(f"sample count must be >= 0, got {samples}")
    rng = rng or random.Random(0)
    pts = [random_point(spec.source, rng) for _ in range(samples)]
    for mm in range(1, 5):
        pts.extend(p.point for p in periodic_points(spec.source, mm))
    for x in dict.fromkeys(pts):
        try:
            lhs = apply_code(spec, shift(spec.source, x))
            rhs = shift(spec.target, apply_code(spec, x))
        except ZipShiftError:
            return CommutationReport(False, x)
        if lhs != rhs:
            return CommutationReport(False, x)
    return CommutationReport(True, None)


@dataclass(frozen=True)
class NotFound:
    """Inversion failed for every window up to the bound."""

    max_window: int

    def __bool__(self) -> bool:
        return False


def invert_code(
    spec: BlockCodeSpec, max_window: int = 4, rng: random.Random | None = None
) -> BlockCodeSpec | NotFound:
    """Search for a sliding block inverse of the code.

    For each candidate window the inverse tables are forced: all source
    stretches with the same image window must start with the same letter,
    and likewise for seam blocks.  A forced candidate is accepted once it
    round-trips on sampled points in both directions.  A code that maps two
    periodic points to one gets no forced candidate: they differ at some
    index i >= 0, and their stretches from i on share every image window
    but not their first letter.
    """
    if max_window < 1:
        raise InvalidWord(f"window bound must be >= 1, got {max_window}")
    rng = rng or random.Random(0)
    src = spec.source
    for w in range(1, max_window + 1):
        stretches = src.language(w + spec.window - 1)
        zwords: dict[Word, Word] = {
            u: tuple(spec.psi_plus[u[j : j + spec.window]] for j in range(w))
            for u in stretches
        }
        groups: dict[Word, set[str]] = {}
        for u, zw in zwords.items():
            groups.setdefault(zw, set()).add(u[0])
        if any(len(s) > 1 for s in groups.values()):
            continue
        plus_inv = {zw: next(iter(s)) for zw, s in groups.items()}

        mgroups: dict[Word, set[str]] = {}
        for u, zw in zwords.items():
            for a in src.alphabet_a:
                if not src.mixed_admissible((a,), u[: spec.window]):
                    continue
                c = spec.psi_minus[(a,) + u[: spec.window]]
                mgroups.setdefault((c,) + zw, set()).add(a)
        if any(len(s) > 1 for s in mgroups.values()):
            continue
        minus_inv = {k: next(iter(s)) for k, s in mgroups.items()}

        try:
            inv = BlockCodeSpec(
                spec.target, src.alphabet_a, src.alphabet_aprime, src.tm.n, plus_inv, minus_inv, window=w
            )
        except InvalidCode:
            continue

        trial = [random_point(src, rng) for _ in range(50)]
        for mm in range(1, 4):
            trial.extend(p.point for p in periodic_points(src, mm))
        back = [random_point(spec.target, rng) for _ in range(50)]
        try:
            if any(
                apply_code(inv, apply_code(spec, x)) != x for x in dict.fromkeys(trial)
            ) or any(
                apply_code(spec, apply_code(inv, y)) != y for y in dict.fromkeys(back)
            ):
                continue
        except ZipShiftError:
            continue
        return inv
    return NotFound(max_window)


# -- block and power presentations -----------------------------------------


def _joiner(space: ZipShiftSpace, aprime_words: list[Word], a_words: list[Word]) -> str:
    """What joins a block's symbols into its name: "" when every symbol is one
    character, else "."; when that names two blocks of one side alike, the
    first of ``: | / + _ ~ # @`` that occurs in no symbol of either alphabet."""
    symbols = space.alphabet_a.symbols + space.alphabet_aprime.symbols
    free = [c for c in ":|/+_~#@" if not any(c in s for s in symbols)]
    for sep in ["" if all(len(c) == 1 for c in symbols) else ".", *free]:
        if all(len({sep.join(w) for w in words}) == len(words) for words in (aprime_words, a_words)):
            return sep
    raise InvalidWord("every separator names two blocks alike")


def _strided(space: ZipShiftSpace, N: int, s: int, sofic):
    """The recoding of the space by N-blocks that start s letters apart: the
    block presentation at s = 1 and the N-th power at s = N.

    Returns (recoded space, forward map, A'-blocks, A-blocks), the blocks in
    the order of the new alphabets; ``sofic(sep, alphabet_a, alphabet_aprime,
    tm)`` presents the recoding of a sofic space.  The new transition map
    reads the fewest blocks that cover an old window.  A finite-type space's
    forbidden words have at most K = step_k + 1 letters, and r blocks cover
    such a word at every offset once N + (r - 1)s >= K + s - 1; overlapping
    blocks also constrain every pair, and aligned blocks of a space with no
    forbidden words constrain nothing.  Left of the seam the forward map
    reads transition images, at s = N only A-letters.
    """
    n = space.n
    aprime_words, a_words = space.language(N), space.language(N, "a")
    sep = _joiner(space, aprime_words, a_words)
    new_ap = Alphabet([sep.join(w) for w in aprime_words])
    new_a = Alphabet([sep.join(w) for w in a_words])

    def blocks(u: Word, r: int) -> Word:
        return tuple(sep.join(u[j * s : j * s + N]) for j in range(r))

    arity = 1 + -(-(n - 1) // s)
    tm = TransitionMap(arity, {
        blocks(u, arity): sep.join(space.tm.phi_extend(u[: N + n - 1]))
        for u in space.language(N + (arity - 1) * s)
    })
    if space.kind == "sofic":
        new_space = sofic(sep, new_a, new_ap, tm)
    else:
        top = max(2, 2 - (N - space.step_k) // s) if space.step_k or s < N else 0  # the least such r
        forbidden = _minimal_forbidden(
            new_ap.symbols, lambda r: {blocks(u, r) for u in space.language(N + (r - 1) * s)}, top
        )
        new_space = sft_space(new_a, new_ap, tm, forbidden) if forbidden else full_space(new_a, new_ap, tm)

    def forward(x: EpPoint) -> EpPoint:
        def bar(p: int) -> str:
            return x.letter(p) if p < 0 else space.tm(x.window(p, n))

        def block(i: int) -> str:
            return sep.join(x.window(i * s, N) if i >= 0 else map(bar, range(i * s, i * s + N)))

        return x._sliding(block, N + n - 2, s)

    return new_space, forward, aprime_words, a_words


def higher_block(space: ZipShiftSpace, N: int):
    """The sliding N-block presentation of the space.

    Returns (block space, forward map, inverse map).  Each letter of the
    block space names an admissible length-N word; consecutive letters
    overlap in N-1 positions, so the forward map is a conjugacy and the
    inverse just reads off first coordinates.  A sofic space's blocks label
    the edges of its window graph at width N.
    """
    if N < 1:
        raise InvalidWord(f"block length must be >= 1, got {N}")
    block, forward, aprime_words, a_words = _strided(
        space, N, 1, lambda sep, *rest: _image_space(space, N, lambda u: sep.join(u[:N]), *rest)
    )

    def inverse(y: EpPoint) -> EpPoint:
        def first(i: int) -> str:
            words, alphabet = (aprime_words, block.alphabet_aprime) if i >= 0 else (a_words, block.alphabet_a)
            return words[alphabet.index(y.letter(i))][0]

        return y._sliding(first, 0)

    return block, forward, inverse


def higher_power(space: ZipShiftSpace, N: int):
    """The N-step power of the space: letters are aligned N-blocks and one
    step of the new shift is N steps of the old one.

    Returns (power space, forward map).  A sofic space's power is presented
    by the N-edge paths of its presentation.
    """
    if N < 1:
        raise InvalidWord(f"power must be >= 1, got {N}")

    def paths(sep: str, new_a: Alphabet, new_ap: Alphabet, tm: TransitionMap) -> ZipShiftSpace:
        frontier: list[tuple[str, str, Word]] = [
            (v, v, ()) for v in space.presentation_vertices
        ]
        out: dict[str, list[tuple[str, str]]] = {v: [] for v in space.presentation_vertices}
        for s, d, c in space.presentation_edges:
            out[s].append((d, c))
        for _ in range(N):
            frontier = [
                (v0, d, w + (c,)) for v0, v, w in frontier for d, c in out[v]
            ]
        edges = sorted(
            {(v0, v1, sep.join(w)) for v0, v1, w in frontier}
        )
        return sofic_space(new_a, new_ap, tm, list(space.presentation_vertices), edges)

    return _strided(space, N, N, paths)[:2]

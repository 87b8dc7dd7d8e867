"""The A-side and seam languages, read by subset walks on the window graph,
against the image-set enumeration they replaced; and the A'-side itself
against live walks of graphs built apart from the package.

The image-set oracle lists every admissible A'-word long enough, applies phi
and reads off the A-words and seam blocks; minimal forbidden A-words come
from all A-words up to the cutoff, pruned to those with no forbidden factor.
The minimal forbidden words of block and power presentations come from
every tuple of block letters up to the same length bound.  The A'-oracle
(:class:`LiveWalks`) walks the live 2-block graph of a finite-type spec or
the live presentation graph of a sofic one, as drawn, never a graph the
package built.  Spaces are drawn small and unconstrained: full, finite-type
and sofic, at most 4 letters, window n of 1 or 2, letters unused by the
language, A-side collisions, reducible languages and unreachable
presentation vertices all occur.
"""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from zipshift import (
    Alphabet,
    EpPoint,
    InvalidWord,
    NotFiniteType,
    TransitionMap,
    UnknownSymbol,
    build_labeled_graph,
    full_space,
    higher_block,
    higher_power,
    is_admissible,
    periodic_point,
    periodic_points,
    random_point,
    sft_space,
    shift,
    shift_k,
    sofic_space,
)


def _live(vertices, succ) -> set:
    """Vertices with a successor and a predecessor, repeatedly."""
    alive = set(vertices)
    while True:
        keep = {v for v in alive if succ(v) & alive and any(v in succ(u) for u in alive)}
        if keep == alive:
            return alive
        alive = keep


class LiveWalks:
    """The words emitted by walks through live vertices of an edge-labeled graph.

    Finite-type specs become their 2-block graph: vertices are the 2-words
    with no forbidden factor, and u -> v, emitting v[1], is an edge when
    v[0] == u[1] and u + v[1:] has no forbidden factor (forbidden words have
    at most 3 letters, so this sees every constraint).  Sofic specs are
    their presentation, each edge emitting its label.
    """

    def __init__(self, vertices, edges):
        alive = _live(vertices, lambda v: {d for s, d, _c in edges if s == v})
        self.alive = alive
        self.edges = {(s, d, c) for s, d, c in edges if s in alive and d in alive}

    @classmethod
    def of_spec(cls, letters, forbidden=(), presentation=None) -> LiveWalks:
        if presentation is not None:
            return cls(*presentation)

        def ok(w):
            return not any(w[i : i + len(f)] == f for f in forbidden for i in range(len(w) - len(f) + 1))

        blocks = [u for u in itertools.product(letters, repeat=2) if ok(u)]
        return cls(blocks, [(u, v, v[1]) for u in blocks for v in blocks if v[0] == u[1] and ok(u + v[1:])])

    def words(self, k: int) -> set[tuple]:
        level = {(v, ()) for v in self.alive}
        for _ in range(k):
            level = {(d, w + (c,)) for v, w in level for s, d, c in self.edges if s == v}
        return {w for _v, w in level}

    def admissible(self, word) -> bool:
        here = set(self.alive)
        for x in word:
            here = {d for s, d, c in self.edges if s in here and c == x}
        return bool(here)

    def connects(self, a, b) -> bool:
        """Is some word a w b (w possibly empty) admissible?"""
        reached = {d for _s, d, c in self.edges if c == a}
        while True:
            more = reached | {d for s, d, _c in self.edges if s in reached}
            if more == reached:
                return any(s in reached and c == b for s, _d, c in self.edges)
            reached = more


@st.composite
def spaces_with_oracles(draw):
    letters = [str(i) for i in range(draw(st.integers(1, 4)))]
    n = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["full", "sft", "sofic"]))
    letter = st.sampled_from(letters)
    forbidden: set[tuple] = set()
    presentation = None
    if kind == "sft":
        word = st.lists(letter, min_size=2, max_size=3).map(tuple)
        forbidden = draw(st.sets(word, min_size=1, max_size=4))
    if kind == "sofic":
        names = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
        vertex = st.sampled_from(names)
        edges = draw(st.lists(st.tuples(vertex, vertex, letter), min_size=1, max_size=8))
        presentation = (names, edges)
    oracle = LiveWalks.of_spec(letters, forbidden, presentation)
    domain = sorted(oracle.words(n))
    assume(domain)  # an empty language is no space
    a_letters = draw(st.permutations("abc"))[: draw(st.integers(1, 3))]
    table = {w: draw(st.sampled_from(a_letters)) for w in domain}
    alphabet_a = Alphabet([a for a in a_letters if a in table.values()])
    alphabet_aprime = Alphabet(letters)
    tm = TransitionMap(n, table)
    if kind == "full":
        return full_space(alphabet_a, alphabet_aprime, tm), oracle
    if kind == "sft":
        return sft_space(alphabet_a, alphabet_aprime, tm, forbidden), oracle
    return sofic_space(alphabet_a, alphabet_aprime, tm, *presentation), oracle


def spaces():
    return spaces_with_oracles().map(lambda drawn: drawn[0])


def space_with_oracle(letters, n, forbidden=()):
    """A full (no forbidden words) or finite-type space with its oracle, its
    n-words mapped onto a and b in turn, as ``spaces_with_oracles`` builds
    one outside the drawn range of n."""
    oracle = LiveWalks.of_spec(letters, set(forbidden))
    tm = TransitionMap(n, {w: "ab"[i % 2] for i, w in enumerate(sorted(oracle.words(n)))})
    alphabets = Alphabet(["a", "b"]), Alphabet(letters)
    if forbidden:
        return sft_space(*alphabets, tm, set(forbidden)), oracle
    return full_space(*alphabets, tm), oracle


def images(space, k: int) -> set[tuple]:
    return {space.tm.phi_extend(u) for u in space.language(k + space.n - 1)}


def seam_blocks(space, j: int, k: int) -> set[tuple]:
    return {
        (space.tm.phi_extend(u)[:j], u[j : j + k])
        for u in space.language(j + max(k, space.n - 1))
    }


def minimal_forbidden(space) -> set[tuple]:
    cutoff = max(2, space.step_k + space.n)
    bad = {
        w
        for length in range(2, cutoff + 1)
        for w in itertools.product(space.alphabet_a.symbols, repeat=length)
        if w not in images(space, length)
    }

    def contains(big, small):
        return any(big[i : i + len(small)] == small for i in range(len(big) - len(small) + 1))

    return {w for w in bad if not any(v != w and contains(w, v) for v in bad)}


def product_forbidden(space, N: int, power: bool) -> set[tuple]:
    """Minimal forbidden words of the N-block (power: aligned N-block)
    presentation, by trying every tuple of block letters up to the length
    bound: a tuple is forbidden when its blocks do not spell an admissible
    word and none of its proper factors is forbidden.  Letters are single
    characters, so a block letter is its word joined."""
    blocks = ["".join(w) for w in space.language(N)]
    K = space.step_k + 1 if space.step_k else 0
    top = (max(2, (K + N - 2) // N + 1) if K else 0) if power else max(2, K - N + 1)
    forbidden: set[tuple] = set()
    for r in range(2, top + 1):
        for word in itertools.product(blocks, repeat=r):
            if any(word[i : i + f] in forbidden for f in range(2, r) for i in range(r - f + 1)):
                continue
            if power:
                ok = space.admissible_word(tuple("".join(word)))
            else:
                chained = all(a[1:] == b[:-1] for a, b in zip(word, word[1:]))
                ok = chained and space.admissible_word(tuple(word[0] + "".join(b[-1] for b in word[1:])))
            if not ok:
                forbidden.add(word)
    return forbidden


def index_key(alphabet):
    return lambda w: tuple(alphabet.index(c) for c in w)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spaces())
def test_a_side_matches_image_sets(space):
    a_key, ap_key = index_key(space.alphabet_a), index_key(space.alphabet_aprime)
    a_letters = space.alphabet_a.symbols
    for k in range(1, 5):
        want = images(space, k)
        for w in itertools.product(a_letters, repeat=k):
            assert space.admissible_a_word(w) == (w in want)
        assert space.language(k, "a") == sorted(want, key=a_key)
    with pytest.raises(UnknownSymbol):
        space.admissible_a_word(("z",))
    # Seam blocks, with a letter outside both alphabets on each side.
    for k in range(1, 5):
        pairs = set()
        for j in range(1, k):
            want = seam_blocks(space, j, k - j)
            pairs |= want
            for a in itertools.product(a_letters + ("z",), repeat=j):
                for u in itertools.product(space.alphabet_aprime.symbols + ("z",), repeat=k - j):
                    assert space.mixed_admissible(a, u) == ((a, u) in want)
        order = sorted(pairs, key=lambda p: (len(p[0]), a_key(p[0]), ap_key(p[1])))
        assert space.language(k, "mixed") == order
    if space.kind == "sofic":
        with pytest.raises(NotFiniteType):
            space.derived_a_forbidden()
    else:
        assert space.derived_a_forbidden() == minimal_forbidden(space)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spaces_with_oracles())
def test_a_prime_side_matches_live_walks(drawn):
    space, oracle = drawn
    letters = space.alphabet_aprime.symbols
    for k in range(1, 6):
        want = oracle.words(k)
        for w in itertools.product(letters, repeat=k):
            assert space.admissible_word(w) == (w in want)
        assert space.language(k) == sorted(want, key=index_key(space.alphabet_aprime))
    pairs = list(itertools.product(letters, repeat=2))
    failing = next((p for p in pairs if not oracle.connects(*p)), None)
    report = space.is_irreducible()
    assert (report.is_irreducible, report.failing_pair) == (failing is None, failing)
    if failing is None:
        assert set(report.witnesses) == set(pairs)
        for (a, b), w in report.witnesses.items():
            assert len(w) >= 2 and (w[0], w[-1]) == (a, b) and oracle.admissible(w)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spaces_with_oracles().filter(lambda drawn: drawn[0].kind != "sofic"))
def test_periodic_count_matches_listing(drawn):
    """Trace count, listed cycles and a brute-force count agree: w repeated
    is a point exactly when www is admissible, as www holds every cyclic
    window of 3 letters."""
    space, oracle = drawn
    for m in range(1, 5):
        words = itertools.product(space.alphabet_aprime.symbols, repeat=m)
        brute = sum(oracle.admissible(w * 3) for w in words)
        assert space.count_periodic(m) == len(periodic_points(space, m)) == brute


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spaces_with_oracles())
def test_periodic_points_match_live_walks(drawn):
    """Every space kind lists its periodic points: w repeated forever is a
    point exactly when w repeated once more than there are live oracle
    vertices is admissible, since such a walk revisits a vertex after a
    whole number of repeats."""
    space, oracle = drawn
    letters = space.alphabet_aprime.symbols
    reps = len(oracle.alive) + 1
    for m in range(1, 5):
        words = list(itertools.product(letters, repeat=m))
        cycles = {w for w in words if oracle.admissible(w * reps)}
        assert {p.word for p in periodic_points(space, m)} == cycles
        for w in words:
            if w in cycles:
                point = periodic_point(space, w).point
                assert point.window(0, 2 * m) == w * 2 and is_admissible(space, point)
            else:
                with pytest.raises(InvalidWord):
                    periodic_point(space, w)
    with pytest.raises(UnknownSymbol):
        periodic_point(space, letters[:1] + ("z",))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spaces_with_oracles().filter(lambda drawn: drawn[0].kind != "sofic"))
@example(space_with_oracle(["0", "1"], 1, {("0", "1", "1", "0")}))
def test_block_and_power_constraints_match_enumeration(drawn):
    """The block and power spaces' constraints, read off pairs of walk
    states on their presentations, against the tuple-by-tuple enumeration
    they replaced.  The drawn spaces forbid words of at most 3 letters; the
    example's 4-letter word takes the block's forbidden words to 4, 3 and 2
    letters at N = 1, 2 and 3."""
    space = drawn[0]
    for N in range(1, 4):
        assert higher_block(space, N)[0].forbidden == product_forbidden(space, N, power=False)
        assert higher_power(space, N)[0].forbidden == product_forbidden(space, N, power=True)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spaces(), st.randoms(use_true_random=False))
def test_block_and_power_recodings_round_trip(space, rng):
    """Block and power recodings are conjugacies onto admissible points: the
    block map's inverse undoes it, splitting the power map's letters undoes
    that, and both commute with the shifts (N old shifts per new one)."""

    def split(y):
        parts = (y.left_period, y.left_transient, y.right_transient, y.right_period)
        return EpPoint(*(tuple(c for letter in part for c in letter) for part in parts))

    for N in range(1, 4):
        block, fwd, inv = higher_block(space, N)
        power, pfwd = higher_power(space, N)
        for _ in range(3):
            x = random_point(space, rng)
            y, z = fwd(x), pfwd(x)
            assert is_admissible(block, y) and inv(y) == x
            assert fwd(shift(space, x)) == shift(block, y)
            assert is_admissible(power, z) and split(z) == x
            assert pfwd(shift_k(space, x, N)) == shift(power, z)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spaces_with_oracles().filter(lambda drawn: drawn[0].kind != "sofic"))
@example(space_with_oracle(["0", "1"], 3))
@example(space_with_oracle(["0", "1", "2"], 3, {("0", "0"), ("1", "2")}))
def test_adjacency_matches_oracles(drawn):
    """Matrices and window graphs, read off the space's own graphs, against
    per-pair admissibility by the live-walk oracle and the image sets.  The
    two n = 3 examples have window-graph labels longer than the A'-blocks
    (n - 1 > max(step_k, 1)), which the drawn spaces never do."""
    space, oracle = drawn
    letters = space.alphabet_aprime.symbols
    ms = space.build_matrices()
    for i, u in enumerate(ms.aprime_words):
        for j, v in enumerate(ms.aprime_words):
            assert ms.aprime_adj[i][j] == (u[1:] == v[:-1] and oracle.admissible(u + v[-1:]))
    a_longer = images(space, max(ms.n_step, 1) + 1)
    for i, u in enumerate(ms.a_words):
        for j, v in enumerate(ms.a_words):
            assert ms.a_adj[i][j] == (u[1:] == v[:-1] and u + v[-1:] in a_longer)
    seams = seam_blocks(space, len(ms.a_words[0]), len(ms.aprime_words[0]))
    for i, u in enumerate(ms.a_words):
        for j, v in enumerate(ms.aprime_words):
            assert ms.t[i][j] == ((u, v) in seams)
    least = max(space.n - 1, space.step_k, 1)
    for ell in (least, least + 1):
        g = build_labeled_graph(space, ell)
        assert sorted(g.labels) == sorted(oracle.words(ell))
        words = itertools.product(letters, repeat=ell + 1)
        want = sorted((w[:-1], w[-1]) for w in words if oracle.admissible(w))
        assert sorted((g.labels[src], first) for src, _dst, first, _a in g.edges) == want
        for src, dst, first, a_letter in g.edges:
            w = g.labels[src] + (first,)
            assert g.labels[dst] == w[1:] and a_letter == space.tm(w[: space.n])


def wide_space(forbidden):
    """A finite-type space with six A'-letters, n = 2 and the given
    forbidden words, every window mapped onto a, b or c in turn."""
    letters = [str(i) for i in range(6)]
    pairs = list(itertools.product(letters, repeat=2))
    return sft_space(
        Alphabet(["a", "b", "c"]),
        Alphabet(letters),
        TransitionMap(2, {w: "abc"[i % 3] for i, w in enumerate(pairs)}),
        {tuple(w.split()) for w in forbidden},
    )


def test_first_question_lists_no_long_words(monkeypatch):
    """A membership question on a fresh wide space reads the A-side off the
    window graph: no A'-language longer than the graph's width is listed,
    and what is listed is not kept, so listing it again walks again."""
    space = wide_space(["0 4 2 4", "3 2 4 1", "3 3 0 2", "4 1 2 1", "4 3 3 2", "5 4 1 2"])
    walk = space._aprime_walk
    words, listed = walk.words, []

    def spy(k):
        listed.append(k)
        return words(k)

    monkeypatch.setattr(walk, "words", spy)
    assert space.memory() == 3
    assert is_admissible(space, random_point(space, random.Random(0)))
    ell0 = max(space.n - 1, space.step_k, 1)
    assert max(listed, default=0) <= max(space.n, ell0)
    list(words(ell0))
    reads = []

    class CountedMoves(list):
        def __getitem__(self, state):
            reads.append(state)
            return super().__getitem__(state)

    walk._moves = CountedMoves(walk._moves)
    assert list(words(ell0)) and reads


def test_memory_lists_no_a_word(monkeypatch):
    """The A-side step order of a fresh wide space, whose A-side forbids no
    word up to the cutoff, is read off pairs of walk states: no A-word is
    listed."""
    space = wide_space(["0 4 2 4", "3 2 4 1", "3 3 0 2", "4 1 2 1", "4 3 3 2", "5 4 1 2"])
    walk = space._a_walk()

    def refuse(k):
        raise AssertionError(f"listed the A-words of length {k}")

    monkeypatch.setattr(walk, "words", refuse)
    assert space.memory() == 3 and space.derived_a_forbidden() == frozenset()

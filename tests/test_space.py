from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from zipshift import (
    Alphabet,
    InvalidWord,
    NotFiniteType,
    TransitionMap,
    UnknownSymbol,
    canonical_lift,
    full_space,
    is_admissible,
    point_from_lift,
    preimages,
    random_point,
    sft_space,
    sofic_space,
)
from zipshift.cli import space_from_dict, space_to_dict
from zipshift.space import ZipShiftSpace, _prune_superwords, _reversed, _trimmed


def words(space, k, side="aprime"):
    return {" ".join(w) for w in space.language(k, side=side)}


def test_construction_basics(ex21, even, sigma_f):
    assert ex21.kind == "sft" and ex21.n == 1 and ex21.step_k == 1
    assert ex21.memory() == 1
    assert sigma_f.kind == "full" and sigma_f.step_k == 0
    assert even.kind == "sofic" and even.n == 2
    assert even.presentation_vertices == ("P", "Q")


def test_construction_rejections():
    a2 = Alphabet(["a", "b"])
    p2 = Alphabet(["1", "2"])
    with pytest.raises(InvalidWord):
        # not onto: b never occurs as a value
        full_space(a2, p2, TransitionMap(1, {("1",): "a", ("2",): "a"}))
    with pytest.raises(InvalidWord):
        # a table with one window never emits b, so it is not onto (the
        # missing-window refusal is test_constructor_refusals[missing-window])
        full_space(a2, p2, TransitionMap(1, {("1",): "a"}))
    with pytest.raises(InvalidWord):
        # table covers a word the forbidden set kills
        sft_space(
            a2,
            p2,
            TransitionMap(1, {("1",): "a", ("2",): "b"}),
            {("1", "2"), ("2", "2"), ("2", "1")},
        )
    with pytest.raises(InvalidWord):
        sft_space(a2, p2, TransitionMap(1, {("1",): "a", ("2",): "b"}), set())



A2, P2 = Alphabet(["a", "b"]), Alphabet(["1", "2"])
TM2 = TransitionMap(1, {("1",): "a", ("2",): "b"})


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ZipShiftSpace(A2, P2, TM2, "tree"), InvalidWord, "unknown space kind 'tree'"),
        (lambda: ZipShiftSpace(A2, P2, TM2, "sofic"), InvalidWord, "sofic spaces need a presentation graph"),
        (
            lambda: ZipShiftSpace(A2, P2, TM2, "full", forbidden={("1", "1")}),
            InvalidWord,
            "forbidden words are only valid for sft spaces",
        ),
        (
            lambda: ZipShiftSpace(
                A2, P2, TM2, "sofic", forbidden={("1", "1")}, presentation=(["P"], [("P", "P", "1")])
            ),
            InvalidWord,
            "forbidden words are only valid for sft spaces",
        ),
        (
            lambda: ZipShiftSpace(
                A2, P2, TM2, "sft", forbidden={("1", "1")}, presentation=(["P"], [("P", "P", "2")])
            ),
            InvalidWord,
            "a presentation graph is only valid for sofic spaces",
        ),
        (
            lambda: ZipShiftSpace(A2, P2, TM2, "full", presentation=(["P"], [("P", "P", "1")])),
            InvalidWord,
            "a presentation graph is only valid for sofic spaces",
        ),
        (
            lambda: sft_space(A2, P2, TM2, {("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")}),
            InvalidWord,
            "the space has an empty language",
        ),
        (
            lambda: sft_space(A2, P2, TransitionMap(2, {("1", "1"): "a", ("2", "2"): "b"}), {("2", "1")}),
            InvalidWord,
            "transition domain mismatch: missing ['1 2']",
        ),
        (
            lambda: sft_space(A2, P2, TM2, {(("a",), "1")}),
            InvalidWord,
            "forbidden words must be pure A'-words; mixed entries are unsupported",
        ),
        (lambda: sft_space(A2, P2, TM2, {("1",)}), InvalidWord, "forbidden word '1' is shorter than 2"),
        (
            lambda: sofic_space(A2, P2, TM2, ["P", "P"], [("P", "P", "1")]),
            InvalidWord,
            "presentation vertex names must be distinct",
        ),
        (lambda: sofic_space(A2, P2, TM2, ["P"], [("P", "Q", "1")]), InvalidWord, "edge P->Q uses an unknown vertex"),
        (
            lambda: sofic_space(A2, P2, TM2, ["P"], [("P", "P", "3")]),
            UnknownSymbol,
            "edge label '3' is not an A' symbol",
        ),
        # Queries on a built space refuse their arguments the same way.
        (lambda: full_space(A2, P2, TM2).language(0), InvalidWord, "word length must be positive, got 0"),
        (lambda: full_space(A2, P2, TM2).language(2, "bogus"), InvalidWord, "unknown side 'bogus'"),
        (
            lambda: full_space(A2, P2, TM2).mixed_admissible((), ("1",)),
            InvalidWord,
            "mixed words need letters on both sides",
        ),
        (lambda: full_space(A2, P2, TM2).count_periodic(0), InvalidWord, "period must be positive, got 0"),
        (
            lambda: sofic_space(A2, P2, TM2, ["P"], [("P", "P", "1"), ("P", "P", "2")]).count_periodic(1),
            NotFiniteType,
            "periodic counting by trace needs a finite-type space",
        ),
    ],
    ids=[
        "kind", "no-presentation", "full-forbidden", "sofic-forbidden", "sft-presentation", "full-presentation",
        "empty-language", "missing-window", "mixed-forbidden", "short-forbidden",
        "duplicate-vertex", "unknown-vertex", "unknown-label",
        "language-length", "language-side", "mixed-one-sided", "period-zero", "sofic-count",
    ],
)
def test_constructor_refusals(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        # n at most the block length: the n-words are read off the blocks.
        (
            lambda: sft_space(
                Alphabet(["a"]), Alphabet(["1", "2", "3"]), TransitionMap(2, {("2", "2"): "a"}), {("1", "1", "1")}
            ),
            "transition domain mismatch: missing ['1 1', '1 2', '1 3'] and more",
        ),
        # A sofic space: the table is read on the A'-walk, a foreign letter
        # included.
        (
            lambda: sofic_space(
                Alphabet(["a"]),
                Alphabet(["0", "1"]),
                TransitionMap(3, {w: "a" for w in itertools.product("01", repeat=3) if w != ("0", "0", "0")}
                              | {("9", "9", "9"): "a"}),
                ["P", "Q"],
                [("P", "P", "1"), ("P", "Q", "0"), ("Q", "P", "0")],
            ),
            "transition domain mismatch: missing ['0 0 0']; inadmissible ['1 0 1', '9 9 9']",
        ),
        # A one-entry table of a wide full space misses 2^16 - 1 words, and
        # only the first three are named.
        (
            lambda: full_space(Alphabet(["a"]), Alphabet(["0", "1"]), TransitionMap(16, {("0",) * 16: "a"})),
            "transition domain mismatch: missing "
            f"{[' '.join('0' * 14 + tail) for tail in ('01', '10', '11')]} and more",
        ),
    ],
    ids=["blocks", "sofic", "wide"],
)
def test_domain_mismatch_names_at_most_three_missing_words(build, message):
    with pytest.raises(InvalidWord) as exc:
        build()
    assert str(exc.value) == message and len(message) < 1000


def test_language_ex21(ex21):
    assert words(ex21, 1) == {"1", "2", "3"}
    assert words(ex21, 2) == {"1 2", "2 2", "2 3", "3 1", "3 2"}
    assert words(ex21, 2, side="a") == {"a b", "b a", "b b"}
    assert ex21.admissible_word(("3", "1", "2"))
    assert not ex21.admissible_word(("1", "1"))
    assert not ex21.admissible_word(("2", "1"))
    assert not ex21.admissible_a_word(("a", "a"))
    assert ex21.admissible_a_word(("b", "b", "a"))


def test_language_even(even):
    assert words(even, 2) == {"1 1", "1 0", "0 1", "0 0"}
    assert not even.admissible_word(("1", "0", "1"))
    assert even.admissible_word(("1", "0", "0", "1"))
    assert not even.admissible_word(("1", "0", "0", "0", "1"))
    assert even.admissible_word(("0", "0", "0", "0"))


@pytest.mark.parametrize(
    "name", ["ex21", "f3", "classical", "sigma_f", "sigma_g", "even", "five", "coding1", "coding2"]
)
def test_language_in_alphabet_order(request, name):
    """Languages are generated in order, not sorted: the order is still the
    one sorting by symbol indexes gives."""
    space = request.getfixturevalue(name)
    for k in range(1, 6):
        for side, alphabet in (("aprime", space.alphabet_aprime), ("a", space.alphabet_a)):
            got = space.language(k, side)
            assert got == sorted(set(got), key=lambda w: tuple(alphabet.index(c) for c in w))
            assert got == sorted(got, key=alphabet.key)


def test_language_full(sigma_f):
    assert len(sigma_f.language(3)) == 64
    assert sigma_f.admissible_word(("4", "4", "4"))


def test_mixed_admissible(ex21, even):
    assert ex21.mixed_admissible(("a",), ("2",))
    assert not ex21.mixed_admissible(("a",), ("1",))
    assert ex21.mixed_admissible(("b", "a"), ("2", "2"))
    assert not ex21.mixed_admissible(("a", "b"), ("1",))
    assert even.mixed_admissible(("b",), ("1",))
    assert not even.admissible_a_word(("c", "a"))
    assert even.mixed_admissible(("c", "b"), ("1",))


def test_derived_a_forbidden(ex21, f3):
    assert ex21.derived_a_forbidden() == {("a", "a")}
    assert f3.derived_a_forbidden() == set()


def test_matrices_ex21(ex21):
    ms = ex21.build_matrices()
    assert ms.k == 1 and ms.n_step == 1 and ms.m_step == 1
    assert ms.aprime_words == (("1",), ("2",), ("3",))
    assert ms.a_words == (("a",), ("b",))
    assert ms.aprime_adj == ((0, 1, 0), (0, 1, 1), (1, 1, 0))
    assert ms.a_adj == ((0, 1), (1, 1))
    assert ms.t == ((0, 1, 0), (1, 1, 1))


def test_matrices_full(sigma_f):
    ms = sigma_f.build_matrices()
    assert ms.aprime_adj == ((1, 1, 1, 1),) * 4


def test_matrix_sets_compare_and_hash_by_value(ex21, sigma_f):
    for space in (ex21, sigma_f):
        first, second = space.build_matrices(), space.build_matrices()
        assert first == second and hash(first) == hash(second)
    assert ex21.build_matrices() != sigma_f.build_matrices()


def test_matrices_sofic_rejected(even):
    with pytest.raises(NotFiniteType):
        even.build_matrices()


def test_count_periodic(ex21, sigma_f, classical):
    assert [ex21.count_periodic(m) for m in range(1, 6)] == [1, 3, 7, 11, 21]
    assert [sigma_f.count_periodic(m) for m in range(1, 4)] == [4, 16, 64]
    assert [classical.count_periodic(m) for m in range(1, 4)] == [2, 4, 8]


def test_irreducible(ex21, even, five):
    for space in (ex21, even, five):
        rep = space.is_irreducible()
        assert rep.is_irreducible
        assert rep.failing_pair is None
    wit = ex21.is_irreducible().witnesses
    assert wit is not None
    for (s, t), w in wit.items():
        assert w[0] == s and w[-1] == t
        assert ex21.admissible_word(w)


def test_reducible():
    space = sft_space(
        Alphabet(["a", "b"]),
        Alphabet(["1", "2"]),
        TransitionMap(1, {("1",): "a", ("2",): "b"}),
        {("2", "1")},
    )
    rep = space.is_irreducible()
    assert not rep.is_irreducible
    assert rep.failing_pair == ("2", "1")


def test_random_lift_deterministic(ex21, even):
    for space in (ex21, even):
        l1 = space.random_lift(random.Random(7))
        l2 = space.random_lift(random.Random(7))
        assert l1 == l2
        x = point_from_lift(space, l1)
        assert is_admissible(space, x)


_WITHOUT_NUMPY = """
import random, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from zipshift import (
    Alphabet, TransitionMap, is_admissible, periodic_points, preimages, random_point, sft_space,
)
ex21 = sft_space(
    Alphabet(["a", "b"]),
    Alphabet(["1", "2", "3"]),
    TransitionMap(1, {("1",): "a", ("2",): "b", ("3",): "b"}),
    {("1", "1"), ("1", "3"), ("2", "1"), ("3", "3")},
)
x = random_point(ex21, random.Random(0))
print(ex21.count_periodic(3), len(periodic_points(ex21, 3)))
print(bool(is_admissible(ex21, x)), len(preimages(ex21, x).points) > 0)
print(ex21.build_matrices().t == ((0, 1, 0), (1, 1, 1)))
"""

_MATRICES_WITHOUT_NUMPY = """
import runpy, sys
sys.modules["numpy"] = None
sys.argv = ["zipshift", "space", "matrices", sys.argv[1]]
runpy.run_module("zipshift", run_name="__main__")
"""


def test_import_leaves_numpy_unloaded(ex21, tmp_path):
    """Importing the package loads no numpy, and periodic points,
    admissibility, pre-images, build_matrices and ``space matrices`` run
    with numpy unimportable; the command prints the golden CLI output."""
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    path = os.pathsep.join([os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    spec = tmp_path / "ex21.json"
    spec.write_text(json.dumps(space_to_dict(ex21)))
    with open(os.path.join(root, "bench", "golden_cli.json"), encoding="utf-8") as fh:
        matrices = json.load(fh)["space matrices {ex21}"]
    cases = [
        (["import sys, zipshift; print('numpy' in sys.modules)"], "False\n"),
        ([_WITHOUT_NUMPY], "7 7\nTrue True\nTrue\n"),
        ([_MATRICES_WITHOUT_NUMPY, str(spec)], matrices),
    ]
    for args, want in cases:
        out = subprocess.run(
            [sys.executable, "-c", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            check=True,
        ).stdout
        assert out == want


def pairwise_prune(words: set) -> set:
    """The prune by comparing every pair of members."""

    def contains(big, small):
        return any(big[i : i + len(small)] == small for i in range(len(big) - len(small) + 1))

    return {w for w in words if not any(v != w and contains(w, v) for v in words)}


@given(st.sets(st.lists(st.sampled_from("abc"), min_size=1, max_size=5).map(tuple), max_size=12))
def test_prune_superwords_matches_pairwise(words):
    assert _prune_superwords(words) == pairwise_prune(words)



def live_part(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """The vertices left after deleting, again and again, every vertex that
    lacks an in-edge or an out-edge among the vertices still there."""
    alive = set(range(n))
    while True:
        dead = {
            v
            for v in alive
            if not any(s == v and d in alive for s, d in edges) or not any(d == v and s in alive for s, d in edges)
        }
        if not dead:
            return sorted(alive)
        alive -= dead


def rebuilt(step: list[dict], live: list[int]) -> tuple[list[dict], list[dict]]:
    """The live part of a letter-indexed graph rebuilt edge by edge in
    vertex order, as ``(step, back)``."""
    alive, new_id = set(live), {v: i for i, v in enumerate(live)}
    live_step: list[dict] = [{} for _ in live]
    back: list[dict] = [{} for _ in live]
    for i, v in enumerate(live):
        for c, targets in step[v].items():
            for t in targets:
                if t in alive:
                    live_step[i].setdefault(c, []).append(new_id[t])
                    back[new_id[t]].setdefault(c, []).append(i)
    return live_step, back


def ordered(graph: list[dict]) -> list[list]:
    """A letter-indexed graph with its letter order made part of equality."""
    return [list(out.items()) for out in graph]


def joined(graph: list[dict]) -> list[list[int]]:
    """Each vertex's targets in letter order, one entry per edge."""
    return [[t for _c, targets in out.items() for t in targets] for out in graph]


@st.composite
def letter_graphs(draw):
    """Letter-indexed graphs as the constructors build them: one list entry
    per edge, and no letter mapped to an empty list."""
    n = draw(st.integers(0, 7))
    if not n:
        return []
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.sampled_from("abc")), max_size=16))
    step: list[dict] = [{} for _ in range(n)]
    for src, dst, c in edges:
        step[src].setdefault(c, []).append(dst)
    return step


@given(letter_graphs())
def test_trimmed_keeps_vertex_edge_and_letter_order(step):
    """``_trimmed`` against a rebuild of the live part edge by edge: its
    successor lists are the rebuild joined, and the reverse a random lift
    builds is the rebuild's.  With nothing dead the input comes back."""
    edges = [(v, t) for v, out in enumerate(step) for targets in out.values() for t in targets]
    want_live = live_part(len(step), edges)
    want_step, want_back = rebuilt(step, want_live)
    succ = joined(step)
    live, got_step, got_succ = _trimmed(step, succ)
    assert live == want_live
    assert ordered(got_step) == ordered(want_step)
    assert got_succ == joined(want_step)
    assert ordered(_reversed(got_step)) == ordered(want_back)
    if len(live) == len(step):
        assert got_step is step and got_succ is succ


def brute_block_graph(letters, forbidden):
    """The trimmed block graph of a finite-type space, built from its
    definition: the K-words with no forbidden factor as vertices, in
    alphabet order, an edge u -> x[1:] emitting u[0] for each (K+1)-word x
    with no forbidden factor and x[:K] = u, then trimmed by ``live_part``.
    Returns ``(blocks, step, back)``; K is max(step_k, 1)."""
    minimal = pairwise_prune(forbidden)
    k = max(max(len(f) for f in minimal) - 1, 1)

    def clean(w):
        return not any(w[i : i + len(f)] == f for f in minimal for i in range(len(w) - len(f) + 1))

    words = [w for w in itertools.product(letters, repeat=k) if clean(w)]
    index = {w: i for i, w in enumerate(words)}
    edges = [(index[x[:k]], index[x[1:]]) for x in itertools.product(letters, repeat=k + 1) if clean(x)]
    live = live_part(len(words), edges)
    step = [{words[v][0]: [t for s, t in edges if s == v]} for v in range(len(words))]
    live_step, back = rebuilt(step, live)
    return [words[v] for v in live], live_step, back


def periodic_words(letters, forbidden, m: int) -> int:
    """The m-words whose periodic repetition has no forbidden factor."""
    return sum(
        not any(f == (w * 5)[i : i + len(f)] for f in forbidden for i in range(m))
        for w in itertools.product(letters, repeat=m)
    )


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(2, 4).flatmap(
        lambda k: st.tuples(
            st.just("0123"[:k]),
            st.lists(st.lists(st.sampled_from("0123"[:k]), min_size=2, max_size=4).map(tuple), min_size=1, max_size=6),
        )
    )
)
@example(("01", [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]))
@example(("01", [("0", "0"), ("1", "0", "0"), ("1", "1", "1", "0")]))
@example(("012", [("0", "1"), ("1", "1"), ("2", "1")]))
def test_block_graph_matches_brute_force(drawn):
    """Full and finite-type A'-graphs: vertices, edges, letter order and kept
    block words equal the graph built from the definition, trimmed by
    repeated deletion, and so do the successor lists, joined; the empty
    language is refused; periodic counts equal the periodic words, which no
    trimming can change."""
    letters, drawn_words = drawn
    forbidden = set(drawn_words)
    blocks, step, back = brute_block_graph(letters, forbidden)
    alphabet = Alphabet(list(letters))
    tm = TransitionMap(1, {(c,): "a" for c in sorted({b[0] for b in blocks} or letters)})
    if not blocks:
        with pytest.raises(InvalidWord, match="^the space has an empty language$"):
            sft_space(Alphabet(["a"]), alphabet, tm, forbidden)
        return
    space = sft_space(Alphabet(["a"]), alphabet, tm, forbidden)
    assert space.forbidden == pairwise_prune(forbidden)
    assert list(space._blocks) == blocks
    assert ordered(space._step) == ordered(step)
    assert space._succ == joined(step)
    space.random_lift(random.Random(0))
    assert ordered(space._back) == ordered(back)
    for m in range(1, 6):
        assert space.count_periodic(m) == periodic_words(letters, forbidden, m)


@pytest.mark.parametrize("name", ["even", "ex21", "five", "coding2"])
def test_only_a_random_lift_builds_the_reverse_index(name, request):
    """Construction and the membership queries (admissibility, pre-images,
    canonical lift) leave the reverse of the A'-graph unbuilt; the first
    random lift builds it, one entry per edge, and later lifts reuse it.
    The successor lists are the A'-graph joined."""
    fixture = request.getfixturevalue(name)
    space = space_from_dict(space_to_dict(fixture))
    assert space._succ == joined(space._step)
    assert space._back is None
    x = random_point(fixture, random.Random(3))
    assert is_admissible(space, x)
    assert preimages(space, x).points
    canonical_lift(space, x)
    assert space._back is None
    space.random_lift(random.Random(0))
    back = space._back
    assert sum(len(ts) for out in back for ts in out.values()) == sum(map(len, space._succ))
    random_point(space, random.Random(1))
    assert space._back is back

"""Seeded inputs for the benchmark, and the independent model its checks use.

Inputs are CLI JSON specs, the same objects ``zipshift space`` and
``zipshift code`` read from files: the test-suite fixtures plus the scaled
family S(k, n, s), where

- A' = {0..k-1} and A = {a, b, c};
- k distinct forbidden words of length s+1 are drawn from the seed;
- phi assigns a, b, c round-robin over the sorted admissible n-words.

Nothing here imports ``zipshift``.  The :class:`Model` is the benchmark's
own presentation of a spec (a labeled graph whose bi-infinite walks spell
the A'-side), used to draw query points and to check answers, so a wrong
answer from the program cannot agree with itself by construction.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass

Word = tuple  # a tuple of symbol strings

FIXTURES: dict[str, dict] = {
    "ex21": {
        "alphabet_a": ["a", "b"],
        "alphabet_a_prime": ["1", "2", "3"],
        "n": 1,
        "phi": {"1": "a", "2": "b", "3": "b"},
        "kind": "sft",
        "forbidden": ["1 1", "1 3", "2 1", "3 3"],
    },
    "f3": {
        "alphabet_a": ["a", "b"],
        "alphabet_a_prime": ["1", "2", "3"],
        "n": 1,
        "phi": {"1": "a", "2": "b", "3": "b"},
        "kind": "full",
    },
    "classical": {
        "alphabet_a": ["0", "1"],
        "alphabet_a_prime": ["0", "1"],
        "n": 1,
        "phi": {"0": "0", "1": "1"},
        "kind": "full",
    },
    "sigma_f": {
        "alphabet_a": ["a", "b"],
        "alphabet_a_prime": ["1", "2", "3", "4"],
        "n": 1,
        "phi": {"1": "a", "2": "b", "3": "a", "4": "b"},
        "kind": "full",
    },
    "sigma_g": {
        "alphabet_a": ["a"],
        "alphabet_a_prime": ["1", "2", "3", "4"],
        "n": 1,
        "phi": {"1": "a", "2": "a", "3": "a", "4": "a"},
        "kind": "full",
    },
    "even": {
        "alphabet_a": ["a", "b", "c"],
        "alphabet_a_prime": ["0", "1"],
        "n": 2,
        "phi": {"1 1": "a", "1 0": "b", "0 1": "b", "0 0": "c"},
        "kind": "sofic",
        "graph": {
            "vertices": ["P", "Q"],
            "edges": [["P", "P", "1"], ["P", "Q", "0"], ["Q", "P", "0"]],
        },
    },
    "five": {
        "alphabet_a": ["a", "b", "c"],
        "alphabet_a_prime": ["1", "2", "3", "4", "5"],
        "n": 1,
        "phi": {"1": "a", "2": "b", "3": "b", "4": "c", "5": "c"},
        "kind": "sft",
        "forbidden": ["1 4", "2 2", "3 5", "5 1", "4 4"],
    },
    "golden": {
        "alphabet_a": ["b", "c"],
        "alphabet_a_prime": ["0", "1"],
        "n": 2,
        "phi": {"1 0": "b", "0 1": "b", "0 0": "c"},
        "kind": "sft",
        "forbidden": ["1 1"],
    },
    "coding1": {
        "alphabet_a": ["a", "b"],
        "alphabet_a_prime": ["0", "1"],
        "n": 1,
        "phi": {"0": "a", "1": "b"},
        "kind": "full",
    },
    "coding2": {
        "alphabet_a": ["a", "b"],
        "alphabet_a_prime": ["0", "1", "0'", "1'"],
        "n": 1,
        "phi": {"0": "a", "1": "b", "0'": "a", "1'": "b"},
        "kind": "full",
    },
}


def _split(text: str) -> Word:
    return tuple(text.split())


class Model:
    """The benchmark's own presentation of a space spec.

    States and labeled edges: for full and finite-type specs the states are
    the allowed words of length max(step, n, 1) and an edge appends one
    letter; for sofic specs they are the presentation vertices.  The graph
    is trimmed to states on bi-infinite walks, whose edge labels spell
    exactly the admissible A'-sequences.
    """

    def __init__(self, spec: dict):
        self.letters = tuple(spec["alphabet_a_prime"])
        self.a_letters = tuple(spec["alphabet_a"])
        self.n = spec["n"]
        self.phi = {_split(k): v for k, v in spec["phi"].items()}
        self.forbidden = {_split(w) for w in spec.get("forbidden", ())}
        self.step = max((len(w) - 1 for w in self.forbidden), default=0)
        out: dict = {}
        if spec["kind"] == "sofic":
            for v in spec["graph"]["vertices"]:
                out[v] = []
            for src, dst, label in spec["graph"]["edges"]:
                out[src].append((dst, label))
        else:
            width = max(self.step, self.n, 1)
            for u in itertools.product(self.letters, repeat=width):
                if self.allowed(u):
                    out[u] = []
            for u in out:
                for c in self.letters:
                    v = u[1:] + (c,)
                    if v in out and self.allowed(u + (c,)):
                        out[u].append((v, c))
        self.out, self.into = _trim(out)

    def allowed(self, word: Word) -> bool:
        """No forbidden factor (the finite-type test; sofic specs have none)."""
        return not any(
            word[i : i + len(f)] == f
            for f in self.forbidden
            for i in range(len(word) - len(f) + 1)
        )

    def words(self, length: int) -> list[Word]:
        """Admissible A'-words of one length, in letter order."""
        level = {(v, ()) for v in self.out}
        for _ in range(length):
            level = {(d, w + (c,)) for v, w in level for d, c in self.out[v]}
        order = {c: i for i, c in enumerate(self.letters)}
        return sorted({w for _v, w in level}, key=lambda w: [order[c] for c in w])

    def image(self, window: Word) -> str:
        return self.phi[tuple(window)]


def _trim(out: dict) -> tuple[dict, dict]:
    """Keep the states that have a successor and a predecessor, repeatedly."""
    alive = set(out)
    while True:
        has_in = {d for v in alive for d, _c in out[v] if d in alive}
        keep = {v for v in alive if v in has_in and any(d in alive for d, _c in out[v])}
        if keep == alive:
            break
        alive = keep
    new_out = {v: [(d, c) for d, c in out[v] if d in alive] for v in alive}
    new_in: dict = {v: [] for v in alive}
    for v, edges in new_out.items():
        for d, c in edges:
            new_in[d].append((v, c))
    return new_out, new_in


def scaled_spec(k: int, n: int, s: int, rng: random.Random) -> dict:
    """One member of S(k, n, s), drawn from ``rng``.

    Draws are repeated until every letter of A' occurs in the language, so
    the alphabet named in the spec is the alphabet the space uses.
    """
    letters = [str(i) for i in range(k)]
    while True:
        forbidden: set[Word] = set()
        while len(forbidden) < k:
            forbidden.add(tuple(rng.choice(letters) for _ in range(s + 1)))
        spec = {
            "alphabet_a": ["a", "b", "c"],
            "alphabet_a_prime": letters,
            "n": n,
            "phi": {},
            "kind": "sft",
            "forbidden": sorted(" ".join(w) for w in forbidden),
        }
        model = Model(spec)
        n_words = model.words(n)
        used = {c for w in n_words for c in w}
        if len(used) == k and len(n_words) >= 3:
            spec["phi"] = {" ".join(w): "abc"[i % 3] for i, w in enumerate(n_words)}
            return spec


def two_block_code(spec: dict) -> dict:
    """The two-block recoding of a space as a code spec (criterion 07's code)."""
    model = Model(spec)
    n = model.n
    span = 1 + max(2, n - 1)
    plus = {" ".join(u): "".join(u) for u in model.words(2)}
    minus = {}
    for v in model.words(span):
        a = model.image(v[:n])
        minus[f"{a} ; {v[1]} {v[2]}"] = a + model.image(v[1 : 1 + n])
    return {
        "source": spec,
        "target_a": sorted(set(minus.values())),
        "target_a_prime": list(plus.values()),
        "m": 1,
        "psi_plus": plus,
        "psi_minus": minus,
        "window": 2,
    }


@dataclass(frozen=True)
class Seq:
    """A two-sided eventually periodic sequence in the point text layout.

    ``lt`` holds the letter at index -1 last and ``lp`` repeats toward minus
    infinity; ``rt`` starts at index 0 and ``rp`` repeats toward plus
    infinity.
    """

    lp: Word
    lt: Word
    rt: Word
    rp: Word

    def letter(self, i: int) -> str:
        if i >= 0:
            if i < len(self.rt):
                return self.rt[i]
            return self.rp[(i - len(self.rt)) % len(self.rp)]
        depth = -i
        if depth <= len(self.lt):
            return self.lt[-depth]
        return self.lp[-1 - (depth - len(self.lt) - 1) % len(self.lp)]

    def reach(self) -> int:
        """The longest transient plus both period lengths.

        Two sequences agreeing on [-r, r) with r = x.reach() + y.reach()
        are equal: past the transients each side agrees on more than
        p + q - gcd(p, q) letters (Fine and Wilf).
        """
        return max(len(self.lt), len(self.rt)) + len(self.lp) + len(self.rp)

    def text(self) -> str:
        parts = ["(" + " ".join(self.lp) + ")*"]
        if self.lt:
            parts.append(" ".join(self.lt))
        parts.append(";")
        if self.rt:
            parts.append(" ".join(self.rt))
        parts.append("(" + " ".join(self.rp) + ")*")
        return " ".join(parts)


def parse_seq(text: str) -> Seq:
    """Read the point text form ``(lp)* lt ; rt (rp)*``."""
    left, right = text.split(";")
    lp_text, lt_text = left.split(")*")
    rt_text, rp_text = right.split("(")
    return Seq(
        _split(lp_text.strip().lstrip("(")),
        _split(lt_text),
        _split(rt_text),
        _split(rp_text.replace(")*", "")),
    )


def same(x: Seq, y: Seq) -> bool:
    """Equal as sequences, whatever the layout."""
    r = x.reach() + y.reach()
    return all(x.letter(i) == y.letter(i) for i in range(-r, r))


def random_lift(model: Model, rng: random.Random, shape: tuple[int, int, int, int]) -> Seq:
    """A random bi-infinite walk of the model with the given tail lengths.

    ``shape`` is (left period, left transient, right transient, right
    period).  The walk is a cycle, a path and another cycle of the model's
    graph, each drawn at random and redrawn until it closes up.
    """
    lp_len, lt_len, rt_len, rp_len = shape
    states = sorted(model.out, key=str)

    def path(state, length):
        labels = []
        for _ in range(length):
            state, c = rng.choice(model.out[state])
            labels.append(c)
        return state, tuple(labels)

    def cycle(state, length):
        for _ in range(400):
            end, labels = path(state, length)
            if end == state:
                return labels
        return None

    while True:
        u = rng.choice(states)
        left = cycle(u, lp_len)
        if left is None:
            continue
        z, middle = path(u, lt_len + rt_len)
        right = cycle(z, rp_len)
        if right is not None:
            return Seq(left, middle[:lt_len], middle[lt_len:], right)


def point_of_lift(model: Model, lift: Seq) -> Seq:
    """The point whose left side is the transition image of ``lift``."""
    n = model.n
    trans = len(lift.lt) + n - 1
    per = len(lift.lp)
    outward = [model.image([lift.letter(-j + t) for t in range(n)]) for j in range(1, trans + per + 1)]
    return Seq(tuple(outward[trans:][::-1]), tuple(outward[:trans][::-1]), lift.rt, lift.rp)


def mutant(x: Seq, model: Model, rng: random.Random) -> Seq:
    """``x`` with one transient or period letter replaced by another letter."""
    fields = [("lp", model.a_letters), ("lt", model.a_letters), ("rt", model.letters), ("rp", model.letters)]
    fields = [(f, alpha) for f, alpha in fields if getattr(x, f) and len(alpha) > 1]
    name, alpha = rng.choice(fields)
    word = list(getattr(x, name))
    i = rng.randrange(len(word))
    word[i] = rng.choice([c for c in alpha if c != word[i]])
    parts = {"lp": x.lp, "lt": x.lt, "rt": x.rt, "rp": x.rp, name: tuple(word)}
    return Seq(**parts)


def lift_is_admissible(model: Model, lift: Seq) -> bool:
    """Every window of the lift avoids the forbidden words (finite-type specs)."""
    r = lift.reach() + model.step + 2
    width = model.step + 1
    return all(model.allowed(tuple(lift.letter(i + t) for t in range(width))) for i in range(-r, r))


def shifted(model: Model, y: Seq) -> Seq:
    """sigma(y): one step left, with phi of y_0..y_{n-1} entering index -1."""
    seam = model.image([y.letter(t) for t in range(model.n)])
    if y.rt:
        return Seq(y.lp, y.lt + (seam,), y.rt[1:], y.rp)
    return Seq(y.lp, y.lt + (seam,), (), y.rp[1:] + y.rp[:1])


def in_space(model: Model, x: Seq) -> bool:
    """Whether some bi-infinite walk of the model lifts ``x``.

    The walk must spell x's right side from index 0 on, and its transition
    images phi(y_-j .. y_-j+n-1) must spell x's left side.  Both sides are
    eventually periodic, so each is a search over finitely many states.
    """
    n = model.n

    def forward(q, c):
        return [d for d, label in model.out[q] if label == c]

    # Going left the search state is (graph state, the n-1 walk letters to
    # its right), which with the incoming edge's label gives phi's window.
    def backward(state, a):
        q, w = state
        out = []
        for p, c in model.into[q]:
            window = (c,) + w
            if model.phi.get(window) == a:
                out.append((p, window[: n - 1]))
        return out

    right = _endless(set(model.out), x.rp, forward)
    starts = {
        (q, tuple(x.letter(i) for i in range(n - 1)))
        for q in model.out
        if _read({q}, x.rt, forward) & right
    }
    left = _read(starts, x.lt[::-1], backward)
    return bool(_endless(left, x.lp[::-1], backward))


def _read(states: set, word: Word, step) -> set:
    """The states reached by reading ``word`` from any of ``states``."""
    for c in word:
        states = {d for q in states for d in step(q, c)}
    return states


def _endless(states: set, word: Word, step) -> set:
    """Those of ``states`` from which ``word`` can be read again forever."""
    seen, todo = set(states), list(states)
    while todo:
        for d in _read({todo.pop()}, word, step):
            if d not in seen:
                seen.add(d)
                todo.append(d)
    alive = seen
    while True:
        keep = {q for q in alive if _read({q}, word, step) & alive}
        if keep == alive:
            return states & alive
        alive = keep


def write_specs(directory: str, specs: dict[str, dict]) -> dict[str, str]:
    """Write each spec as ``<name>.json``; return name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, spec in specs.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths[name] = path
    return paths

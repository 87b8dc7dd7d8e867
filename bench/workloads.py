"""The benchmark workloads.

Each workload writes its spec files under the output directory, draws its
queries from a seed, and offers three kinds of work to the runner:

- ``setup()``: load the specs and build the spaces, before any
  query; returns the state the queries use;
- ``cold(state, k)``: the first queries on freshly built spaces: those of
  the setup state for k = 0, and for k >= 1 those of ``fresh(k)``, which
  builds another draw of the inputs where the workload has one;
- ``round(state, r)``: the r-th batch of warm queries, drawn from the seed
  and ``r``, so a round is the same work whenever it is replayed.

Every query is an :class:`Answer`: ``run`` calls the program and returns
its output, ``check`` tests that output against an invariant the benchmark
computes itself (see ``specs.py``), and ``tamper`` corrupts an output, so
the self-check can show that a wrong answer is counted.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import specs
from specs import Seq, parse_seq, same

HERE = os.path.dirname(os.path.abspath(__file__))
COLD_DRAWS = 8  # first-answer samples after the first, each on a fresh set-up
GOLDEN_CLI = os.path.join(HERE, "golden_cli.json")


@dataclass
class Answer:
    run: Callable[[], object]
    check: Callable[[object], bool]
    tamper: Callable[[object], object]
    label: str = ""  # what was asked, for failure reports


def _zs():
    import zipshift

    return zipshift


def _cli():
    from zipshift import cli

    return cli


def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _right_matches(x: Seq, y: Seq) -> bool:
    return all(x.letter(i) == y.letter(i) for i in range(x.reach() + y.reach()))


def _lift_of(lift) -> Seq:
    return Seq(lift.left_period, lift.left_transient, lift.right_transient, lift.right_period)


# -- membership ---------------------------------------------------------------


class Membership:
    """Fresh S(6,2,3) spaces; points through is_admissible, preimages, canonical_lift.

    The spaces are one fixed draw of the family, the same for every seed:
    how long derivation and trimming take depends on which forbidden words
    were drawn, and that would otherwise spread the figures across seeds.
    The seed draws the query points.
    """

    name = "membership"
    family = (6, 2, 3)
    n_spaces = 3
    shape = (3, 2, 2, 3)  # lift tails: left period, left transient, right transient, right period
    points_per_space = 8  # per round; every fourth is a one-letter mutant
    tail_percentile = 90

    def __init__(self, seed: int, outdir: str):
        rng = random.Random(f"{self.name}:spaces")
        self.seed = seed
        drawn = {f"s{i}": specs.scaled_spec(*self.family, rng) for i in range(self.n_spaces)}
        self.paths = list(specs.write_specs(os.path.join(outdir, self.name), drawn).values())
        self.models = [specs.Model(s) for s in drawn.values()]
        # More draws of the family, each built fresh for one first-answer sample.
        extra = {f"cold{k}": specs.scaled_spec(*self.family, rng) for k in range(1, COLD_DRAWS + 1)}
        self.cold_paths = list(specs.write_specs(os.path.join(outdir, self.name), extra).values())
        self.cold_models = [specs.Model(s) for s in extra.values()]

    def setup(self):
        cli = _cli()
        return [cli.space_from_dict(_read(p)) for p in self.paths]

    def fresh(self, k: int):
        return [_cli().space_from_dict(_read(self.cold_paths[(k - 1) % COLD_DRAWS]))]

    def cold(self, spaces, k: int) -> list[Answer]:
        """The first query on each space of a fresh set-up (k = 0) or draw (k >= 1)."""
        models = self.models if k == 0 else [self.cold_models[(k - 1) % COLD_DRAWS]]
        rng = random.Random(f"{self.name}:{self.seed}:cold:{k}")
        out = []
        for space, model in zip(spaces, models):
            x = specs.point_of_lift(model, specs.random_lift(model, rng, self.shape))
            out.append(
                Answer(
                    run=lambda space=space, x=x: bool(_zs().is_admissible(space, _zs().parse_point(x.text()))),
                    check=lambda ok: ok is True,
                    tamper=lambda ok: not ok,
                    label=f"cold {k} is_admissible {x.text()}",
                )
            )
        return out

    def round(self, spaces, r: int) -> list[Answer]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        out = []
        for space, model in zip(spaces, self.models):
            for j in range(self.points_per_space):
                x = specs.point_of_lift(model, specs.random_lift(model, rng, self.shape))
                if j % 4 == 3:
                    x = specs.mutant(x, model, rng)
                out.append(self._answer(space, model, x))
        return out

    def _answer(self, space, model, x: Seq) -> Answer:
        def run():
            zs = _zs()
            p = zs.parse_point(x.text())
            if not zs.is_admissible(space, p):
                refused = 0
                for query in (zs.preimages, zs.canonical_lift):
                    try:
                        query(space, p)
                    except zs.NotInSpace:
                        refused += 1
                return (False, refused, None)
            result = zs.preimages(space, p)
            lift = zs.canonical_lift(space, p)
            return (True, [zs.format_point(y) for y in result.points], _lift_of(lift))

        def check(value) -> bool:
            admissible, pre, lift = value
            if not admissible:
                # A refused point must be outside the space, by the model,
                # and refused by every query.
                return pre == 2 and not specs.in_space(model, x)
            ys = [parse_seq(t) for t in pre]
            firsts = {y.letter(0) for y in ys}
            return (
                all(same(specs.shifted(model, y), x) for y in ys)
                and len(firsts) == len(ys)
                and _right_matches(lift, x)
                and specs.lift_is_admissible(model, lift)
                and same(specs.point_of_lift(model, lift), x)
                and lift.letter(-1) in firsts
            )

        def tamper(value):
            admissible, pre, lift = value
            return (not admissible, pre, lift)

        return Answer(run, check, tamper, label=f"membership {x.text()}")


# -- cli ----------------------------------------------------------------------------


CLI_SPECS = ("ex21", "five", "even", "sigma_f", "coding2")

# One process per command, each an argument list.  ``{seed}`` is filled
# from the benchmark seed (the printed output does not depend on it) and
# ``{name}`` with the path of a spec file the workload writes.
CLI_SCRIPT = (
    ("space", "validate", "{ex21}"),
    ("space", "words", "{five}", "-k", "3"),
    ("space", "matrices", "{ex21}"),
    ("space", "irreducible", "{five}"),
    ("graph", "build", "{even}", "--dot", "-"),
    ("point", "shift", "{ex21}", "(b a)* b a b ; 3 1 2 2 (2 3)*"),
    ("point", "preimages", "{sigma_f}", "(a)* ; (1)*", "--classify"),
    ("point", "preimages", "{five}", "(a b)* ; (5 4 3 1)*", "--classify"),
    ("point", "metrics", "{ex21}", "(b)* ; (2 3)*", "(b)* ; (3 2)*"),
    ("periodic", "{ex21}", "-m", "4"),
    ("periodic", "{coding2}", "-m", "3", "--count-only"),
    ("preperiodic", "{ex21}", "(b)* ; (2)*", "--level", "2"),
    ("homoclinic", "{coding2}", "--periodic", "(a b)* ; (0 1')*", "--point", "(a b)* b a ; 1 (0 1')*"),
    ("code", "check", "{code_ex21}", "--samples", "50", "--seed", "{seed}"),
    ("code", "apply", "{code_ex21}", "(b)* ; (2 3)*"),
    ("code", "invert", "{code_ex21}", "--max-window", "2"),
    ("horseshoe", "build", "-n", "2"),
    ("horseshoe", "verify", "-n", "2", "--depth", "6", "--samples", "400", "--seed", "{seed}"),
    ("horseshoe", "stable-string", "10'1'"),
    ("horseshoe", "coding", "-n", "2"),
)
# The first query a user sends about each spec file.
CLI_COLD = (
    ("point", "preimages", "{ex21}", "(b)* ; (2 3)*", "--classify"),
    ("point", "preimages", "{sigma_f}", "(b)* ; (2 4)*", "--classify"),
    ("point", "preimages", "{five}", "(a b)* ; (5 4 3 1)*", "--classify"),
    ("point", "preimages", "{coding2}", "(a b)* ; (0 1')*", "--classify"),
)


def command_key(command: tuple[str, ...]) -> str:
    """The golden-file key of a command: its arguments, space-separated."""
    return " ".join(command)


def load_golden() -> dict[str, str]:
    with open(GOLDEN_CLI, encoding="utf-8") as fh:
        return json.load(fh)


class Cli:
    """A fixed script, one ``python -m zipshift`` process per command."""

    name = "cli"
    tail_percentile = 75
    timeout_s = 60

    def __init__(self, seed: int, outdir: str, root: str, golden: dict[str, str] | None = None):
        self.seed = seed
        self.root = root
        files = {k: specs.FIXTURES[k] for k in CLI_SPECS}
        files["code_ex21"] = specs.two_block_code(specs.FIXTURES["ex21"])
        written = specs.write_specs(os.path.join(outdir, self.name), files)
        self.paths = {k: os.path.relpath(p, root) for k, p in written.items()}  # commands run in root
        self.golden = load_golden() if golden is None else golden
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.in_process = False  # the traced run calls cli.main in this process
        self.setups = 0
        order = random.Random(f"{self.name}:{seed}")
        self.script = list(CLI_SCRIPT)
        order.shuffle(self.script)

    def run_command(self, command: tuple[str, ...]) -> tuple[int, str]:
        argv = [arg.format(seed=self.seed, **self.paths) for arg in command]
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = _cli().main(argv)
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "zipshift", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=self.timeout_s,
        )
        return proc.returncode, proc.stdout

    def _answer(self, command: tuple[str, ...]) -> Answer:
        want = self.golden[command_key(command)]
        return Answer(
            run=lambda: self.run_command(command),
            check=lambda got: got == (0, want),
            tamper=lambda got: (got[0], got[1] + "\n"),
            label=command_key(command),
        )

    def setup(self):
        """One ``space validate`` process; repeated setups cycle through the specs."""
        spec = CLI_SPECS[self.setups % len(CLI_SPECS)]
        self.setups += 1
        code, out = self.run_command(("space", "validate", f"{{{spec}}}"))
        if code != 0 or not out.startswith("ok\t"):
            raise RuntimeError(f"space validate failed on {spec}")
        return None

    def fresh(self, _k: int):
        return self.setup()

    def cold(self, _state, _k: int) -> list[Answer]:
        return [self._answer(c) for c in CLI_COLD]

    def round(self, _state, r: int) -> list[Answer]:
        return [self._answer(c) for c in self.script]


WORKLOADS = {w.name: w for w in (Membership, Cli)}

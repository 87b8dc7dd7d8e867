"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload membership --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run is a closed loop with one client: set up (several times,
reporting the median), send the first query to each fresh space, then send
rounds of warm queries until ``--seconds`` have passed.  Every answer is
checked; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the same work is done in pairs that fit in ``--seconds`` (at least one),
once plain and once with every public
``zipshift`` function wrapped by :mod:`tracing`, and the metrics are per
layer, with the tracing overhead.  Spans and run details are written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

from tracing import LAYERS, Tracer

SETUP_REPEATS = 7
HASH_SEED = "0"
ANSWER_TIMEOUT_S = 60
RUN_GUARD_S = 140  # no new round starts after this much wall time

END_TO_END = {
    "setup_s": "s",
    "first_answer_s": "s",
    "answer_p50_ms": "ms",
    "answer_tail_ms": "ms",
    "answers_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Wrapped functions reported per layer, each as <name>.calls and <name>.self_s.
TRACED = (
    "cli.main",
    "cli.space_from_dict",
    "cli.code_from_dict",
    "space.construct",
    "space.memory",
    "space.language",
    "space.build_matrices",
    "space.count_periodic",
    "graph.build_labeled_graph",
    "graph.vertex_like",
    "graph.export_dot",
    "point.parse_point",
    "point.format_point",
    "point.shift",
    "point.is_admissible",
    "point.random_point",
    "preimage.labeled_graph_for",
    "preimage.point_admissibility",
    "preimage.left_viability",
    "preimage.preimages",
    "preimage.canonical_lift",
    "orbits.periodic_point",
    "orbits.periodic_points",
    "orbits.pre_periodic_points",
    "orbits.homoclinic_orbits",
    "codes.BlockCodeSpec",
    "codes.apply_code",
    "codes.check_commutation",
    "codes.invert_code",
    "horseshoe.build_model",
    "horseshoe.verify_conjugacy",
    "horseshoe.stable_string",
)
PER_LAYER = {
    **{f"{name}.{part}": unit for name in TRACED for part, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "space.forbidden_words": "count",
    "graph.vertices": "count",
    "graph.edges": "count",
    "preimage.viable_ratio": "ratio",
    "orbits.cycle_hit_ratio": "ratio",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


class AnswerTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise AnswerTimeout(f"answer took longer than {ANSWER_TIMEOUT_S}s")


class Runner:
    """Executes answers, timing the program call and checking the output."""

    def __init__(self, corrupt_every: int = 0):
        self.corrupt_every = corrupt_every
        self.attempted = 0
        self.failed = 0
        self.program_s = 0.0
        self.errors: list[str] = []
        signal.signal(signal.SIGALRM, _on_alarm)

    def execute(self, answer) -> float:
        self.attempted += 1
        value, ok = None, True
        signal.setitimer(signal.ITIMER_REAL, ANSWER_TIMEOUT_S)
        t0 = time.perf_counter()
        try:
            value = answer.run()
        except Exception:  # a raised answer is a failed answer, never a crash
            ok = False
            self._record(f"{answer.label}\n{traceback.format_exc(limit=3)}")
        finally:
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.program_s += dt
        if ok:
            if self.corrupt_every and self.attempted % self.corrupt_every == 0:
                value = answer.tamper(value)
            try:
                ok = bool(answer.check(value))
            except Exception:
                ok = False
                self._record(f"{answer.label}\n{traceback.format_exc(limit=3)}")
            if not ok:
                self._record(f"check failed: {answer.label}: {value!r}"[:600])
        if not ok:
            self.failed += 1
        return dt

    def _record(self, text: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(text)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def measure(workload, runner: Runner, seconds: float, started: float) -> dict:
    from workloads import COLD_DRAWS

    setup_times: list[float] = []

    def set_up():
        t0 = time.perf_counter()
        state = workload.setup()
        setup_times.append(time.perf_counter() - t0)
        return state

    for _ in range(SETUP_REPEATS):
        state = set_up()
    gc.collect()
    # First answers are taken on the set-up state and then on fresh spaces
    # at fixed fractions of the warm phase, so that neither one input draw
    # nor one slow stretch of the shared machine decides them; their time
    # does not count as warm time.
    first = [runner.execute(a) for a in workload.cold(state, 0)]
    k = 1
    warm: list[float] = []
    warm_s = 0.0
    r = 0
    while True:
        while k <= COLD_DRAWS and warm_s >= seconds * k / (COLD_DRAWS + 1):
            first += [runner.execute(a) for a in workload.cold(workload.fresh(k), k)]
            k += 1
        if warm_s >= seconds or time.perf_counter() - started >= RUN_GUARD_S:
            break
        t0 = time.perf_counter()
        set_up()  # spreads the set-up samples over the run; the state is dropped
        warm += [runner.execute(a) for a in workload.round(state, r)]
        r += 1
        warm_s += time.perf_counter() - t0
    p = workload.tail_percentile  # fixed per workload, so runs compare the same percentile
    tail = percentile(warm, p)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    print(f"# answer_tail_ms is p{p} of {len(warm)} warm answers over {r} rounds, "
          f"{sum(t > tail for t in warm)} beyond it")
    return {
        "setup_s": statistics.median(setup_times),
        "first_answer_s": statistics.median(first),
        "answer_p50_ms": statistics.median(warm) * 1e3,
        "answer_tail_ms": tail * 1e3,
        "answers_per_s": len(warm) / sum(warm),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def _unit(workload, runner: Runner, r: int) -> float:
    """Program time of one setup, the cold queries and round ``r``."""
    before = runner.program_s
    t0 = time.perf_counter()
    state = workload.setup()
    setup_s = time.perf_counter() - t0
    for a in workload.cold(state, 0):
        runner.execute(a)
    for a in workload.round(state, r):
        runner.execute(a)
    return setup_s + runner.program_s - before


def _wall_ms(argv: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
    return (time.perf_counter() - t0) * 1e3


def measure_traced(workload, runner: Runner, seconds: float, root: str, spans_path: str) -> dict:
    if workload.name == "cli":
        workload.in_process = True
    tracer = Tracer()
    plain = traced = 0.0
    t_start = time.perf_counter()
    r = 0
    while True:
        gc.collect()
        plain += _unit(workload, runner, r)
        gc.collect()
        tracer.install()
        try:
            traced += _unit(workload, runner, r)
        finally:
            tracer.remove()
        r += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / r > seconds:  # the next pair would not fit
            break

    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    bare = statistics.median(_wall_ms([sys.executable, "-c", "pass"], env) for _ in range(3))
    imported = statistics.median(
        _wall_ms([sys.executable, "-c", "import zipshift.cli"], env) for _ in range(3)
    )

    table = tracer.summary()
    metrics: dict[str, float] = {}
    for name in TRACED:
        row = table.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.self_s"] = row["self_s"]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            row["self_s"] for name, row in table.items() if name.split(".")[0] == layer
        )
    counts = tracer.counts
    metrics["cli.interpreter_ms"] = bare
    metrics["cli.import_ms"] = imported - bare
    metrics["space.forbidden_words"] = counts["space.forbidden_words"]
    metrics["graph.vertices"] = counts["graph.vertices"]
    metrics["graph.edges"] = counts["graph.edges"]
    viability = table.get("preimage.left_viability", {"calls": 0})["calls"]
    metrics["preimage.viable_ratio"] = counts["preimage.points_returned"] / viability if viability else 0.0
    tried = table.get("orbits.periodic_point", {"calls": 0})["calls"]
    metrics["orbits.cycle_hit_ratio"] = counts["orbits.points_listed"] / tried if tried else 0.0
    metrics["trace.spans"] = len(tracer.start)
    metrics["trace.overhead_ratio"] = traced / plain
    print(f"# traced {r} unit(s): program time {plain:.3f}s plain, {traced:.3f}s traced")

    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"functions": table, "counts": dict(counts), "spans": tracer.spans()}, fh)
    return metrics


def environment(root: str, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "zipshift", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    sha = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.split()
        if os.path.realpath(top) == os.path.realpath(root):  # not an enclosing repository
            sha = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "machine": platform.platform(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: list[str] | None = None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # The trim loops and derivations iterate over sets, so the string
        # hash seed changes how much work they do (space construction by up
        # to twice).  Every run uses the same one; the CLI children inherit it.
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, default=0, metavar="N",
                        help="self-check only: corrupt every Nth answer before checking it")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "zipshift", "__init__.py")):
        print("error: run from a source checkout; src/zipshift is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    outdir = os.path.join(root, ".bench_out")
    os.makedirs(outdir, exist_ok=True)
    env = environment(root, args)
    print("# env " + json.dumps(env))

    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, outdir, root) if cls.name == "cli" else cls(args.seed, outdir)
    runner = Runner(args.corrupt)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    if args.trace:
        values = measure_traced(workload, runner, args.seconds, root, os.path.join(outdir, f"spans-{tag}.json"))
        units = PER_LAYER
    else:
        values = measure(workload, runner, args.seconds, started)
        units = END_TO_END
    for text in runner.errors:
        print("# failure: " + text.replace("\n", "\n# "), file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    with open(os.path.join(outdir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "error_ratio": runner.failed / runner.attempted, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

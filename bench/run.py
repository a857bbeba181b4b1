"""Benchmark driver for qretro: closed-loop workloads, one client, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --smoke

One operation is one scenario handled the way `qretro <kind>` handles it,
less interpreter start-up: the JSON text is parsed, run through
`run_scenario`, and the report passed to `serialize_report`.  Each workload
repeats a fixed cycle of operations until `--seconds` have passed, always
finishing the cycle it is in.  Operations are timed in CPU time of this
process (see Runner).  Every report is checked outside the timed region; an
operation whose check fails counts as failed.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of
a traced run (see tracer.py).  Run outputs go to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

# One BLAS thread: the machine the reference figures come from has 2 cores,
# and two BLAS threads made solve_jordan at d=64 slower (2.1 ms against
# 1.3 ms).  OpenBLAS reads these when numpy is first imported.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# numpy must not be imported before the BLAS pin and the timed import of
# qretro, so the workload names live here rather than in workloads.py
WORKLOADS = ("dense-channel", "qfi-sweep", "gaussian-grid")

IMPORT_PROBES = 10  # fresh interpreters timing `import qretro`, besides this one
PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
         "t = time.process_time(); import qretro; "
         "print(time.process_time() - t, qretro.__file__)")

END_TO_END = {
    "throughput_ops": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "channels.apply_ms": "ms",
    "channels.apply_calls": "count",
    "channels.kraus_applied": "count",
    "channels.construct_ms": "ms",
    "operator_core.validate_ms": "ms",
    "operator_core.validate_calls": "count",
    "operator_core.eigensolves": "count",
    "operator_core.eig_ms": "ms",
    "operator_core.solve_ms": "ms",
    "estimators.personick_ms": "ms",
    "estimators.complex_ms": "ms",
    "fisher.sld_ms": "ms",
    "fisher.sld_calls": "count",
    "fisher.check_ms": "ms",
    "sampling.ms": "ms",
    "gaussian.grid_ms": "ms",
    "gaussian.grid_calls": "count",
    "gaussian.grid_points": "count",
    "gaussian.closed_form_ms": "ms",
    "scenario.decode_ms": "ms",
    "scenario.encode_ms": "ms",
    "scenario.report_kb": "KiB",
    "trace.scenario_ms": "ms",
    "trace.remainder_ms": "ms",
    "trace.overhead_pct": "%",
}


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _import_probe() -> float:
    """Time `import qretro` in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    seconds, path = proc.stdout.strip().split(maxsplit=1)
    if not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"probe imported qretro from {path}, not {SRC}")
    return float(seconds)


class Runner:
    """Runs one workload's cycles and keeps what the metrics need.

    `clock` times each operation. The end-to-end run uses the process's
    CPU time: an operation is single-threaded compute (BLAS is pinned to
    one thread) that neither sleeps nor waits on I/O, so its CPU time is
    its wall time minus the time the machine's hypervisor ran something
    else on this CPU, which on a shared 2-core guest is the largest source
    of run-to-run spread.  Wall times are kept beside it in `wall`.
    """

    def __init__(self, ops, scenario_module, clock=time.process_time):
        self.ops = ops
        self.scenario = scenario_module
        self.clock = clock
        self.wall: list[list[float]] = [[] for _ in ops]
        self.attempted = 0
        self.failures: list[str] = []
        self.first_results: dict[int, bytes] = {}
        self.cycle_rates: list[float] = []
        self.latencies: list[list[float]] = [[] for _ in ops]  # per operation index
        self.report_bytes = 0

    def operation(self, text: str, loads=json.loads) -> str:
        scenario = loads(text)
        report = self.scenario.run_scenario(scenario)
        return self.scenario.serialize_report(report)

    def cycle(self, timed, record: bool = True) -> None:
        """One pass over the ops; timed(index, text) -> (report text, seconds
        on self.clock, wall seconds).

        Every operation is checked and counted; with record=False (the
        warm-up cycle) its time is left out of the statistics.
        """
        import checks

        earlier: dict[str, dict] = {}
        total = 0.0
        completed = 0
        for i, op in enumerate(self.ops):
            self.attempted += 1
            gc.collect()
            try:
                text, seconds, wall = timed(i, op.text)
            except Exception as exc:  # the library failed: count it, keep running
                self.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            if record:
                total += seconds
                completed += 1
                self.latencies[i].append(seconds)
                self.wall[i].append(wall)
                self.report_bytes += len(text)
            try:
                report = checks.parse_strict(text)
                blob = checks.results_bytes(report)
                if self.first_results.setdefault(i, blob) != blob:
                    raise checks.CheckFailed("results bytes differ from the first run")
                op.check(report["results"], earlier)
                earlier[op.name] = report["results"]
            except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
                self.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
        if completed:
            self.cycle_rates.append(completed / total)

    def timed(self, index: int, text: str):
        start, wall = self.clock(), time.perf_counter()
        out = self.operation(text)
        return out, self.clock() - start, time.perf_counter() - wall


def _median_latency(latencies: list[list[float]]) -> float:
    return statistics.median(t for per_op in latencies for t in per_op)


def _repeat(step, seconds: float) -> None:
    """Call step() once, then again until `seconds` have passed."""
    start = time.perf_counter()
    step()
    while time.perf_counter() - start < seconds:
        step()


def _require_completed(runner: Runner) -> None:
    if not any(runner.latencies):
        raise SystemExit("bench: no operation completed:\n" + "\n".join(runner.failures))


def run_end_to_end(workload: str, seed: int, seconds: float, ops, scenario_module,
                   import_s: float) -> dict:
    """Measured cycles, with the import probes spread over the run.

    A probe runs between cycles, outside any timed operation, once every
    seconds / IMPORT_PROBES; spread out, a burst of machine noise moves one
    or two of them rather than all.
    """
    runner = Runner(ops, scenario_module)
    setup_times = [import_s]
    runner.cycle(runner.timed, record=False)
    start = time.perf_counter()

    def step():
        runner.cycle(runner.timed)
        due = (len(setup_times) - 1) * seconds / IMPORT_PROBES
        if len(setup_times) <= IMPORT_PROBES and time.perf_counter() - start >= due:
            setup_times.append(_import_probe())

    _repeat(step, seconds)
    while len(setup_times) <= IMPORT_PROBES:
        setup_times.append(_import_probe())
    _require_completed(runner)
    metrics = {
        "throughput_ops": statistics.median(runner.cycle_rates),
        "latency_p50_ms": _median_latency(runner.latencies) * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"cycle_rates": runner.cycle_rates, "latencies_s": runner.latencies,
              "wall_latencies_s": runner.wall, "setup_s": setup_times,
              "samples": sum(len(x) for x in runner.latencies)}
    return _result(runner.attempted, runner.failures, metrics, END_TO_END, detail)


def run_traced(workload: str, seed: int, seconds: float, ops, scenario_module) -> dict:
    """Alternate untraced and traced cycles; per-layer figures per operation."""
    import tracer as tracing

    # both sides on the wall clock, which the spans use too
    plain = Runner(ops, scenario_module, clock=time.perf_counter)
    traced = Runner(ops, scenario_module, clock=time.perf_counter)
    tracer = tracing.Tracer(keep_spans=True)
    loads = tracer.wrap(json.loads, "scenario.decode", "json:loads", [])
    additivity: list[float] = []

    def timed(index, text):
        before = sum(tracer.self_time.values())
        out, duration = tracer.run_root(index, lambda: traced.operation(text, loads))
        additivity.append(abs(sum(tracer.self_time.values()) - before - duration))
        return out, duration, duration

    def step():
        plain.cycle(plain.timed)
        tracer.install()
        try:
            traced.cycle(timed)
        finally:
            tracer.uninstall()
        tracer.keep_spans = False  # spans of the first traced cycle only

    plain.cycle(plain.timed, record=False)
    _repeat(step, seconds)
    _require_completed(plain)
    _require_completed(traced)
    n = sum(len(x) for x in traced.latencies)
    per_op_ms = lambda seconds_total: seconds_total / n * 1e3
    st, counts = tracer.self_time, tracer.counts
    untraced = sum(statistics.median(x) for x in plain.latencies if x)
    with_trace = sum(statistics.median(x) for x in traced.latencies if x)
    total_traced = sum(t for x in traced.latencies for t in x)
    metrics = {
        "channels.apply_ms": per_op_ms(st["channels.apply"]),
        "channels.apply_calls": counts["channels.apply_calls"] / n,
        "channels.kraus_applied": counts["channels.kraus_applied"] / n,
        "channels.construct_ms": per_op_ms(st["channels.construct"]),
        "operator_core.validate_ms": per_op_ms(st["operator_core.validate"]),
        "operator_core.validate_calls": counts["operator_core.validate_calls"] / n,
        "operator_core.eigensolves": counts["operator_core.eigensolves"] / n,
        "operator_core.eig_ms": per_op_ms(st["operator_core.eig"]),
        "operator_core.solve_ms": per_op_ms(st["operator_core.solve"]),
        "estimators.personick_ms": per_op_ms(st["estimators.personick"]),
        "estimators.complex_ms": per_op_ms(st["estimators.complex"]),
        "fisher.sld_ms": per_op_ms(st["fisher.sld"]),
        "fisher.sld_calls": counts["fisher.sld_calls"] / n,
        "fisher.check_ms": per_op_ms(st["fisher.check"]),
        "sampling.ms": per_op_ms(st["sampling"]),
        "gaussian.grid_ms": per_op_ms(st["gaussian.grid"]),
        "gaussian.grid_calls": counts["gaussian.grid_calls"] / n,
        "gaussian.grid_points": counts["gaussian.grid_points"] / n,
        "gaussian.closed_form_ms": per_op_ms(st["gaussian.closed_form"]),
        "scenario.decode_ms": per_op_ms(st["scenario.decode"]),
        "scenario.encode_ms": per_op_ms(st["scenario.encode"]),
        "scenario.report_kb": traced.report_bytes / n / 1024,
        "trace.scenario_ms": per_op_ms(total_traced),
        "trace.remainder_ms": per_op_ms(st[tracing.ROOT]),
        "trace.overhead_pct": (with_trace / untraced - 1) * 100,
    }
    # self times of every layer plus the remainder must add up to the
    # operation's duration; a gap means the tracer lost or doubled a span
    worst_gap = max(additivity)
    additive = worst_gap <= 1e-9 + 1e-9 * max(t for x in traced.latencies for t in x)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{workload}-seed{seed}.json", "w") as fh:
        json.dump({"columns": ["id", "parent", "op", "layer", "target", "start", "end"],
                   "spans": tracer.spans, "calls": tracer.calls,
                   "self_time_s": tracer.self_time}, fh)
    detail = {"untraced_latencies_s": plain.latencies, "traced_latencies_s": traced.latencies,
              "additivity_gap_s": worst_gap, "traced_operations": n}
    return _result(plain.attempted + traced.attempted, plain.failures + traced.failures,
                   metrics, PER_LAYER, detail, correct=additive)


def _result(attempted: int, failures: list[str], metrics: dict, units: dict,
            detail: dict, correct: bool = True) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "detail": dict(detail, failures=failures),
    }


def _load_library() -> tuple[float, object]:
    """Import qretro from this checkout; return (seconds, qretro.scenario)."""
    sys.path.insert(0, str(SRC))
    start = time.process_time()
    import qretro
    import qretro.scenario
    seconds = time.process_time() - start
    if not Path(qretro.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported qretro from {qretro.__file__}, not {SRC}")
    return seconds, qretro.scenario


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import_s, scenario_module = _load_library()
    import workloads

    ops = workloads.WORKLOADS[workload](seed)
    if trace:
        return run_traced(workload, seed, seconds, ops, scenario_module)
    return run_end_to_end(workload, seed, seconds, ops, scenario_module, import_s)


def smoke(seed: int) -> int:
    """Each workload's cycle untraced and traced (after a warm-up), every check on."""
    _, scenario_module = _load_library()
    import workloads

    attempted, failures, correct = 0, [], True
    for name, make in workloads.WORKLOADS.items():
        ops = make(seed)
        result = run_traced(name, seed, 0, ops, scenario_module)
        attempted += result["attempted"]
        failures += result["detail"]["failures"]
        correct = correct and result["correct"]
        print(f"{name}: {len(ops)} operations per cycle, checked", file=sys.stderr)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures)}))
    return 0 if correct and not failures else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own fresh process; a table, then all results."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return _fail(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        r = results[name]
        print(f"{name}: attempted {r['attempted']}, failed {r['failed']}, "
              f"correct {r['correct']}")
        for metric, m in r["metrics"].items():
            print(f"  {metric:30s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one checked cycle of every workload, untraced and traced")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "qretro" / "__init__.py").is_file():
        return _fail(f"no qretro sources at {SRC}")
    os.environ.update(BLAS_PIN)
    if args.smoke:
        return smoke(args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh)
    detail = result.pop("detail")
    for failure in detail["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Runs one workload inside this process and prints one JSON object.

Started by run.py, once per set-up sample (`--setup-only`) and once for the
measured run.  Set-up is importing `specialforms` from the checkout's
`src/` and generating and writing the inputs.  Then passes over the job list
repeat until `--seconds` is used up (always at least one).  With
`--trace 1` each untraced pass is followed by a traced one; its spans give
the per-layer metrics, and the ratio of the two pass times is the tracing
overhead.  A fixed reference search, timed between jobs every couple of
seconds, gives the machine-speed factor that reported times are scaled by.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
COUNT_UNITS = ("count", "bytes")


# per-layer ratios: numerator and denominator, each a per-layer value
RATIOS = {
    "democratic.democratic_ratio": ("democratic.democratic", "democratic.candidates"),
    "graphs.find_relabeling.hit_ratio": ("graphs.find_relabeling.hits", "graphs.find_relabeling.calls"),
    "calibration.converged_ratio": ("calibration.converged", "calibration.random_restarts"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pass_value(name: str, summary: dict, counters: dict):
    """One traced pass's value of a per-layer metric: `<span>.calls`, `.s`
    and `.self_s` come from the span summary, ratios from RATIOS, anything
    else from the counters the spans recorded."""
    if name in RATIOS:
        return _ratio(*(_pass_value(n, summary, counters) for n in RATIOS[name]))
    span, _, key = name.rpartition(".")
    if key in ("calls", "s", "self_s"):
        return summary.get(span, {}).get(key, 0 if key == "calls" else 0.0)
    return counters.get(name, 0)


# Seconds one count of `_queens()` takes on the machine the benchmark was
# defined on (Intel Xeon, 2 vCPUs, Python 3.11.7) when nothing slows it.
REFERENCE_S = 0.021
# Seconds between reference samples.  Samples fall between jobs, so a job
# longer than this is followed directly by one.
REFERENCE_EVERY_S = 2.0


def _queens(n: int = 10) -> int:
    """Number of ways to place n non-attacking queens, by backtracking."""
    cols, up, down = [False] * n, [False] * (2 * n), [False] * (2 * n)

    def place(row: int) -> int:
        if row == n:
            return 1
        found = 0
        for c in range(n):
            if not (cols[c] or up[row + c] or down[row - c + n]):
                cols[c] = up[row + c] = down[row - c + n] = True
                found += place(row + 1)
                cols[c] = up[row + c] = down[row - c + n] = False
        return found

    return place(0)


def reference_s() -> float:
    """Median time of five counts of the 724 placements of 10 queens.

    The search shares no code with the library, so its time follows only how
    fast this machine runs interpreter code at the moment.  The machine the
    benchmark was defined on is shared, and its speed drifts by up to a
    factor of two over minutes.  Reported times are therefore scaled by
    REFERENCE_S over the median of these samples in the same run."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        count = _queens()
        times.append(time.perf_counter() - start)
        if count != 724:
            raise RuntimeError(f"reference search counted {count}, not 724")
    return statistics.median(times)


def _digest(material) -> str:
    if not isinstance(material, bytes):
        material = json.dumps(material, sort_keys=True).encode()
    return hashlib.sha256(material).hexdigest()


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import specialforms

    where = Path(specialforms.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise ImportError(f"specialforms imported from {where}, not from {ROOT / 'src'}")
    return specialforms


class PassRunner:
    """Runs the steps of one pass, timing the library work only."""

    def __init__(self, tracer, traced: bool, expected: dict, references: list):
        self.tracer = tracer
        self.traced = traced
        # (time taken, reference time): one whenever REFERENCE_EVERY_S has passed
        self.references = references
        # digests every step must reproduce: the baseline's, else the first pass's
        self.expected = expected
        self.wall_s = 0.0
        self.jobs: list[tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, name, run, check, counted=True):
        self.tracer.job = name
        self.tracer.active = self.traced
        start = time.perf_counter()
        try:
            output = run()
            error = None
        except Exception:  # a library failure fails this job, not the run
            output, error = None, traceback.format_exc(limit=3)
        finally:
            elapsed = time.perf_counter() - start
            self.tracer.active = False
        self.wall_s += elapsed
        if error is None:
            try:
                problems, material = check(output)
            except Exception:  # an output of the wrong shape fails its check
                problems, material = [traceback.format_exc(limit=3)], None
            digest = _digest(material)
            if self.expected.setdefault(name, digest) != digest:
                problems.append("output digest differs from the baseline or an earlier pass")
        else:
            problems = [error]
        if counted:
            self.jobs.append((name, elapsed))
        if counted or problems:
            self.attempted += 1
            self.failed += bool(problems)
        self.problems.extend(f"{name}: {p}" for p in problems)
        if time.perf_counter() - self.references[-1][0] >= REFERENCE_EVERY_S:
            self.references.append((time.perf_counter(), reference_s()))
        return output


def _run_pass(workload, tracer, traced: bool, expected: dict, references: list) -> PassRunner:
    runner = PassRunner(tracer, traced, expected, references)
    if traced:
        tracer.install()
    try:
        workload.run_pass(runner)
    finally:
        if traced:
            tracer.uninstall()
    return runner


def _per_layer(traced_runs: list, speed: float, untraced_wall: float, traced_wall: float) -> tuple[dict, list]:
    from spans import summarize

    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    units.pop("trace.overhead_ratio")
    per_pass = []
    for spans, counters in traced_runs:
        summary = summarize(spans)
        per_pass.append({name: _pass_value(name, summary, counters) for name in units})
    metrics = {}
    for name, unit in units.items():
        values = [p[name] for p in per_pass]
        # counts repeat on every pass; times and ratios are pass medians
        value = values[0] if unit in COUNT_UNITS else statistics.median(values)
        if unit == "s":
            value *= speed
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_ratio"] = {"value": _ratio(traced_wall, untraced_wall), "unit": "ratio"}
    return metrics, per_pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    specialforms = _import_library()
    from spans import Tracer
    from workloads import WORKLOADS

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed)
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = _measure(workload, Tracer(), args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas = "unknown"
    result.update(
        setup_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env={
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "blas": blas,
            "specialforms": specialforms.__version__,
        },
    )
    print(json.dumps(result))
    return 0


def _measure(workload, tracer, args) -> dict:
    baseline_path = HERE / "baseline.json"
    baseline = json.loads(baseline_path.read_text()) if baseline_path.exists() else {}
    expected = dict(baseline.get(args.workload, {}).get("digests", {}))

    untraced: list[PassRunner] = []
    traced: list[PassRunner] = []
    traced_runs = []
    deadline = time.perf_counter() + args.seconds
    references = [(time.perf_counter(), reference_s())]
    while True:
        cycle = time.perf_counter()
        untraced.append(_run_pass(workload, tracer, False, expected, references))
        if args.trace:
            traced.append(_run_pass(workload, tracer, True, expected, references))
            traced_runs.append(tracer.take())
        now = time.perf_counter()
        if now + (now - cycle) > deadline:
            break
    references.append((time.perf_counter(), reference_s()))
    speed = REFERENCE_S / statistics.median(t for _, t in references)

    runs = untraced + traced
    job_times = sorted(t for r in untraced for _, t in r.jobs)
    walls = [r.wall_s for r in untraced]
    raw = {
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(job_times) if job_times else 0.0,
    }
    if len(job_times) >= 100:
        raw["job_p90_s"] = statistics.quantiles(job_times, n=10)[-1]
    result = {
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "problems": [p for r in runs for p in r.problems][:50],
        "digests": expected,
        "untraced_walls": walls,
        "job_count": len(job_times),
        "reference_samples": [t for _, t in references],
        "speed": speed,
        "raw": raw,
        **{name: value * speed for name, value in raw.items()},
    }
    if args.trace:
        traced_walls = [r.wall_s for r in traced]
        metrics, per_pass = _per_layer(
            traced_runs, speed, statistics.median(walls), statistics.median(traced_walls)
        )
        result.update(traced_walls=traced_walls, per_layer=metrics, per_layer_passes=per_pass)
        # output bytes are left out: comass output holds floats whose digits vary with the seed
        counts = [name for name, m in metrics.items() if m["unit"] == "count"]
        result["counts"] = {name: metrics[name]["value"] for name in counts}
        result["counts_repeat"] = all(
            p[name] == per_pass[0][name] for p in per_pass for name in counts
        )
        _write_spans(args, traced_runs)
    return result


def _write_spans(args, traced_runs) -> None:
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    fields = ["name", "start", "end", "parent", "job"]
    passes = [[[getattr(s, f) for f in fields] for s in spans] for spans, _ in traced_runs]
    path.write_text(json.dumps({"fields": fields, "passes": passes}))


if __name__ == "__main__":
    sys.exit(main())

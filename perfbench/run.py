"""Benchmark for specialforms: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload octonion --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
Each workload runs in a worker process of its own (worker.py), so memory
and set-up time are per workload, with BLAS capped at the number of usable
cores.  Set-up is sampled in several fresh processes and reported as the
median.  Every metric is printed by name with its unit, followed by the
result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones from untraced passes;
with `--trace 1` the per-layer ones from traced passes.  Times are scaled to
a fixed machine speed measured in the same run (see `reference_s` in
worker.py); the unscaled ones are printed and recorded next to them.  The full record
(environment, per-pass times, output digests, deterministic counts) goes to
perfbench/out/, and the spans of a traced run next to it.  The exit code is
1 when any output check fails and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("octonion", "solver", "classify", "comass")
SETUP_SAMPLES = 8  # fresh processes that only set up; the measured run adds one more
RUN_LIMIT_S = 170  # the whole run, set-up samples included, ends within this


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "specialforms").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _worker(args, env, extra, timeout) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"worker exited with {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _show(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name:36s} {value!r:>24} {unit:6s} {note}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        return _fail("--seconds must lie in [1, 60]")
    if not (ROOT / "src" / "specialforms" / "__init__.py").is_file():
        return _fail(f"no library source at {ROOT / 'src' / 'specialforms'}; run from a checkout")

    nproc = len(os.sched_getaffinity(0))
    threads = {k: str(nproc) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, **threads)
    OUT.mkdir(exist_ok=True)
    started = time.monotonic()
    try:
        # half the set-up samples before the measured run and half after, so
        # that one slow spell of a shared machine does not hit all of them
        half = SETUP_SAMPLES // 2
        setups = [_worker(args, env, ["--setup-only"], 10)["setup_s"] for _ in range(half)]
        result = _worker(args, env, [], RUN_LIMIT_S - 10 * half - (time.monotonic() - started))
        setups += [_worker(args, env, ["--setup-only"], 10)["setup_s"] for _ in range(half)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    setups.append(result["setup_s"])

    # the set-up samples are taken right around the measured run, so its
    # machine-speed factor applies to them too
    result["raw"]["setup_s"] = statistics.median(setups)
    result["setup_s"] = result["raw"]["setup_s"] * result["speed"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: {"value": result[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds}s, trace {args.trace}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    raw = result["raw"]
    _show("speed", result["speed"], "ratio", "reference time when defined over its median in this run")
    notes = {
        "wall_s": f"median of {len(result['untraced_walls'])} untraced passes",
        "job_p50_s": f"of {result['job_count']} jobs",
        "job_p90_s": f"of {result['job_count']} jobs",
        "setup_s": f"median of {len(setups)} processes",
    }
    for name, m in end_to_end.items():
        note = f"unscaled {raw[name]:.6g} s, {notes[name]}" if name in raw else ""
        _show(name, m["value"], m["unit"], note)
    if "job_p90_s" in raw:
        _show("job_p90_s", result["job_p90_s"], "s", f"unscaled {raw['job_p90_s']:.6g} s, {notes['job_p90_s']}")
    _show("failed_ratio", failed / attempted, "ratio", f"{failed} of {attempted} jobs")
    for name, m in result.get("per_layer", {}).items():
        _show(name, m["value"], m["unit"])
    # counts may drop when later work removes calls; outputs (digests) may not change
    baseline = json.loads((HERE / "baseline.json").read_text()) if (HERE / "baseline.json").exists() else {}
    for name, value in result.get("counts", {}).items():
        expected = baseline.get(args.workload, {}).get("counts", {}).get(name, value)
        if value != expected:
            print(f"note: {name} = {value}, baseline {expected}")
    if not result.get("counts_repeat", True):
        print("note: counts differ between the traced passes of this run")

    env_record = dict(
        result["env"],
        nproc=nproc,
        blas_threads=nproc,
        commit=_commit(),
        source_sha256=_source_digest(),
        seed=args.seed,
    )
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env_record,
        "end_to_end": end_to_end,
        "setup_samples": setups,
        "failed_ratio": failed / attempted,
        **{k: v for k, v in result.items() if k != "env"},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    metrics = result["per_layer"] if args.trace else end_to_end
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

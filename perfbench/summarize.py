"""Summarise the run records in perfbench/out/ across seeds.

    python3 perfbench/summarize.py [--baseline]

For each workload and end-to-end metric, prints the median over the
untraced runs, the quartiles and the spread (distance between the first
and third quartile as a share of the median), computed as the acceptance
rule does, with `statistics.quantiles(values, n=4)`, and the same for the
times before machine-speed scaling.  It also checks that
output digests and deterministic counts agree across every run of a
workload.  With `--baseline` it writes these medians, the digests and the
counts to perfbench/baseline.json, which later runs check their outputs
against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"


def _records(workload: str, trace: int) -> list[dict]:
    return [
        json.loads(p.read_text())
        for p in sorted(OUT.glob(f"{workload}-seed*-trace{trace}.json"))
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", action="store_true", help="write perfbench/baseline.json")
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = {}
    consistent = True
    for w in bench["workloads"]:
        name = w["name"]
        untraced, traced = _records(name, 0), _records(name, 1)
        if not untraced:
            continue
        print(f"{name}: {len(untraced)} untraced runs, seeds {[r['env']['seed'] for r in untraced]}")
        entry = {"end_to_end": {}}
        for metric, bound in bounds.items():
            values = [r["end_to_end"][metric]["value"] for r in untraced]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            raw = [r["raw"][metric] for r in untraced if metric in r["raw"]]
            raw_note = ""
            if len(raw) > 1:
                rq1, _, rq3 = statistics.quantiles(raw, n=4)
                raw_note = f"  (unscaled: median {statistics.median(raw):.6f}, spread {(rq3 - rq1) / statistics.median(raw):.4f})"
            print(f"  {metric:12s} median {median:12.6f}  q1 {q1:12.6f}  q3 {q3:12.6f}  "
                  f"spread {spread:7.4f}  bound {bound}  {flag}{raw_note}")
            entry["end_to_end"][metric] = {"median": median, "q1": q1, "q3": q3, "runs": len(values)}
        runs = untraced + traced
        digests = [r["digests"] for r in runs]
        failed = sum(r["failed"] for r in runs)
        same = all(d == digests[0] for d in digests)
        counts = [r["counts"] for r in traced]
        same_counts = all(c == counts[0] for c in counts)
        consistent &= same and same_counts and failed == 0
        print(f"  failed jobs {failed}; digests identical across {len(runs)} runs: {same}; "
              f"counts identical across {len(traced)} traced runs: {same_counts}")
        entry["digests"] = digests[0]
        if counts:
            entry["counts"] = counts[0]
            entry["per_layer"] = {
                k: statistics.median(r["per_layer"][k]["value"] for r in traced)
                for k in traced[0]["per_layer"]
            }
        entry["env"] = untraced[0]["env"]
        baseline[name] = entry
    if args.baseline:
        if not consistent:
            print("not writing a baseline from inconsistent or failing runs", file=sys.stderr)
            return 1
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
        print(f"wrote {BASELINE}")
    return 0 if consistent else 1


if __name__ == "__main__":
    sys.exit(main())

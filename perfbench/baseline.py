"""Repeat benchmark runs and summarise them.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For each workload in BENCHMARK.json this makes two sets of untraced runs,
one ``run.py`` process at a time, each set on seeds 1 to ``--runs`` for
``run_seconds``.  For every end-to-end metric it reports each set's
median, quartiles (``statistics.quantiles(n=4)``) and quartile spread as a
share of the median, next to a third of the metric's bound, and whether
the second set's median is worse than the first's by no more than the
bound.  It then makes one traced run on seed 1 and reports whether its
output digest equals the untraced run's, and the tracing overhead:
traced minus untraced rate of each phase.  Run it from the root of a
checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().split("\n")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summarise(values: list[float], bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
            "third_of_bound": bound / 3, "values": values}


def run_set(workload: str, spec: dict, runs: int) -> tuple[dict, list[dict]]:
    records, results = [], []
    for seed in range(1, runs + 1):
        record, result = run_once(workload, seed, spec["run_seconds"], 0)
        records.append(record)
        results.append(result)
        print(workload, seed, json.dumps({k: round(v["value"], 4)
                                          for k, v in result["metrics"].items()}),
              "failed", result["failed"], file=sys.stderr, flush=True)
    summary = {
        "seeds": [r["seed"] for r in records],
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "all_correct": all(r["correct"] for r in results),
        "metrics": {m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in results],
                                         m["bound"]) for m in spec["end_to_end"]},
    }
    return summary, records


def agreement(first: dict, second: dict, spec: dict) -> dict:
    """How much worse the second set's median is than the first's."""
    out = {}
    for m in spec["end_to_end"]:
        a, b = first["metrics"][m["name"]]["median"], second["metrics"][m["name"]]["median"]
        worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
        out[m["name"]] = {"worse_by": worse, "bound": m["bound"], "within": worse <= m["bound"]}
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", default=None, help="write the summary JSON here")
    args = p.parse_args(argv)

    report = {"seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        sets, untraced = [], None
        for _ in range(SETS):
            summary, records = run_set(workload, spec, args.runs)
            sets.append(summary)
            untraced = untraced or records[0]
        traced, traced_result = run_once(workload, 1, spec["run_seconds"], 1)
        entry = {
            "stamp": {k: untraced[k] for k in ("commit", "source_sha256", "nproc", "python",
                                               "numpy", "blas", "thread_env", "mix")},
            "sets": sets,
            "agreement": agreement(sets[0], sets[1], spec),
            "traced": {
                "seed": 1,
                "correct": traced_result["correct"],
                "digest_equal": traced["output_digest"] == untraced["output_digest"],
                "spans": traced["spans"],
                "overhead_rate": {m: traced["phases"][m]["rate"]
                                  - untraced["phases"][m]["rate"]
                                  for m in traced["phases"]},
                "untraced_rate": {m: untraced["phases"][m]["rate"]
                                  for m in untraced["phases"]},
                "per_layer": {k: v["value"] for k, v in traced_result["metrics"].items()},
            },
        }
        report["workloads"][workload] = entry
        for k, summary in enumerate(sets, 1):
            for name, s in summary["metrics"].items():
                flag = "" if s["spread"] < s["third_of_bound"] else "  WIDE"
                print(f"{workload:16s} set {k} {name:24s} median {s['median']:10.4f} "
                      f"spread {s['spread']:.4f}{flag}", file=sys.stderr)
        for name, a in entry["agreement"].items():
            flag = "" if a["within"] else "  DISAGREE"
            print(f"{workload:16s} {name:24s} set 2 worse by {a['worse_by']:+.4f}{flag}",
                  file=sys.stderr)
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

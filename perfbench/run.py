"""qkattn benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload train-analytic --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` the run does a fixed amount of
work under the span tracer and the last line carries the per-layer
metrics.  The line before it is the run record: provenance stamps, the
workload mix, per-phase round counts and rates, errors and an output
digest.  The digest covers the rounds that both modes run, so a traced
and an untraced run of one seed must print the same digest.  The record
is also written to ``perfbench/out/``, and in traced mode the spans too.
"""
from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")
OUT = os.path.join(HERE, "out")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
# A cold set-up is timed against a fresh interpreter that only imports
# numpy, run just before it: the host's speed swings move both alike.
# The ratio is scaled by REF_START_S, a round figure near that
# interpreter's time on the uncontended 2-core host.
REF_START = "import time, numpy; print(time.perf_counter())"
REF_START_S = 0.1
# layers every workload calls, so a traced run must record spans for them
TRACER_PROBES = ("model.evaluate.calls", "model.BatchEvaluator.init.calls",
                 "sim.expand_matrix.calls", "sim.run_circuit.density.calls",
                 "train.gradient.calls")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)  # metric names and units

# one process, one thread: the matrices are at most 256 x 256, where BLAS
# threads only add scheduling noise on a shared machine
os.environ["QKATTN_THREADS"] = "1"
for _var in BLAS_ENV:
    os.environ.setdefault(_var, "1")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cold_start(code: str) -> float:
    """Seconds from just before a fresh interpreter starts until it prints
    its clock (perf_counter is CLOCK_MONOTONIC, one clock for every
    process)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    return float(proc.stdout.split()[-1]) - t0


def cold_setup_seconds(workload_name: str, seed: int) -> list[tuple[float, float]]:
    """Pairs of cold start times: a reference interpreter that only imports
    numpy, then one that sets the workload up."""
    code = (f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; import run; "
            f"run.child_setup({workload_name!r}, {seed})")
    return [(cold_start(REF_START), cold_start(code)) for _ in range(SETUP_REPEATS)]


def child_setup(workload_name: str, seed: int) -> None:
    """Body of one cold set-up: import the package, set the workload up and
    print the clock reading when done."""
    import workloads

    make_workload(workloads, workload_name, seed, workloads.Context()).setup()
    print(time.perf_counter())


def make_workload(workloads, name: str, seed: int, ctx):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.TrainDensity:  # writes configs, counts reference failures
        return cls(seed, OUT, ctx)
    return cls(seed)


def stamps(args, workload) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in ("QKATTN_THREADS", *BLAS_ENV)},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mix": workload.mix,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qkattn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_phases(phases, ctx, seconds: float, traced: bool) -> None:
    """Interleave rounds, each time picking the phase furthest behind its
    share of busy time.  A traced run does each phase's fixed round count;
    an untraced run goes on until ``seconds`` have passed and every phase
    has repeated its round at least once."""
    start = time.perf_counter()
    while True:
        if traced:
            live = [p for p in phases if p.done < p.traced_rounds]
        elif time.perf_counter() - start < seconds:
            live = phases
        else:
            live = [p for p in phases if p.done < 2]
        if not live:
            return
        min(live, key=lambda p: p.busy / p.share).run_round(ctx)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qkattn", "__init__.py")):
        print(f"error: no qkattn package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import qkattn
    import workloads
    from tracer import Tracer, layer_metrics

    imported = time.perf_counter()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    traced = bool(args.trace)
    cold_setups = [] if traced else cold_setup_seconds(args.workload, args.seed)
    ctx = workloads.Context()
    workload = make_workload(workloads, args.workload, args.seed, ctx)
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(qkattn)
        ctx.tracer = tracer

    t0 = time.perf_counter()
    with ctx.tracing():
        workload.setup()
    first_setup = imported - PROCESS_START + time.perf_counter() - t0

    t0 = time.perf_counter()
    run_phases(workload.phases, ctx, args.seconds, traced)
    measure_s = time.perf_counter() - t0

    rates = {p.metric: p.rate() for p in workload.phases}
    if traced:
        tracer.uninstall()
        spans = tracer.arrays()
        values = layer_metrics(tracer.names, spans)
        for name in TRACER_PROBES:  # zero means a lookup site was missed
            ctx.attempt(f"tracer probe {name}",
                        lambda: workloads.check(values[name] > 0, "recorded no spans"))
        tracer.write(os.path.join(OUT, f"spans-{args.workload}.npz"))
    else:
        values = {
            **rates,
            "setup_s": statistics.median(b / a for a, b in cold_setups) * REF_START_S,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    record = {
        **stamps(args, workload),
        "phases": {p.metric: {"rounds": p.done, "busy_s": p.busy, "rate": rates[p.metric],
                              "round_rates": p.round_rates(), "op_times": p.op_times,
                              "kernel_s": p.op_speeds}
                   for p in workload.phases},
        "cold_starts_s": cold_setups,
        "first_setup_s": first_setup,
        "measure_s": measure_s,
        "spans": int(spans["name"].size) if traced else 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "error_rate": ctx.failed / max(ctx.attempted, 1),
        "errors": ctx.errors,
        "output_digest": hashlib.sha256(
            "".join(p.digest for p in workload.phases).encode()).hexdigest(),
    }
    declared = SPEC["per_layer" if traced else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({**record, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": ctx.failed == 0, "attempted": ctx.attempted,
                      "failed": ctx.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: train | qksas | noise-sweep | gradcheck.

Every command is a deterministic function of its config file, seed, and
input files.  Configs are JSON with strict key validation.  Outputs go
to the --out directory, are written atomically (temp file then rename),
and are always accompanied by the fully resolved config for provenance.
Errors exit nonzero with a one-line diagnostic and leave no partial
output files behind.

The noise sweep trains each seed's channel strengths in lockstep, one
evaluator and one pass per optimizer step for all of them
(``train._train_runs``).  The environment variable QKATTN_THREADS caps its
process-level parallelism: a worker's unit of work is one seed's group.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile

import numpy as np

from .ansatz import ParamSet
from .data import (Split, load_idx, make_split, prepare_image_features, scale_features,
                   synthetic_dataset)
from .model import VARIANTS, BatchEvaluator, ModelConfig, QksasRecord
from .sim import NoiseChannel
from .train import RunRecord, TrainConfig, _train_runs, gradient_check, train_loop

_MODEL_KEYS = {"n", "encoder", "ansatz", "link_mode", "execution", "shots"}
_TRAIN_KEYS = {"learning_rate", "momentum", "batch_size", "steps"}
_DATA_KEYS = {"source", "kind", "count", "d", "images", "labels",
              "classes", "per_class_total", "per_class_train", "pca_d"}
_TOP_KEYS = {"seed", "variant", "model", "train", "data"}

_DEFAULT_DATA = {"source": "synthetic", "kind": "two-gaussians", "count": 80, "d": 4}


class CliError(Exception):
    pass


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise CliError(f"unknown config key(s) in {where}: {', '.join(unknown)}")


def _as_int(value, key: str) -> int:
    try:
        if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"config key {key!r} must be an integer, got {value!r}") from exc


def load_config(path: str, seed_override: int | None = None,
                variant_override: str | None = None) -> dict:
    """Read, validate, and resolve a JSON run config."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise CliError("config root must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "config root")
    for section, keys in (("model", _MODEL_KEYS), ("train", _TRAIN_KEYS),
                          ("data", _DATA_KEYS)):
        sub = raw.get(section, {})
        if not isinstance(sub, dict):
            raise CliError(f"config section {section!r} must be an object")
        _check_keys(sub, keys, f"section {section!r}")

    resolved = {
        "seed": _as_int(raw.get("seed", 0), "seed"),
        "model": dict(raw.get("model", {})),
        "train": dict(raw.get("train", {})),
        "data": {**_DEFAULT_DATA, **raw.get("data", {})},
    }
    variant = variant_override or raw.get("variant")
    if variant is not None:
        if variant not in VARIANTS:
            raise CliError(f"unknown variant {variant!r}; choose from {', '.join(VARIANTS)}")
        probe = ModelConfig.from_variant(variant)
        resolved["model"]["encoder"] = probe.encoder
        resolved["model"]["ansatz"] = probe.ansatz
    if seed_override is not None:
        resolved["seed"] = int(seed_override)
    if resolved["seed"] < 0:
        where = "--seed" if seed_override is not None else "config key 'seed'"
        raise CliError(f"{where} must be non-negative, got {resolved['seed']}")
    return resolved


def model_config_from(resolved: dict, **overrides) -> ModelConfig:
    try:
        return ModelConfig(**{**resolved["model"], **overrides})
    except (ValueError, TypeError) as exc:
        raise CliError(f"invalid model config: {exc}") from exc


def _exact_model(mcfg: ModelConfig) -> ModelConfig:
    """``mcfg``, refused when it samples shots: training needs the exact E."""
    if mcfg.shots:
        raise CliError(f"model.shots is {mcfg.shots}, but training needs the exact E; set it to 0")
    return mcfg


def train_config_from(resolved: dict) -> TrainConfig:
    try:
        return TrainConfig(seed=resolved["seed"], **resolved["train"])
    except (ValueError, TypeError) as exc:
        raise CliError(f"invalid train config: {exc}") from exc


def _feature_count(spec: dict, key: str, model: ModelConfig | None) -> int:
    d = _as_int(spec.get(key, 4), key)
    if model is not None and d > model.feature_dim:
        raise CliError(f"config key {key!r} is {d}, more features than the {model.encoder} "
                       f"encoder holds at n={model.n} ({model.feature_dim})")
    return d


def _class_pair(value) -> tuple[int, int]:
    """The IDX ``classes`` setting: exactly two distinct integer labels."""
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in value)
            or value[0] == value[1]):
        raise CliError(f"config key 'classes' must be two distinct integers, got {value!r}")
    return value[0], value[1]


def load_dataset(resolved: dict, model: ModelConfig | str) -> Split:
    """The configured data split for ``model``.  The feature count and,
    for IDX data, the class pair are checked before any data is
    generated or loaded; an encoder name alone skips the feature check."""
    encoder, model = (model, None) if isinstance(model, str) else (model.encoder, model)
    spec = resolved["data"]
    if spec["source"] == "synthetic":
        split = synthetic_dataset(spec["kind"], _as_int(spec["count"], "count"),
                                  _feature_count(spec, "d", model), resolved["seed"])
        if encoder == "angle":
            split.train_x, split.test_x = scale_features(split.train_x, split.test_x)
        return split
    if spec["source"] == "idx":
        pca_d = _feature_count(spec, "pca_d", model)
        classes = _class_pair(spec.get("classes", (0, 1)))
        for key in ("images", "labels"):
            if key not in spec:
                raise CliError(f"idx data source needs the {key!r} path")
        try:
            images, labels = load_idx(spec["images"], spec["labels"])
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot load idx data: {exc}") from exc
        split = make_split(images, labels, classes,
                           _as_int(spec.get("per_class_total", 550), "per_class_total"),
                           _as_int(spec.get("per_class_train", 500), "per_class_train"),
                           seed=resolved["seed"])
        return prepare_image_features(split, pca_d, encoder)
    raise CliError(f"unknown data source {spec['source']!r}")


# --- atomic output writing -----------------------------------------------

def _write_atomic(path: str, content: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _flush_outputs(out_dir: str, files: dict[str, str]) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, content in files.items():
            _write_atomic(os.path.join(out_dir, name), content)
    except OSError as exc:
        raise CliError(f"cannot write outputs to {out_dir}: {exc.strerror or exc}") from exc


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _metrics_csv(record: RunRecord) -> str:
    lines = ["step,loss,train_acc,test_acc"]
    for step in range(record.steps):
        lines.append(f"{step + 1},{_fmt(record.loss[step])},"
                     f"{_fmt(record.train_acc[step])},{_fmt(record.test_acc[step])}")
    return "\n".join(lines) + "\n"


def _params_json(params: ParamSet) -> str:
    payload = {name: list(map(float, getattr(params, name)))
               for name in ("theta1", "theta2", "theta3", "theta4")}
    return json.dumps(payload, indent=2) + "\n"


def load_params(path: str, mcfg: ModelConfig) -> ParamSet:
    """The ParamSet in a params.json, each block a flat list of exactly as
    many numbers as ``mcfg`` has slots in it."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read params {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CliError(f"params file {path} must hold a JSON object")
    names = ("theta1", "theta2", "theta3", "theta4")
    missing = [k for k in names if k not in payload]
    if missing:
        raise CliError(f"params file lacks {', '.join(missing)}")
    expected = ParamSet.zeros(mcfg.n, mcfg.link_mode)
    values = {}
    for k in names:
        try:
            values[k] = np.asarray(payload[k], dtype=float)
        except (TypeError, ValueError) as exc:
            raise CliError(f"params key {k!r} must be a list of numbers") from exc
        size = getattr(expected, k).size
        if values[k].shape != (size,):
            raise CliError(f"params key {k!r} must be a flat list of {size} numbers for "
                           f"n={mcfg.n} and link {mcfg.link_mode!r}, got shape "
                           f"{values[k].shape}")
    return ParamSet(**values)


# --- subcommands ---------------------------------------------------------

def cmd_train(args) -> int:
    resolved = load_config(args.config, args.seed, args.variant)
    mcfg = _exact_model(model_config_from(resolved))
    tcfg = train_config_from(resolved)
    split = load_dataset(resolved, mcfg)
    record = train_loop(mcfg, split.train_x, split.train_y, tcfg,
                        test_x=split.test_x, test_y=split.test_y)
    summary = {
        "variant": mcfg.variant,
        "parameter_count": mcfg.parameter_count,
        "steps": record.steps,
        "initial": dataclasses.asdict(record.initial),
        "final": dataclasses.asdict(record.final),
    }
    _flush_outputs(args.out, {
        "metrics.csv": _metrics_csv(record),
        "params.json": _params_json(record.params),
        "summary.json": json.dumps(summary, indent=2) + "\n",
        "resolved_config.json": json.dumps(resolved, indent=2) + "\n",
    })
    print(f"trained {mcfg.variant} for {record.steps} steps; "
          f"final test accuracy {_fmt(summary['final']['test_acc'])}")
    return 0


def _qksas_csv(records: list[tuple[int, QksasRecord]]) -> tuple[str, str]:
    width = records[0][1].distribution.size
    head = "sample," + ",".join(f"p{k}" for k in range(width))
    rows = [head]
    grid_rows = ["sample,row," + ",".join(f"c{k}" for k in range(records[0][1].grid().shape[1]))]
    for index, rec in records:
        rows.append(f"{index}," + ",".join(_fmt(v) for v in rec.distribution))
        for r, grid_row in enumerate(rec.grid()):
            grid_rows.append(f"{index},{r}," + ",".join(_fmt(v) for v in grid_row))
    return "\n".join(rows) + "\n", "\n".join(grid_rows) + "\n"


def cmd_qksas(args) -> int:
    resolved = load_config(args.config, args.seed, args.variant)
    mcfg = model_config_from(resolved)
    split = load_dataset(resolved, mcfg)
    if args.params:
        params = load_params(args.params, mcfg)
    else:
        params = mcfg.random_params(np.random.default_rng(resolved["seed"]))
    try:
        indices = [int(tok) for tok in args.indices.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"bad sample index list {args.indices!r}") from exc
    if not indices:
        raise CliError("no sample indices given")
    bad = [i for i in indices if not 0 <= i < split.train_x.shape[0]]
    if bad:
        raise CliError(f"sample indices out of range: {bad}")
    w = split.train_x[indices]
    _, probs = BatchEvaluator(w, w, mcfg).evaluate(params)
    records = [(i, QksasRecord(dist)) for i, dist in zip(indices, probs)]
    dist_csv, grid_csv = _qksas_csv(records)
    _flush_outputs(args.out, {
        "qksas.csv": dist_csv,
        "qksas_grid.csv": grid_csv,
        "resolved_config.json": json.dumps(resolved, indent=2) + "\n",
    })
    print(f"wrote attention distributions for {len(records)} samples")
    return 0


def _sweep_job(payload) -> list[tuple[float, int, float, float, float]]:
    """One group of the sweep: the ``channels`` of one seed, one per
    strength, trained in lockstep (``_train_runs``), one row per strength."""
    resolved, channels, seed, split = payload
    resolved = dict(resolved, seed=seed)
    mcfgs = [model_config_from(resolved, execution="density", noise=(channel,))
             for channel in channels]
    records = _train_runs(mcfgs, split.train_x, split.train_y, train_config_from(resolved),
                          test_x=split.test_x, test_y=split.test_y)
    return [(channel.strength, seed, r.final.train_acc, r.final.test_acc, r.final.loss)
            for channel, r in zip(channels, records)]


def thread_budget() -> int:
    value = os.environ.get("QKATTN_THREADS", "1")
    try:
        count = int(value)
    except ValueError as exc:
        raise CliError(f"QKATTN_THREADS must be an integer, got {value!r}") from exc
    if count < 1:
        raise CliError("QKATTN_THREADS must be at least 1")
    return count


def cmd_noise_sweep(args) -> int:
    if args.seed is not None:
        raise CliError("noise-sweep takes its seeds from --seeds, not --seed")
    resolved = load_config(args.config, None, args.variant)
    mcfg = _exact_model(model_config_from(resolved))
    try:
        probs = [float(tok) for tok in args.probs.split(",") if tok.strip()]
        seeds = [int(tok) for tok in args.seeds.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"bad probability or seed list: {exc}") from exc
    if not probs or not seeds:
        raise CliError("need at least one probability and one seed")
    # compared as numbers, so 0.1 and 0.10 are one entry
    for flag, values in (("--probs", probs), ("--seeds", seeds)):
        for k, value in enumerate(values):
            if value in values[:k]:
                raise CliError(f"{flag} lists {value} more than once")
    if any(s < 0 for s in seeds):
        raise CliError(f"--seeds must be non-negative, got {min(seeds)}")
    # refuses an unknown channel or a strength outside [0, 1]
    channels = [NoiseChannel(args.channel, p) for p in probs]
    threads = thread_budget()

    # one group per seed, which trains all of its strengths in lockstep
    jobs = [(resolved, channels, s, load_dataset(dict(resolved, seed=s), mcfg)) for s in seeds]
    workers = min(threads, len(jobs))
    if workers > 1:
        # spawn, not fork: forking a process whose BLAS already runs
        # threads can deadlock the children.  Imported here, so serial
        # sweeps load neither.
        import concurrent.futures
        import multiprocessing

        spawn = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers,
                                                    mp_context=spawn) as pool:
            groups = list(pool.map(_sweep_job, jobs))
    else:
        groups = [_sweep_job(job) for job in jobs]
    rows = {(p, seed): row for group in groups for p, seed, *row in group}

    lines = ["p,seed,train_acc,test_acc,loss"]
    for p in probs:
        for seed in seeds:
            train_acc, test_acc, loss_v = rows[p, seed]
            lines.append(f"{_fmt(p)},{seed},{_fmt(train_acc)},{_fmt(test_acc)},{_fmt(loss_v)}")
    _flush_outputs(args.out, {
        "sweep.csv": "\n".join(lines) + "\n",
        "resolved_config.json": json.dumps(
            {**resolved, "channel": args.channel, "probs": probs, "seeds": seeds},
            indent=2) + "\n",
    })
    print(f"swept {args.channel} over {len(probs)} probabilities x {len(seeds)} seeds")
    return 0


def cmd_gradcheck(args) -> int:
    resolved = load_config(args.config, args.seed, args.variant)
    mcfg = dataclasses.replace(model_config_from(resolved), execution="analytic", shots=0, noise=())
    report = gradient_check(mcfg, args.trials, resolved["seed"])
    _flush_outputs(args.out, {
        "gradcheck.json": json.dumps(report, indent=2) + "\n",
        "resolved_config.json": json.dumps(resolved, indent=2) + "\n",
    })
    if report["worst_rel_error"] >= 1e-4:
        print(f"gradient check FAILED: slot {report['worst_slot']} relative error "
              f"{_fmt(report['worst_rel_error'])} >= 1e-4", file=sys.stderr)
        return 1
    print(f"gradient check passed: worst relative error "
          f"{_fmt(report['worst_rel_error'])} (slot {report['worst_slot']})")
    return 0


# --- entry point ---------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every
    in-process ``main`` call."""
    parser = argparse.ArgumentParser(prog="qkattn",
                                     description="quantum kernel self-attention classifiers")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_help="override the config seed"):
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help=seed_help)
        p.add_argument("--variant", choices=VARIANTS, default=None,
                       help="override encoder/ansatz via a variant name")

    p = sub.add_parser("train", help="run the training loop")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("qksas", help="export attention score distributions")
    common(p)
    p.add_argument("--params", default=None, help="params.json from a training run")
    p.add_argument("--indices", default="0", help="comma-separated train sample indices")
    p.set_defaults(func=cmd_qksas)

    p = sub.add_parser("noise-sweep", help="density-mode training across channel strengths")
    # parsed only to be refused with one line: the seeds come from --seeds
    common(p, seed_help=argparse.SUPPRESS)
    p.add_argument("--channel", required=True, help="bit-flip or amplitude-damping")
    p.add_argument("--probs", default="0,0.1,0.3,0.5", help="comma-separated probabilities")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    p.set_defaults(func=cmd_noise_sweep)

    p = sub.add_parser("gradcheck", help="exact vs finite-difference gradient check")
    common(p)
    p.add_argument("--trials", type=int, default=50, help="random configurations to test")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if os.path.exists(args.out) and not os.path.isdir(args.out):
            raise CliError(f"--out {args.out} exists and is not a directory")
        return args.func(args)
    except (CliError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

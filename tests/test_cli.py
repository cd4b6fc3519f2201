import concurrent.futures
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qkattn import cli
from qkattn.cli import main
from qkattn.model import BatchEvaluator, ModelConfig
from qkattn.train import train_loop
from test_data import write_idx_pair
from test_model import register1_oracle


def write_config(tmp_path, **overrides):
    config = {
        "seed": 3,
        "variant": "AmHE",
        "train": {"steps": 4, "batch_size": 10},
        "data": {"source": "synthetic", "kind": "two-gaussians",
                 "count": 24, "d": 4},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(config.get(key), dict):
            config[key].update(value)
        else:
            config[key] = value
    path = os.path.join(str(tmp_path), "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


def read(path):
    with open(path) as fh:
        return fh.read()


def test_train_writes_metrics_and_params(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = os.path.join(str(tmp_path), "run")
    assert main(["train", "--config", cfg, "--out", out]) == 0
    lines = read(os.path.join(out, "metrics.csv")).strip().split("\n")
    assert lines[0] == "step,loss,train_acc,test_acc"
    assert len(lines) == 5  # header + one row per step
    params = json.loads(read(os.path.join(out, "params.json")))
    assert len(params["theta4"]) == 2
    summary = json.loads(read(os.path.join(out, "summary.json")))
    assert summary["parameter_count"] == 14
    assert os.path.exists(os.path.join(out, "resolved_config.json"))


def test_train_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1 = os.path.join(str(tmp_path), "a")
    out2 = os.path.join(str(tmp_path), "b")
    assert main(["train", "--config", cfg, "--out", out1]) == 0
    assert main(["train", "--config", cfg, "--out", out2]) == 0
    for name in ("metrics.csv", "params.json", "summary.json"):
        assert read(os.path.join(out1, name)) == read(os.path.join(out2, name))


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path)
    out1 = os.path.join(str(tmp_path), "a")
    out2 = os.path.join(str(tmp_path), "b")
    assert main(["train", "--config", cfg, "--out", out1, "--seed", "9"]) == 0
    assert main(["train", "--config", cfg, "--out", out2]) == 0
    assert read(os.path.join(out1, "metrics.csv")) != read(os.path.join(out2, "metrics.csv"))
    resolved = json.loads(read(os.path.join(out1, "resolved_config.json")))
    assert resolved["seed"] == 9


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, extra_key=1)
    out = os.path.join(str(tmp_path), "run")
    assert main(["train", "--config", cfg, "--out", out]) != 0
    assert "extra_key" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "metrics.csv"))


def test_unknown_nested_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, train={"stepz": 3})
    assert main(["train", "--config", cfg, "--out", str(tmp_path)]) != 0
    assert "stepz" in capsys.readouterr().err


def test_missing_data_path_no_partial_output(tmp_path, capsys):
    cfg = write_config(tmp_path, data={"source": "idx",
                                       "images": "/nonexistent/i.idx",
                                       "labels": "/nonexistent/l.idx"})
    out = os.path.join(str(tmp_path), "run")
    assert main(["train", "--config", cfg, "--out", out]) != 0
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0  # single-line diagnostic
    assert not os.path.exists(out)


def test_qksas_rows_normalized(tmp_path):
    cfg = write_config(tmp_path)
    run = os.path.join(str(tmp_path), "run")
    assert main(["train", "--config", cfg, "--out", run]) == 0
    qdir = os.path.join(str(tmp_path), "q")
    assert main(["qksas", "--config", cfg, "--out", qdir,
                 "--params", os.path.join(run, "params.json"),
                 "--indices", "0,1,3"]) == 0
    lines = read(os.path.join(qdir, "qksas.csv")).strip().split("\n")
    assert lines[0] == "sample,p0,p1,p2,p3"
    assert len(lines) == 4
    for line in lines[1:]:
        values = [float(tok) for tok in line.split(",")[1:]]
        assert abs(sum(values) - 1.0) < 1e-9
    grid = read(os.path.join(qdir, "qksas_grid.csv")).strip().split("\n")
    assert len(grid) == 1 + 3 * 2  # header + two grid rows per sample


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("link_mode", ["all-zeros-canonical", "per-qubit-literal"])
# a positive shot count leaves the exported distributions exact
@pytest.mark.parametrize("execution, shots", [("analytic", 0), ("density", 0), ("analytic", 50)],
                         ids=["analytic", "density", "shots"])
def test_qksas_matches_per_index_oracle(tmp_path, execution, shots, link_mode, n):
    model_spec = {"n": n, "execution": execution, "link_mode": link_mode, "shots": shots}
    cfg = write_config(tmp_path, model=model_spec)
    mcfg = ModelConfig(**model_spec)
    params = mcfg.random_params(np.random.default_rng(n))
    path = os.path.join(str(tmp_path), "params.json")
    with open(path, "w") as fh:
        json.dump({k: list(getattr(params, k)) for k in ("theta1", "theta2", "theta3",
                                                           "theta4")}, fh)
    out = os.path.join(str(tmp_path), "q")
    assert main(["qksas", "--config", cfg, "--out", out, "--params", path,
                 "--indices", "0,3,0"]) == 0
    x = cli.load_dataset(cli.load_config(cfg), mcfg).train_x
    rows = read(os.path.join(out, "qksas.csv")).strip().split("\n")[1:]
    assert [int(row.split(",")[0]) for row in rows] == [0, 3, 0]
    for row in rows:
        index, *values = row.split(",")
        w = x[int(index)]
        ref = register1_oracle(w, w, params, mcfg)
        assert np.max(np.abs(np.array(values, dtype=float) - ref)) < 1e-12


def test_qksas_bad_indices(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["qksas", "--config", cfg, "--out", str(tmp_path),
                 "--indices", "9999"]) != 0
    assert "out of range" in capsys.readouterr().err


def test_gradcheck_passes_and_reports(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = os.path.join(str(tmp_path), "g")
    assert main(["gradcheck", "--config", cfg, "--out", out, "--trials", "3"]) == 0
    report = json.loads(read(os.path.join(out, "gradcheck.json")))
    assert report["worst_rel_error"] < 1e-4
    assert "per_slot" in report


def test_gradcheck_zero_trials_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["gradcheck", "--config", cfg, "--out", str(tmp_path),
                 "--trials", "0"]) != 0


def test_gradcheck_fault_injection(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    out = os.path.join(str(tmp_path), "g")
    # a deliberately wrong derivative: every dE scaled by 1.1
    exact = BatchEvaluator.derivatives

    def scaled(*args, **kwargs):
        e, de = exact(*args, **kwargs)
        return e, 1.1 * de

    monkeypatch.setattr(BatchEvaluator, "derivatives", scaled)
    assert main(["gradcheck", "--config", cfg, "--out", out, "--trials", "2"]) == 1
    err = capsys.readouterr().err
    assert "theta" in err  # the offending slot is named


def test_noise_sweep_zero_matches_noiseless(tmp_path):
    cfg = write_config(tmp_path, train={"steps": 3, "batch_size": 10})
    base = os.path.join(str(tmp_path), "base")
    assert main(["train", "--config", cfg, "--out", base]) == 0
    sweep = os.path.join(str(tmp_path), "sweep")
    assert main(["noise-sweep", "--config", cfg, "--out", sweep,
                 "--channel", "bit-flip", "--probs", "0", "--seeds", "3"]) == 0
    lines = read(os.path.join(sweep, "sweep.csv")).strip().split("\n")
    assert lines[0] == "p,seed,train_acc,test_acc,loss"
    assert len(lines) == 2
    _, _, train_acc, test_acc, loss_v = lines[1].split(",")
    metrics = read(os.path.join(base, "metrics.csv")).strip().split("\n")[-1].split(",")
    assert abs(float(loss_v) - float(metrics[1])) < 1e-9
    assert abs(float(train_acc) - float(metrics[2])) < 1e-9


def test_noise_sweep_row_cardinality(tmp_path):
    cfg = write_config(tmp_path, train={"steps": 1, "batch_size": 10})
    sweep = os.path.join(str(tmp_path), "sweep")
    assert main(["noise-sweep", "--config", cfg, "--out", sweep,
                 "--channel", "amplitude-damping",
                 "--probs", "0,0.5", "--seeds", "1,2"]) == 0
    lines = read(os.path.join(sweep, "sweep.csv")).strip().split("\n")
    assert len(lines) == 5


def test_noise_sweep_process_pool_matches_serial(tmp_path, monkeypatch):
    # two spawned workers must write the same bytes as the in-process loop,
    # and either way each seed's split is loaded once, for all its jobs
    cfg = write_config(tmp_path, model={"n": 1}, train={"steps": 2, "batch_size": 10},
                       data={"d": 2})
    load_dataset = cli.load_dataset
    outputs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("QKATTN_THREADS", threads)
        seeds = []
        monkeypatch.setattr(cli, "load_dataset", lambda resolved, model: (
            seeds.append(resolved["seed"]), load_dataset(resolved, model))[1])
        out = os.path.join(str(tmp_path), f"threads{threads}")
        assert main(["noise-sweep", "--config", cfg, "--out", out,
                     "--channel", "bit-flip", "--probs", "0.1,0.3", "--seeds", "1,2"]) == 0
        outputs[threads] = read(os.path.join(out, "sweep.csv"))
        assert seeds == [1, 2]
    assert len(outputs["1"].strip().split("\n")) == 5
    assert outputs["2"] == outputs["1"]
    # one seed and more workers than seeds: the seed's one group trains in
    # process, from one split, and starts no pool (cli imports the pool
    # module only where it starts one)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    for threads in ("1", "2"):
        monkeypatch.setenv("QKATTN_THREADS", threads)
        seeds = []
        monkeypatch.setattr(cli, "load_dataset", lambda resolved, model: (
            seeds.append(resolved["seed"]), load_dataset(resolved, model))[1])
        out = os.path.join(str(tmp_path), f"one-seed{threads}")
        assert main(["noise-sweep", "--config", cfg, "--out", out,
                     "--channel", "amplitude-damping", "--probs", "0.3,0,0.1",
                     "--seeds", "2"]) == 0
        outputs[threads] = read(os.path.join(out, "sweep.csv"))
        assert seeds == [2]
    assert len(outputs["1"].strip().split("\n")) == 4
    assert outputs["2"] == outputs["1"]


def test_noise_sweep_trains_each_seed_in_one_lockstep_group(tmp_path, monkeypatch):
    # one evaluator per seed, for all its strengths, and the rows that
    # separate train_loop runs give, byte for byte
    cfg = write_config(tmp_path, model={"n": 1}, train={"steps": 3, "batch_size": 10},
                       data={"d": 2})
    groups = []
    lockstep = BatchEvaluator._lockstep.__func__

    def spy(cls, wi, wj, configs):
        groups.append([c.noise[0].strength for c in configs])
        return lockstep(cls, wi, wj, configs)

    monkeypatch.setattr(BatchEvaluator, "_lockstep", classmethod(spy))
    out = os.path.join(str(tmp_path), "sweep")
    assert main(["noise-sweep", "--config", cfg, "--out", out, "--channel", "amplitude-damping",
                 "--probs", "0.1,0.5,0", "--seeds", "2,1"]) == 0
    assert groups == [[0.1, 0.5, 0.0]] * 2
    resolved = cli.load_config(cfg)
    lines = ["p,seed,train_acc,test_acc,loss"]
    for p in (0.1, 0.5, 0.0):
        for seed in (2, 1):
            seeded = dict(resolved, seed=seed)
            mcfg = cli.model_config_from(seeded, execution="density",
                                         noise=(cli.NoiseChannel("amplitude-damping", p),))
            split = cli.load_dataset(seeded, mcfg)
            final = train_loop(mcfg, split.train_x, split.train_y, cli.train_config_from(seeded),
                               test_x=split.test_x, test_y=split.test_y).final
            lines.append(",".join([f"{p:.12g}", str(seed)] + [
                f"{v:.12g}" for v in (final.train_acc, final.test_acc, final.loss)]))
    assert read(os.path.join(out, "sweep.csv")) == "\n".join(lines) + "\n"


def test_noise_sweep_refuses_the_seed_flag_before_loading_data(tmp_path, capsys, monkeypatch):
    # its seeds come from --seeds; --seed was once accepted, ignored and
    # recorded in resolved_config.json
    cfg = write_config(tmp_path)
    out = os.path.join(str(tmp_path), "run")
    calls = []
    monkeypatch.setattr(cli, "load_dataset", lambda *args: calls.append(args))
    assert main(["noise-sweep", "--config", cfg, "--out", out, "--channel", "bit-flip",
                 "--seed", "3", "--seeds", "0"]) == 2
    err = capsys.readouterr().err
    assert err == "error: noise-sweep takes its seeds from --seeds, not --seed\n"
    assert not calls
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ("train", "qksas", "noise-sweep", "gradcheck"))
def test_only_commands_that_take_the_seed_flag_offer_it(capsys, command):
    # noise-sweep parses --seed only to refuse it, so its help must not
    # advertise a config seed override
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    usage = capsys.readouterr().out
    offered = re.search(r"--seed\b(?!s)", usage) is not None
    assert offered == ("override the config seed" in usage) == (command != "noise-sweep")
    assert ("--seeds SEEDS" in usage) == (command == "noise-sweep")


@pytest.mark.parametrize("value, message", [
    ("abc", "QKATTN_THREADS must be an integer, got 'abc'"),
    ("0", "QKATTN_THREADS must be at least 1"),
])
def test_noise_sweep_reads_thread_budget_before_loading_data(tmp_path, capsys, monkeypatch,
                                                             value, message):
    cfg = write_config(tmp_path)
    out = os.path.join(str(tmp_path), "run")
    calls = []
    monkeypatch.setattr(cli, "load_dataset", lambda *args: calls.append(args))
    monkeypatch.setenv("QKATTN_THREADS", value)
    assert main(["noise-sweep", "--config", cfg, "--out", out, "--channel", "bit-flip",
                 "--probs", "0.1", "--seeds", "1,2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not calls
    assert not os.path.exists(out)


def test_noise_sweep_validation(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    loads = []
    monkeypatch.setattr(cli, "load_dataset", lambda *args: loads.append(args))
    for channel, probs, line in [("dephasing", "0", "unknown noise channel 'dephasing'"),
                                 ("bit-flip", "1.5", "channel strength must be a probability")]:
        out = os.path.join(str(tmp_path), "bad")
        assert main(["noise-sweep", "--config", cfg, "--out", out,
                     "--channel", channel, "--probs", probs, "--seeds", "1"]) == 2
        assert capsys.readouterr().err.strip() == f"error: {line}"
        assert not loads
        assert not os.path.exists(out)
    # a repeated entry would train the same job twice; entries are
    # compared after parsing
    for probs, seeds, line in [("0.1", "1,1", "--seeds lists 1 more than once"),
                               ("0.1,0.10", "1", "--probs lists 0.1 more than once"),
                               ("0,0.3,0", "2,1", "--probs lists 0.0 more than once"),
                               ("0.5", "3,03", "--seeds lists 3 more than once")]:
        out = os.path.join(str(tmp_path), "repeat")
        assert main(["noise-sweep", "--config", cfg, "--out", out, "--channel", "bit-flip",
                     "--probs", probs, "--seeds", seeds]) == 2
        assert capsys.readouterr().err.strip() == f"error: {line}"
        assert not loads
        assert not os.path.exists(out)


def test_variant_flag(tmp_path):
    cfg = write_config(tmp_path, data={"kind": "two-gaussians"})
    out = os.path.join(str(tmp_path), "run")
    assert main(["train", "--config", cfg, "--out", out, "--variant", "AnQAOA"]) == 0
    summary = json.loads(read(os.path.join(out, "summary.json")))
    assert summary["variant"] == "AnQAOA"


@pytest.mark.parametrize("overrides, key", [
    ({"seed": None}, "seed"),
    ({"seed": "three"}, "seed"),
    ({"data": {"count": None}}, "count"),
    ({"data": {"d": None}}, "d"),
    ({"data": {"count": [24]}}, "count"),
    ({"seed": 2.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"model": {"n": 2.5}}, "n"),
    ({"model": {"n": True}}, "n"),
    ({"model": {"shots": 2.5}}, "shots"),
    ({"train": {"steps": 2.5}}, "steps"),
    ({"train": {"batch_size": 2.5}}, "batch_size"),
    # more features than the encoder holds is refused before any is generated
    ({"data": {"d": 1e9}}, "d"),
    # registers hold at most 2^4 amplitudes
    ({"model": {"n": 5}}, "n"),
    ({"model": {"n": 30}}, "n"),
    # non-finite, boolean or non-numeric optimizer settings
    ({"train": {"learning_rate": float("nan")}}, "learning_rate"),
    ({"train": {"learning_rate": float("inf")}}, "learning_rate"),
    ({"train": {"learning_rate": True}}, "learning_rate"),
    ({"train": {"momentum": float("nan")}}, "momentum"),
    ({"train": {"momentum": float("inf")}}, "momentum"),
    ({"train": {"momentum": "0.9"}}, "momentum"),
    ({"model": {"shots": -5}}, "shots"),
    ({"model": {"shots": 10**30}}, "shots"),
    ({"seed": -1}, "seed"),
    # a numeric string is not an integer
    ({"seed": "7"}, "seed"),
    ({"data": {"count": "80"}}, "count"),
])
def test_malformed_config_value_is_one_line_error(tmp_path, capsys, overrides, key):
    cfg = write_config(tmp_path, **overrides)
    out = os.path.join(str(tmp_path), "run")
    for command in (["train"], ["noise-sweep", "--channel", "bit-flip",
                                "--probs", "0", "--seeds", "1"]):
        assert main(command + ["--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.strip().count("\n") == 0
        assert repr(key) in err
        assert not os.path.exists(out)


@pytest.mark.parametrize("payload", ["3", "null", '"theta1"', "[1, 2]",
                                     '{"theta1": {"a": 1}, "theta2": [], "theta3": [], '
                                     '"theta4": []}',
                                     # AmHE at n=2: 4 slots in theta1..3, 2 in theta4
                                     json.dumps({"theta1": [0.1] * 4, "theta2": [0.1] * 4,
                                                 "theta3": [0.1] * 9, "theta4": [0.1] * 7}),
                                     json.dumps({"theta1": [0.1] * 4, "theta2": [0.1] * 4,
                                                 "theta3": [0.1] * 4, "theta4": [0.1]}),
                                     json.dumps({"theta1": [[0.1, 0.2], [0.1, 0.2]],
                                                 "theta2": [0.1] * 4, "theta3": [0.1] * 4,
                                                 "theta4": [0.1] * 2})])
def test_malformed_params_file_is_one_line_error(tmp_path, capsys, payload):
    cfg = write_config(tmp_path)
    params = os.path.join(str(tmp_path), "params.json")
    with open(params, "w") as fh:
        fh.write(payload)
    out = os.path.join(str(tmp_path), "q")
    assert main(["qksas", "--config", cfg, "--out", out, "--params", params]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.strip().count("\n") == 0
    assert "params" in err
    assert not os.path.exists(out)


def write_idx_config(tmp_path, classes, per_class_train=4):
    rng = np.random.default_rng(4)
    images = rng.integers(0, 256, size=(40, 784), dtype=np.uint8)
    labels = np.tile([0, 1, 2, 3], 10).astype(np.uint8)
    ip, lp = write_idx_pair(str(tmp_path), images, labels)
    return write_config(tmp_path, data={"source": "idx", "images": ip, "labels": lp,
                                        "classes": classes, "per_class_total": 6,
                                        "per_class_train": per_class_train, "pca_d": 4})


def test_idx_class_pair_trains(tmp_path):
    cfg = write_idx_config(tmp_path, [3, 1])
    out = os.path.join(str(tmp_path), "run")
    assert main(["train", "--config", cfg, "--out", out]) == 0
    resolved = json.loads(read(os.path.join(out, "resolved_config.json")))
    assert resolved["data"]["classes"] == [3, 1]


@pytest.mark.parametrize("classes", [[1], [1, 1], [0, 1, 2], 1, "01", None, [],
                                     [True, False], [0, 1.0], [0, "1"]])
def test_idx_classes_must_be_two_distinct_integers(tmp_path, capsys, monkeypatch, classes):
    # refused with a one-line error before either IDX file is read
    cfg = write_idx_config(tmp_path, classes)
    out = os.path.join(str(tmp_path), "run")
    reads = []
    monkeypatch.setattr(cli, "load_idx", lambda *paths: reads.append(paths))
    assert main(["train", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.strip().count("\n") == 0
    assert "'classes'" in err
    assert not reads
    assert not os.path.exists(out)


@pytest.mark.parametrize("per_class_train", [0, -3, 6])
def test_per_class_train_must_leave_train_and_test_samples(tmp_path, capsys,
                                                          per_class_train):
    # refused by name, before an empty or negative split reaches numpy
    cfg = write_idx_config(tmp_path, [0, 1], per_class_train)
    out = os.path.join(str(tmp_path), "run")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", cfg, "--out", out]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.strip() == (f"error: 'per_class_train' must be at least 1 and below "
                           f"'per_class_total' (6), got {per_class_train}")
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv, flag", [
    (["train", "--seed", "-2"], "--seed"),
    (["qksas", "--seed", "-2"], "--seed"),
    (["gradcheck", "--seed", "-2"], "--seed"),
    (["noise-sweep", "--channel", "bit-flip", "--seeds", "1,-2"], "--seeds"),
], ids=["train", "qksas", "gradcheck", "noise-sweep"])
def test_negative_seed_flag_is_refused_before_loading_data(tmp_path, capsys, monkeypatch,
                                                           argv, flag):
    # a negative config seed is one of the malformed config values above
    cfg = write_config(tmp_path)
    out = os.path.join(str(tmp_path), "run")
    calls = []
    monkeypatch.setattr(cli, "load_dataset", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "gradient_check", lambda *args: calls.append(args))
    assert main(argv + ["--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.strip() == f"error: {flag} must be non-negative, got -2"
    assert not calls
    assert not os.path.exists(out)


COMMANDS = {"train": ["train"], "qksas": ["qksas"],
            "noise-sweep": ["noise-sweep", "--channel", "bit-flip", "--probs", "0.1",
                            "--seeds", "3"],
            "gradcheck": ["gradcheck", "--trials", "2"]}


@pytest.mark.parametrize("command", COMMANDS)
def test_out_path_that_is_a_file_is_refused_before_loading_data(tmp_path, capsys, monkeypatch,
                                                                command):
    cfg = write_config(tmp_path, train={"steps": 1})
    out = os.path.join(str(tmp_path), "taken")
    with open(out, "w") as fh:
        fh.write("kept")
    calls = []
    monkeypatch.setattr(cli, "load_dataset", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "gradient_check", lambda *args: calls.append(args))
    assert main(COMMANDS[command] + ["--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: --out {out} exists and is not a directory\n"
    assert not calls
    assert read(out) == "kept"


@pytest.mark.parametrize("command", COMMANDS)
def test_output_write_failure_is_one_line_error(tmp_path, capsys, command):
    # the parent of --out is a file, so creating the directory fails
    cfg = write_config(tmp_path, train={"steps": 1})
    parent = os.path.join(str(tmp_path), "file")
    with open(parent, "w") as fh:
        fh.write("kept")
    out = os.path.join(parent, "run")
    assert main(COMMANDS[command] + ["--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write outputs to {out}: Not a directory\n"
    assert read(parent) == "kept"


@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""])
def test_memory_error_is_one_line_error(tmp_path, capsys, monkeypatch, message):
    # a data count too large to allocate, raised here without allocating it
    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "synthetic_dataset", exhausted)
    cfg = write_config(tmp_path, data={"count": 10**12})
    out = os.path.join(str(tmp_path), "run")
    assert main(["train", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {message or 'MemoryError'}\n"
    assert not os.path.exists(out)


def test_train_refuses_shots_execution_before_loading_data(tmp_path, capsys, monkeypatch):
    # train and noise-sweep need the exact E under either execution mode
    out = os.path.join(str(tmp_path), "run")
    loads = []
    monkeypatch.setattr(cli, "load_dataset", lambda *args: loads.append(args))
    for execution in ("analytic", "density"):
        cfg = write_config(tmp_path, model={"execution": execution, "shots": 100})
        for command in (["train"], ["noise-sweep", "--channel", "bit-flip",
                                    "--probs", "0.1", "--seeds", "1"]):
            assert main(command + ["--config", cfg, "--out", out]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.strip().count("\n") == 0
            assert "model.shots" in err
    assert not loads
    assert not os.path.exists(out)


def test_shots_execution_mode_is_a_one_line_hint(tmp_path, capsys):
    cfg = write_config(tmp_path, model={"execution": "shots", "shots": 100})
    out = os.path.join(str(tmp_path), "run")
    for command in (["train"], ["qksas"], ["noise-sweep", "--channel", "bit-flip"],
                    ["gradcheck"]):
        assert main(command + ["--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.strip().count("\n") == 0
        assert err.startswith("error:") and err.rstrip().endswith(
            "unknown execution mode 'shots'; sample with 'shots' > 0 under 'analytic' or 'density'")
    assert not os.path.exists(out)


@pytest.mark.parametrize("key, value", [("fd_step", 1e-3),
                                        ("gradient_method", "finite-difference"),
                                        ("surrogate", False)],
                         ids=["fd_step", "gradient_method", "surrogate"])
def test_removed_train_key_is_unknown(tmp_path, capsys, key, value):
    # training has one objective and one exact gradient rule, and every
    # central difference uses one fixed step: nothing selects them
    cfg = write_config(tmp_path, train={key: value})
    out = os.path.join(str(tmp_path), "run")
    assert main(["train", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.strip() == f"error: unknown config key(s) in section 'train': {key}"
    assert not os.path.exists(out)


@pytest.mark.parametrize("steps", [0, 3])
def test_final_metrics_keep_their_file_format(tmp_path, steps):
    # summary.json and sweep.csv, byte for byte, in their fixed field order
    # and number format: the last step's metrics, or the initial ones at 0 steps
    def last(values, initial):
        return values[-1] if steps else initial

    cfg = write_config(tmp_path, train={"steps": steps})
    resolved = cli.load_config(cfg)
    out = os.path.join(str(tmp_path), "run")
    assert main(["train", "--config", cfg, "--out", out]) == 0
    mcfg = cli.model_config_from(resolved)
    split = cli.load_dataset(resolved, mcfg)
    record = train_loop(mcfg, split.train_x, split.train_y, cli.train_config_from(resolved),
                        test_x=split.test_x, test_y=split.test_y)
    init = record.initial
    summary = {
        "variant": "AmHE", "parameter_count": 14, "steps": steps,
        "initial": {"loss": init.loss, "train_acc": init.train_acc, "test_acc": init.test_acc},
        "final": {"loss": last(record.loss, init.loss),
                  "train_acc": last(record.train_acc, init.train_acc),
                  "test_acc": last(record.test_acc, init.test_acc)},
    }
    assert read(os.path.join(out, "summary.json")) == json.dumps(summary, indent=2) + "\n"

    sweep = os.path.join(str(tmp_path), "sweep")
    assert main(["noise-sweep", "--config", cfg, "--out", sweep, "--channel", "bit-flip",
                 "--probs", "0.1", "--seeds", "3"]) == 0
    noise = (cli.NoiseChannel("bit-flip", 0.1),)
    mcfg = cli.model_config_from(resolved, execution="density", noise=noise)
    record = train_loop(mcfg, split.train_x, split.train_y, cli.train_config_from(resolved),
                        test_x=split.test_x, test_y=split.test_y)
    init = record.initial
    row = ",".join(["0.1", "3"] + [f"{v:.12g}" for v in (last(record.train_acc, init.train_acc),
                                                         last(record.test_acc, init.test_acc),
                                                         last(record.loss, init.loss))])
    assert read(os.path.join(sweep, "sweep.csv")) == f"p,seed,train_acc,test_acc,loss\n{row}\n"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_package_import_pins_blas_threads_unless_set(preset, expected):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import os, qkattn; print(os.environ['OPENBLAS_NUM_THREADS'],"
         " os.environ['OMP_NUM_THREADS'], os.environ['MKL_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert out == [expected, "1", "1"]


def test_cli_import_leaves_the_process_pool_unloaded():
    # only a sweep with two or more workers uses concurrent.futures, which
    # brings logging with it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, qkattn.cli; print('concurrent.futures' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert out == ["False"]

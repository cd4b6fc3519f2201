import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qkattn import cli
from qkattn.cli import main
from qkattn.model import ModelConfig, qksas
from test_data import write_idx_pair


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
@pytest.mark.parametrize("execution", ["analytic", "density", "shots"])
def test_qksas_matches_per_index_oracle(tmp_path, execution, link_mode, n):
    model_spec = {"n": n, "execution": execution, "link_mode": link_mode}
    if execution == "shots":
        model_spec["shots"] = 50
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
        ref = qksas(w, w, params.theta1, params.theta2, mcfg).distribution
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
    monkeypatch.setenv("QKATTN_SHIFT_OVERRIDE", "1.65")
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
    # two spawned workers must write the same bytes as the in-process loop
    cfg = write_config(tmp_path, model={"n": 1}, train={"steps": 2, "batch_size": 10},
                       data={"d": 2})
    outputs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("QKATTN_THREADS", threads)
        out = os.path.join(str(tmp_path), f"threads{threads}")
        assert main(["noise-sweep", "--config", cfg, "--out", out,
                     "--channel", "bit-flip", "--probs", "0.1,0.3", "--seeds", "1,2"]) == 0
        outputs[threads] = read(os.path.join(out, "sweep.csv"))
    assert len(outputs["1"].strip().split("\n")) == 5
    assert outputs["2"] == outputs["1"]


def test_noise_sweep_validation(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["noise-sweep", "--config", cfg, "--out", str(tmp_path),
                 "--channel", "dephasing", "--probs", "0", "--seeds", "1"]) != 0
    assert main(["noise-sweep", "--config", cfg, "--out", str(tmp_path),
                 "--channel", "bit-flip", "--probs", "1.5", "--seeds", "1"]) != 0


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
    ({"train": {"fd_step": float("nan")}}, "fd_step"),
    ({"train": {"fd_step": "0.001"}}, "fd_step"),
    ({"model": {"shots": -5}}, "shots"),
    ({"model": {"shots": 10**30}}, "shots"),
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


def write_idx_config(tmp_path, classes):
    rng = np.random.default_rng(4)
    images = rng.integers(0, 256, size=(40, 784), dtype=np.uint8)
    labels = np.tile([0, 1, 2, 3], 10).astype(np.uint8)
    ip, lp = write_idx_pair(str(tmp_path), images, labels)
    return write_config(tmp_path, data={"source": "idx", "images": ip, "labels": lp,
                                        "classes": classes, "per_class_total": 6,
                                        "per_class_train": 4, "pca_d": 4})


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


def test_train_refuses_shots_execution_before_loading_data(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, model={"execution": "shots", "shots": 100})
    out = os.path.join(str(tmp_path), "run")
    loads = []
    monkeypatch.setattr(cli, "load_dataset", lambda *args: loads.append(args))
    assert main(["train", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.strip().count("\n") == 0
    assert "model.execution" in err
    assert not loads
    assert not os.path.exists(out)


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

"""Span tracing of qkattn from outside the package.

The tracer replaces the public functions of the traced modules with
thin wrappers.  Each name is patched where its caller looks it up: in
the module that defines it (which covers calls through the module
attribute and calls from inside that module) and in every traced module
or package namespace that imported it by name, such as the
``train_loop`` that ``qkattn.cli`` imported.  ``BatchEvaluator`` is
patched on the class, so every instance and caller sees the wrapper.

Each span records its name, its parent span, the top-level operation it
belongs to (spans of one operation share that id), its start and end,
and one work figure (samples evaluated, or bytes of a lifted matrix).
Spans stay in memory in compact arrays and are written out once, when
the run ends.
"""
from __future__ import annotations

import array
import functools
import inspect
import json
import time

import numpy as np

TRACED_MODULES = ("sim", "encoding", "ansatz", "model", "train", "data", "cli")
# called once per gate matrix, as often as expand_matrix: a span here would
# double the span count and the tracing overhead, and no metric reads it
UNTRACED = frozenset({"sim.gate_matrix"})


def _mode_of(args, kwargs):
    return kwargs.get("mode", args[1] if len(args) > 1 else "pure")


def _evaluate_samples(args, kwargs):
    idx = kwargs.get("idx", args[2] if len(args) > 2 else None)
    return float(args[0].count if idx is None else len(idx))


def _lift_bytes(args, kwargs):
    q = kwargs.get("q", args[2] if len(args) > 2 else None)
    return 16.0 * 4.0 ** q  # complex128 2^q x 2^q matrix, computed not measured


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.work = array.array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.enabled = False

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, work=None, mode_names: dict | None = None):
        """Wrap ``fn`` so every call while enabled records one span."""
        nid = self._name_id(name)
        mode_ids = {m: self._name_id(v) for m, v in (mode_names or {}).items()}
        stack, names, parents, ops = self._stack, self.name, self.parent, self.op
        starts, ends, works = self.start, self.end, self.work
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(starts)
            parent = stack[-1]
            names.append(mode_ids.get(_mode_of(args, kwargs), nid) if mode_ids else nid)
            parents.append(parent)
            ops.append(sid if parent < 0 else ops[parent])
            works.append(work(args, kwargs) if work is not None else 0.0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, package) -> None:
        """Patch every public function of the traced modules of ``package``."""
        import importlib

        modules = {short: importlib.import_module(f"{package.__name__}.{short}")
                   for short in TRACED_MODULES}
        special = {
            "sim.run_circuit": dict(mode_names={"pure": "sim.run_circuit.pure",
                                                "density": "sim.run_circuit.density"}),
            "sim.expand_matrix": dict(work=_lift_bytes),
        }
        wrappers: dict[object, object] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__ and name not in UNTRACED):
                    wrappers[obj] = self.span(name, obj, **special.get(name, {}))
        # rebind every lookup site: defining modules, importing modules, package
        for mod in (*modules.values(), package):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        evaluator = modules["model"].BatchEvaluator
        self._patch(evaluator, "__init__",
                    self.span("model.BatchEvaluator.init", evaluator.__init__))
        self._patch(evaluator, "evaluate",
                    self.span("model.evaluate", evaluator.evaluate, work=_evaluate_samples))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- reading the spans ------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        base = start.min() if start.size else 0.0
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": start - base,
            "end": end - base,
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **self.arrays())


def _under(flag: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """flag[i] or flag of any ancestor of i (parents precede children)."""
    out = flag.copy()
    has_parent = parent >= 0
    safe = np.where(has_parent, parent, 0)
    while True:
        nxt = out | (has_parent & out[safe])
        if np.array_equal(nxt, out):
            return out
        out = nxt


def layer_metrics(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, float]:
    """Derive the per-layer metrics from the span arrays."""
    nid = spans["name"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    work = spans["work"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child_time[: dur.size]
    safe_parent = np.where(has_parent, parent, 0)

    def mask(name: str) -> np.ndarray:
        return nid == names.index(name) if name in names else np.zeros(nid.size, bool)

    def calls(name):
        return float(mask(name).sum())

    def secs(name):
        return float(dur[mask(name)].sum())

    evaluate, gradient = mask("model.evaluate"), mask("train.gradient")
    lifts = mask("sim.expand_matrix")
    under_gradient = _under(gradient, parent)
    under_loop = _under(mask("train.train_loop"), parent)
    under_evaluate = _under(evaluate, parent)
    # a stack_fragments call inside evaluate re-lifts the U_phi(w_j) adjoints
    restack = _under(mask("model.stack_fragments") & has_parent & under_evaluate[safe_parent],
                     parent)
    grad_ms = dur[gradient] * 1e3
    sample_evals = float(work[evaluate].sum())
    cli = np.array([n.startswith("cli.") for n in names], bool)

    return {
        "model.evaluate.calls": calls("model.evaluate"),
        "model.evaluate.s": secs("model.evaluate"),
        "model.evaluate.self_s": float(self_time[evaluate].sum()),
        "model.evaluate.sample_evals": sample_evals,
        "model.evaluate.us_per_sample":
            secs("model.evaluate") / sample_evals * 1e6 if sample_evals else 0.0,
        "model.compile_fragment.calls": calls("model.compile_fragment"),
        "model.compile_fragment.s": secs("model.compile_fragment"),
        "model.stack_fragments.calls": calls("model.stack_fragments"),
        "model.stack_fragments.s": secs("model.stack_fragments"),
        "model.recompile_share":
            float((lifts & restack).sum() / lifts.sum()) if lifts.any() else 0.0,
        "sim.expand_matrix.calls": calls("sim.expand_matrix"),
        "sim.expand_matrix.s": secs("sim.expand_matrix"),
        "sim.expand_matrix.bytes": float(work[lifts].sum()),
        "sim.run_circuit.pure.calls": calls("sim.run_circuit.pure"),
        "sim.run_circuit.pure.s": secs("sim.run_circuit.pure"),
        "sim.run_circuit.density.calls": calls("sim.run_circuit.density"),
        "sim.run_circuit.density.s": secs("sim.run_circuit.density"),
        "train.gradient.calls": calls("train.gradient"),
        "train.gradient.s": secs("train.gradient"),
        "train.gradient.ms_p50": float(np.percentile(grad_ms, 50)) if grad_ms.size else 0.0,
        "train.gradient.ms_p90": float(np.percentile(grad_ms, 90)) if grad_ms.size else 0.0,
        "train.evals_per_gradient":
            float((evaluate & under_gradient).sum() / gradient.sum()) if gradient.any() else 0.0,
        "train.metrics_eval.s": float(dur[evaluate & under_loop & ~under_gradient].sum()),
        "train.nesterov_step.s": secs("train.nesterov_step"),
        "train.gradient_check.s": secs("train.gradient_check"),
        "model.BatchEvaluator.init.calls": calls("model.BatchEvaluator.init"),
        "model.BatchEvaluator.init.s": secs("model.BatchEvaluator.init"),
        "encoding.encode.calls": calls("encoding.encode"),
        "encoding.encode.s": secs("encoding.encode"),
        "ansatz.build_ansatz.calls": calls("ansatz.build_ansatz"),
        "ansatz.build_ansatz.s": secs("ansatz.build_ansatz"),
        "model.forward.s": secs("model.forward"),
        "model.qksas.s": secs("model.qksas"),
        "data.synthetic_dataset.s": secs("data.synthetic_dataset"),
        "data.scale_features.s": secs("data.scale_features"),
        "cli.main.s": secs("cli.main"),
        "cli.self_s": float(self_time[cli[nid]].sum()) if cli.any() else 0.0,
    }

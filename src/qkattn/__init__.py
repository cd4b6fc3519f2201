"""Quantum kernel self-attention classifiers on an exact few-qubit simulator."""

from .ansatz import ParamSet, build_ansatz, build_link
from .data import Split, load_idx, make_split, pca_fit_transform, synthetic_dataset
from .encoding import encode
from .model import (BatchEvaluator, ModelConfig, QksasRecord, build_full_circuit,
                    forward, predict, qksas)
from .sim import (Circuit, Condition, DensityMatrix, GateOp, Measure, NoiseChannel,
                  RunResult, StateVector, expectation_z, gate_matrix, run_circuit)
from .train import RunRecord, TrainConfig, gradient, nesterov_step, train_loop

__version__ = "0.1.0"

__all__ = [
    "ParamSet", "build_ansatz", "build_link",
    "Split", "load_idx", "make_split", "pca_fit_transform", "synthetic_dataset",
    "encode",
    "BatchEvaluator", "ModelConfig", "QksasRecord", "build_full_circuit",
    "forward", "predict", "qksas",
    "Circuit", "Condition", "DensityMatrix", "GateOp", "Measure", "NoiseChannel",
    "RunResult", "StateVector", "expectation_z", "gate_matrix", "run_circuit",
    "RunRecord", "TrainConfig", "gradient", "nesterov_step", "train_loop",
    "__version__",
]

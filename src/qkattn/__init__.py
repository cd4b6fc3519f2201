"""Quantum kernel self-attention classifiers on an exact few-qubit simulator.

Importing the package sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 unless they are already set.  The matrices here are
at most 256 × 256, where threaded BLAS only adds scheduling cost.  BLAS
reads the variables when numpy loads, so they take effect only if numpy
is imported after this package, as it is by the ``qkattn`` command.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .ansatz import ParamSet, build_link
from .data import Split, load_idx, make_split, pca_fit_transform, synthetic_dataset
from .model import BatchEvaluator, ModelConfig, QksasRecord, build_full_circuit, forward
from .sim import (Circuit, Condition, DensityMatrix, GateOp, Measure, NoiseChannel,
                  RunResult, StateVector, expectation_z, gate_matrix, run_circuit)
from .train import RunRecord, TrainConfig, gradient, nesterov_step, train_loop

__version__ = "0.1.0"

__all__ = [
    "ParamSet", "build_link",
    "Split", "load_idx", "make_split", "pca_fit_transform", "synthetic_dataset",
    "BatchEvaluator", "ModelConfig", "QksasRecord", "build_full_circuit", "forward",
    "Circuit", "Condition", "DensityMatrix", "GateOp", "Measure", "NoiseChannel",
    "RunResult", "StateVector", "expectation_z", "gate_matrix", "run_circuit",
    "RunRecord", "TrainConfig", "gradient", "nesterov_step", "train_loop",
    "__version__",
]

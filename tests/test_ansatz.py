import numpy as np
import pytest

from qkattn.ansatz import (ParamSet, ansatz_slot_kinds, build_ansatz, build_link,
                           link_slot_count, param_slot_kinds)
from qkattn.sim import Circuit, run_circuit


def gate_tuples(circ):
    return [(op.kind, op.coords) for op in circ.ops]


def test_qaoa_structure_n2():
    circ = build_ansatz("qaoa", 2, np.arange(4, dtype=float))
    assert gate_tuples(circ) == [
        ("H", (0,)), ("RY", (0,)), ("H", (1,)), ("RY", (1,)),
        ("CNOT", (0, 1)), ("RZ", (1,)), ("CNOT", (0, 1)),
        ("CNOT", (1, 0)), ("RZ", (0,)), ("CNOT", (1, 0)),
    ]
    # rotation angles land in the right slots
    assert circ.ops[1].angle == 0.0 and circ.ops[3].angle == 1.0
    assert circ.ops[5].angle == 2.0 and circ.ops[8].angle == 3.0


def test_hea_structure_n2():
    circ = build_ansatz("hea", 2, np.arange(4, dtype=float))
    assert gate_tuples(circ) == [
        ("H", (0,)), ("RZ", (0,)), ("H", (1,)), ("RZ", (1,)),
        ("CRY", (0, 1)), ("CRY", (1, 0)),
    ]


def test_ring_wraps_n3():
    circ = build_ansatz("hea", 3, np.zeros(6))
    entanglers = [op.coords for op in circ.ops if op.kind == "CRY"]
    assert entanglers == [(0, 1), (1, 2), (2, 0)]


def test_n1_degeneracy():
    # self-loop entanglers are dropped; the qaoa RZ survives
    qaoa = build_ansatz("qaoa", 1, [0.3, 0.4])
    assert [op.kind for op in qaoa.ops] == ["H", "RY", "RZ"]
    hea = build_ansatz("hea", 1, [0.3, 0.4])
    assert [op.kind for op in hea.ops] == ["H", "RZ"]


def test_zero_angles_keep_h_layer():
    # the structural H gates must not be elided at theta = 0
    amps = run_circuit(build_ansatz("qaoa", 2, np.zeros(4)), "pure").state.amps
    assert np.allclose(np.abs(amps), 0.5, atol=1e-12)


def test_param_count_validation():
    with pytest.raises(ValueError):
        build_ansatz("qaoa", 2, np.zeros(3))
    with pytest.raises(ValueError):
        build_ansatz("hea", 2, [0.1, np.inf, 0.0, 0.0])
    with pytest.raises(ValueError):
        build_ansatz("vqe", 2, np.zeros(4))


def test_adjoint_cancels():
    rng = np.random.default_rng(2)
    for kind in ("qaoa", "hea"):
        for n in (1, 2, 3):
            theta = rng.uniform(0, 2 * np.pi, size=2 * n)
            circ = build_ansatz(kind, n, theta)
            both = Circuit(n)
            both.extend(circ)
            both.extend(circ.adjoint())
            amps = run_circuit(both, "pure").state.amps
            assert np.isclose(abs(amps[0]), 1.0, atol=1e-12)


def test_slot_kinds():
    assert ansatz_slot_kinds("qaoa", 2) == ["shift"] * 4
    assert ansatz_slot_kinds("hea", 2) == ["shift", "shift", "fd", "fd"]
    kinds = param_slot_kinds("hea", "all-zeros-canonical", 2)
    assert len(kinds) == 14
    assert kinds[-2:] == ["fd", "fd"]


def test_link_literal_structure():
    circ = build_link("per-qubit-literal", 2, np.arange(4, dtype=float))
    assert gate_tuples(circ) == [
        ("CRY", (0, 2)), ("RX", (0,)), ("CRY", (1, 3)), ("RX", (1,)),
    ]


def test_link_canonical_forms():
    cond = build_link("all-zeros-canonical", 2, [0.1, 0.2], form="conditional")
    assert all(op.kind == "RY" and op.condition is not None for op in cond.ops)
    assert [op.coords for op in cond.ops] == [(2,), (3,)]
    assert cond.ops[0].condition.bits == (0, 1)
    assert cond.ops[0].condition.pattern == (0, 0)

    deferred = build_link("all-zeros-canonical", 2, [0.1, 0.2], form="deferred")
    assert gate_tuples(deferred) == [("MCRY-open", (0, 1, 2)), ("MCRY-open", (0, 1, 3))]


def test_link_slot_counts():
    assert link_slot_count("all-zeros-canonical", 3) == 3
    assert link_slot_count("per-qubit-literal", 3) == 6
    with pytest.raises(ValueError):
        link_slot_count("other", 2)


def test_paramset_vector_round_trip():
    rng = np.random.default_rng(0)
    for link_mode in ("all-zeros-canonical", "per-qubit-literal"):
        p = ParamSet.random(2, link_mode, rng)
        vec = p.to_vector()
        back = ParamSet.from_vector(vec, 2, link_mode)
        assert np.array_equal(back.to_vector(), vec)
        assert p.count == vec.size
        assert len(p.slot_names()) == vec.size
    with pytest.raises(ValueError):
        ParamSet.from_vector(np.zeros(13), 2, "all-zeros-canonical")


def test_paramset_counts():
    assert ParamSet.zeros(2, "all-zeros-canonical").count == 14
    assert ParamSet.zeros(2, "per-qubit-literal").count == 16

"""Tests for cut-term attribution (Eqs. 2-3 of the paper)."""

import itertools

import numpy as np
import pytest

from repro import (
    CutQC,
    QuantumCircuit,
    cut_circuit,
    cut_circuit_from_assignment,
    evaluate_subcircuit,
)
from repro.circuits import build_circuit_graph
from repro.cutting.variants import INIT_LABELS
from repro.library import adder, aqft, supremacy
from repro.postprocess import (
    ATTRIBUTION_BASES,
    DOWNSTREAM_TERMS,
    UPSTREAM_TERMS,
    attributed_vector,
    build_term_tensor,
)
from repro.postprocess.attribution import transform_attributed_to_terms
from repro.sim import simulate_probabilities
from tests.conftest import random_connected_circuit


@pytest.fixture
def fig4_cut(fig4_circuit):
    return cut_circuit(fig4_circuit, [(2, 1)])


class TestTransformMatrices:
    def test_upstream_rows_match_eq2(self):
        # t1 = I + Z, t2 = I - Z, t3 = X, t4 = Y over basis order I,X,Y,Z.
        assert np.array_equal(
            UPSTREAM_TERMS,
            [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]],
        )

    def test_downstream_rows_match_eq2(self):
        assert np.array_equal(
            DOWNSTREAM_TERMS,
            [[1, 0, 0, 0], [0, 1, 0, 0], [-1, -1, 2, 0], [-1, -1, 0, 2]],
        )

    def test_single_qubit_wire_identity(self):
        # The 4-term expansion must resolve the identity channel: for any
        # single-qubit state rho prepared upstream and read downstream,
        # 1/2 sum_t p_up(t) * q_down(t) must equal the original
        # distribution.  Check with a one-gate circuit cut in half.
        circuit = QuantumCircuit(2)
        circuit.ry(0.9, 0)
        circuit.cx(0, 1)
        circuit.cx(0, 1)  # second gate so there is an edge to cut
        circuit.ry(0.4, 1)
        cut = cut_circuit(circuit, [(0, 1), (1, 1)])
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        from repro.postprocess import reconstruct_full

        reconstruction = reconstruct_full(cut, results)
        assert np.allclose(
            reconstruction.probabilities, simulate_probabilities(circuit), atol=1e-10
        )


class TestAttributedVector:
    def test_i_basis_is_marginal(self, fig4_cut):
        up = fig4_cut.subcircuits[0]
        result = evaluate_subcircuit(up)
        raw = result.vector((), ("Z",))
        attributed = attributed_vector(up, raw, ("I",))
        # I-basis attribution sums both outcomes: a plain marginal.
        from repro.utils import marginalize

        keep = [line.line for line in up.output_lines]
        assert np.allclose(attributed, marginalize(raw, keep, up.width))

    def test_z_basis_signs(self, fig4_cut):
        up = fig4_cut.subcircuits[0]
        result = evaluate_subcircuit(up)
        raw = result.vector((), ("Z",))
        attributed = attributed_vector(up, raw, ("Z",))
        # By Eq. 3: p(x) with meas-qubit 0 enters +, 1 enters -.
        tensor = raw.reshape((2,) * up.width)
        meas_axis = up.meas_lines[0].line
        signed = np.take(tensor, 0, axis=meas_axis) - np.take(
            tensor, 1, axis=meas_axis
        )
        assert np.allclose(attributed, signed.reshape(-1))

    def test_basis_count_checked(self, fig4_cut):
        up = fig4_cut.subcircuits[0]
        with pytest.raises(ValueError):
            attributed_vector(up, np.zeros(8), ())

    def test_attributed_vector_can_be_negative(self, fig4_cut):
        up = fig4_cut.subcircuits[0]
        result = evaluate_subcircuit(up)
        attributed = attributed_vector(up, result.vector((), ("X",)), ("X",))
        # Signed pseudo-probabilities are not distributions in general.
        assert attributed.min() < 0 or not np.isclose(attributed.sum(), 1.0)


class TestTermTensor:
    def test_shape_and_order(self, fig4_cut):
        for sub in fig4_cut.subcircuits:
            tensor = build_term_tensor(evaluate_subcircuit(sub))
            assert tensor.data.shape == (4, 1 << sub.num_effective)
            assert tensor.cut_order == [0]

    def test_row_for_terms(self, fig4_cut):
        tensor = build_term_tensor(
            evaluate_subcircuit(fig4_cut.subcircuits[0])
        )
        assert tensor.row_for({0: 2}) == 2
        assert np.array_equal(tensor.vector({0: 1}), tensor.data[1])

    def test_upstream_terms_hand_computed(self, fig4_cut):
        """Check t1..t4 against direct formulas on raw variant outputs."""
        up = fig4_cut.subcircuits[0]
        result = evaluate_subcircuit(up)
        tensor = build_term_tensor(result)

        def attributed(basis):
            physical = "Z" if basis == "I" else basis
            return attributed_vector(up, result.vector((), (physical,)), (basis,))

        p_i, p_x, p_y, p_z = (attributed(b) for b in "IXYZ")
        assert np.allclose(tensor.data[0], p_i + p_z)
        assert np.allclose(tensor.data[1], p_i - p_z)
        assert np.allclose(tensor.data[2], p_x)
        assert np.allclose(tensor.data[3], p_y)

    def test_downstream_terms_hand_computed(self, fig4_cut):
        down = fig4_cut.subcircuits[1]
        result = evaluate_subcircuit(down)
        tensor = build_term_tensor(result)
        q = {label: result.vector((label,), ()) for label in
             ("zero", "one", "plus", "plus_i")}
        assert np.allclose(tensor.data[0], q["zero"])
        assert np.allclose(tensor.data[1], q["one"])
        assert np.allclose(tensor.data[2], 2 * q["plus"] - q["zero"] - q["one"])
        assert np.allclose(tensor.data[3], 2 * q["plus_i"] - q["zero"] - q["one"])

    def test_multi_cut_axis_order_sorted_by_cut_id(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cx(0, 2).cx(0, 1)
        cut = cut_circuit(circuit, [(0, 1), (0, 2)])
        for sub in cut.subcircuits:
            tensor = build_term_tensor(evaluate_subcircuit(sub))
            assert tensor.cut_order == sorted(tensor.cut_order)
            assert tensor.data.shape[0] == 4 ** len(tensor.cut_order)

    def test_nonzero_flags(self, fig4_cut):
        tensor = build_term_tensor(
            evaluate_subcircuit(fig4_cut.subcircuits[0])
        )
        for row in range(4):
            assert tensor.nonzero[row] == bool(np.any(tensor.data[row] != 0))


class TestPaperExampleSection32:
    """Replicate the p_{1,i} / p_{2,i} bookkeeping of §3.2 numerically."""

    def test_reconstructed_state_matches_manual_sum(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        up, down = cut.subcircuits
        up_result = evaluate_subcircuit(up)
        down_result = evaluate_subcircuit(down)
        up_tensor = build_term_tensor(up_result)
        down_tensor = build_term_tensor(down_result)

        # Manual reconstruction of p(|01010>).
        target = "01010"
        # Upstream effective outputs are wires 0,1; downstream wires 2,3,4.
        up_index = int(target[:2], 2)
        down_index = int(target[2:], 2)
        manual = 0.5 * sum(
            up_tensor.data[t][up_index] * down_tensor.data[t][down_index]
            for t in range(4)
        )
        truth = simulate_probabilities(fig4_circuit)
        from repro.utils import bitstring_to_index

        assert np.isclose(manual, truth[bitstring_to_index(target)], atol=1e-10)


# ----------------------------------------------------------------------
# Block kernel vs the per-combination reference
# ----------------------------------------------------------------------

def per_combo_term_tensor(result):
    """Reference: one :func:`attributed_vector` call per init x basis
    combination, the loop :func:`build_term_tensor` replaced."""
    subcircuit = result.subcircuit
    init_lines = subcircuit.init_lines
    meas_lines = subcircuit.meas_lines
    num_init = len(init_lines)
    num_meas = len(meas_lines)
    shape = (4,) * (num_init + num_meas) + (1 << subcircuit.num_effective,)
    attributed = np.zeros(shape)
    for init_combo in itertools.product(range(4), repeat=num_init):
        init_labels = tuple(INIT_LABELS[i] for i in init_combo)
        for basis_combo in itertools.product(range(4), repeat=num_meas):
            bases = tuple(ATTRIBUTION_BASES[b] for b in basis_combo)
            physical = tuple("Z" if b == "I" else b for b in bases)
            raw = result.vector(init_labels, physical)
            attributed[init_combo + basis_combo] = attributed_vector(
                subcircuit, raw, bases
            )
    return transform_attributed_to_terms(
        attributed,
        num_init=num_init,
        num_meas=num_meas,
        axis_cut_ids=[line.init_cut for line in init_lines]
        + [line.meas_cut for line in meas_lines],
        num_effective=subcircuit.num_effective,
        subcircuit_index=subcircuit.index,
    )


def _random_cut(seed, max_cuts=5):
    """A random connected circuit cut along a random gate bipartition."""
    circuit = random_connected_circuit(5 + seed % 3, 12, seed)
    graph = build_circuit_graph(circuit)
    rng = np.random.default_rng(seed)
    for _ in range(200):
        assignment = rng.integers(0, 2, size=graph.num_vertices)
        if not 0 < assignment.sum() < graph.num_vertices:
            continue
        cut = cut_circuit_from_assignment(circuit, list(assignment), graph=graph)
        if cut.num_cuts <= max_cuts:
            return cut
    return None


def _subcircuit_results():
    cuts = [_random_cut(seed) for seed in range(12)]
    cuts += [
        cut_circuit(QuantumCircuit(3).cx(0, 1).cx(0, 2).cx(0, 1), [(0, 1), (0, 2)])
    ]
    for circuit, device in (
        (aqft(7), 4),
        (adder(8, seed=2), 5),
        (supremacy(6, depth=6, seed=4), 4),
    ):
        cuts.append(CutQC(circuit, device).cut())
    for cut in cuts:
        if cut is None:
            continue
        for subcircuit in cut.subcircuits:
            yield evaluate_subcircuit(subcircuit, sim_batch=16)


class TestBlockKernelBitIdentity:
    def test_matches_per_combo_reference_bit_for_bit(self):
        seen = set()
        for result in _subcircuit_results():
            subcircuit = result.subcircuit
            tensor = build_term_tensor(result)
            reference = per_combo_term_tensor(result)
            assert np.array_equal(tensor.data, reference.data)
            assert tensor.data.tobytes() == reference.data.tobytes()
            assert tensor.cut_order == reference.cut_order
            assert np.array_equal(tensor.nonzero, reference.nonzero)
            assert tensor.num_effective == reference.num_effective

            meas_axes = [line.line for line in subcircuit.meas_lines]
            width = subcircuit.width
            if not subcircuit.init_lines:
                seen.add("rho=0")
            if not meas_axes:
                seen.add("O=0")
            if len(subcircuit.cut_ids) >= 3:
                seen.add("several cuts")
            if len(meas_axes) >= 2:
                seen.add("several measurement lines")
            if meas_axes and meas_axes != list(
                range(width - len(meas_axes), width)
            ):
                seen.add("non-trailing measurement lines")
            if subcircuit.init_lines and meas_axes:
                seen.add("init and measurement lines")
        assert seen == {
            "rho=0",
            "O=0",
            "several cuts",
            "several measurement lines",
            "non-trailing measurement lines",
            "init and measurement lines",
        }

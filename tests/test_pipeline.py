"""Tests for the end-to-end CutQC pipeline (paper Fig. 5)."""

import numpy as np
import pytest

from repro import (
    CutQC,
    QuantumCircuit,
    evaluate_with_cutqc,
    make_device,
    simulate_probabilities,
)
from repro.library import adder, aqft, bv, hwea, supremacy
from repro.metrics import chi_square_loss
from repro.sim import NoiseModel, ShotSampler


class TestAutomaticPipeline:
    @pytest.mark.parametrize(
        "circuit,device_size",
        [
            (bv(6), 5),
            (aqft(6), 5),
            (hwea(6), 5),
            (adder(6, seed=1), 5),
            (supremacy(8, seed=3), 6),
        ],
        ids=["bv", "aqft", "hwea", "adder", "supremacy"],
    )
    def test_fd_query_matches_ground_truth(self, circuit, device_size):
        pipeline = CutQC(circuit, max_subcircuit_qubits=device_size)
        result = pipeline.fd_query()
        truth = simulate_probabilities(circuit)
        assert np.allclose(result.probabilities, truth, atol=1e-8)

    def test_subcircuits_respect_budget(self):
        pipeline = CutQC(bv(7), max_subcircuit_qubits=4)
        cut = pipeline.cut()
        assert cut.max_subcircuit_width() <= 4

    def test_explicit_cuts_skip_search(self, fig4_circuit):
        pipeline = CutQC(fig4_circuit, max_subcircuit_qubits=3, cuts=[(2, 1)])
        cut = pipeline.cut()
        assert pipeline.solution is None
        assert cut.num_cuts == 1

    def test_evaluate_caches_results(self, fig4_circuit):
        pipeline = CutQC(fig4_circuit, max_subcircuit_qubits=3)
        first = pipeline.evaluate()
        assert pipeline.evaluate() is first

    def test_one_call_helper(self, fig4_circuit):
        probs = evaluate_with_cutqc(fig4_circuit, 3)
        truth = simulate_probabilities(fig4_circuit)
        assert np.allclose(probs, truth, atol=1e-8)

    def test_device_and_backend_mutually_exclusive(self, fig4_circuit):
        device = make_device("d", 3, "line")
        with pytest.raises(ValueError):
            CutQC(
                fig4_circuit,
                3,
                device=device,
                backend=lambda c: np.ones(2),
            )


class TestBackends:
    def test_shot_backend_approximates_truth(self, fig4_circuit):
        sampler = ShotSampler(shots=100_000, seed=11)
        pipeline = CutQC(fig4_circuit, 3, backend=sampler.run)
        result = pipeline.fd_query()
        truth = simulate_probabilities(fig4_circuit)
        assert chi_square_loss(np.clip(result.probabilities, 0, None), truth) < 0.02

    def test_noiseless_device_backend_exact(self, fig4_circuit):
        device = make_device("ideal", 3, "line", noise=NoiseModel(), seed=0)
        pipeline = CutQC(fig4_circuit, 3, backend=device.backend(shots=0))
        result = pipeline.fd_query()
        truth = simulate_probabilities(fig4_circuit)
        assert np.allclose(result.probabilities, truth, atol=1e-8)

    def test_noisy_device_backend_reasonable(self):
        """CutQC on a small noisy device still lands near the truth."""
        circuit = bv(5)
        device = make_device(
            "noisy",
            4,
            "line",
            noise=NoiseModel(error_1q=0.001, error_2q=0.01, readout=0.01),
            seed=3,
        )
        pipeline = CutQC(circuit, 4, backend=device.backend(shots=8192, trajectories=16))
        result = pipeline.fd_query()
        truth = simulate_probabilities(circuit)
        # Noisy, but the solution state still dominates.
        assert int(np.argmax(result.probabilities)) == int(np.argmax(truth))


class TestQueries:
    def test_dd_query_returns_query_object(self, fig4_circuit):
        pipeline = CutQC(fig4_circuit, 3)
        query = pipeline.dd_query(max_active_qubits=2, max_recursions=3)
        assert len(query.recursions) >= 1
        assert np.isclose(
            query.recursions[0].probabilities.sum(), 1.0, atol=1e-8
        )

    def test_fd_and_dd_agree_on_marginal(self, fig4_circuit):
        from repro.utils import marginalize

        pipeline = CutQC(fig4_circuit, 3)
        fd = pipeline.fd_query().probabilities
        dd = pipeline.dd_query(max_active_qubits=2, max_recursions=1)
        first = dd.recursions[0]
        assert np.allclose(
            first.probabilities,
            marginalize(fd, list(first.active), 5),
            atol=1e-8,
        )

    def test_fd_query_workers(self, fig4_circuit):
        pipeline = CutQC(fig4_circuit, 3)
        serial = pipeline.fd_query(workers=1)
        parallel = pipeline.fd_query(workers=2)
        assert np.allclose(
            serial.probabilities, parallel.probabilities, atol=1e-12
        )


class TestShotLevelDD:
    def test_dd_query_with_shots_per_variant(self):
        from repro.library import bv, bv_solution

        pipeline = CutQC(bv(6), max_subcircuit_qubits=5)
        query = pipeline.dd_query(
            max_active_qubits=2,
            max_recursions=3,
            shots_per_variant=8192,
            seed=4,
        )
        states = query.solution_states(threshold=0.5)
        assert states and states[0][0] == bv_solution(6)

    def test_shot_level_dd_through_noisy_device(self):
        from repro.library import bv, bv_solution

        device = make_device(
            "noisy",
            5,
            "line",
            noise=NoiseModel(error_1q=0.001, error_2q=0.005, readout=0.01),
            seed=9,
        )
        pipeline = CutQC(
            bv(6), max_subcircuit_qubits=5,
            backend=device.backend(shots=0, trajectories=12),
        )
        query = pipeline.dd_query(
            max_active_qubits=3, max_recursions=2,
            shots_per_variant=4096, seed=2,
        )
        states = query.solution_states(threshold=0.3)
        assert states and states[0][0] == bv_solution(6)


class TestTermTensorMemo:
    """Each evaluation is attributed once; every query reuses the tensors."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.postprocess import attribution

        built = []
        original = attribution.build_term_tensor

        def counting(result):
            built.append(result.subcircuit.index)
            return original(result)

        monkeypatch.setattr(attribution, "build_term_tensor", counting)
        return built

    def test_queries_attribute_each_subcircuit_once(self, calls):
        circuit = bv(10)
        pipeline = CutQC(circuit, max_subcircuit_qubits=6)
        first = pipeline.fd_query().probabilities
        pipeline.dd_query(max_active_qubits=4, max_recursions=3)
        pipeline.fd_top_k(2, 3)
        again = pipeline.fd_query().probabilities
        num_subcircuits = pipeline.cut().num_subcircuits
        assert num_subcircuits >= 2
        assert sorted(calls) == list(range(num_subcircuits))
        assert np.array_equal(first, again)
        assert np.allclose(again, simulate_probabilities(circuit), atol=1e-10)

    def test_queries_share_the_memoized_tensors(self, calls):
        pipeline = CutQC(aqft(6), max_subcircuit_qubits=4)
        tensors = pipeline.term_tensors()
        assert pipeline.term_tensors() is tensors
        pipeline.fd_top_k(2, 3)
        streamed = pipeline._streaming_reconstructor().provider.tensors
        assert all(a is b for a, b in zip(streamed, tensors))
        query = pipeline.dd_query(max_active_qubits=3, max_recursions=2)
        assert all(a is b for a, b in zip(query.provider.tensors, tensors))
        assert len(calls) == len(tensors)

    def test_load_results_drops_the_memo(self, calls):
        pipeline = CutQC(bv(8), max_subcircuit_qubits=5)
        tensors = pipeline.term_tensors()
        pipeline.load_results(pipeline.evaluate())
        rebuilt = pipeline.term_tensors()
        assert rebuilt is not tensors
        assert len(calls) == 2 * len(tensors)
        for old, new in zip(tensors, rebuilt):
            assert np.array_equal(old.data, new.data)

    def test_load_cut_drops_the_memo(self, calls):
        circuit = bv(8)
        pipeline = CutQC(circuit, max_subcircuit_qubits=5)
        pipeline.fd_query()
        pipeline.load_cut(pipeline.cut(), pipeline.solution)
        assert pipeline._tensors is None
        result = pipeline.fd_query()
        assert len(calls) == 2 * pipeline.cut().num_subcircuits
        assert np.allclose(
            result.probabilities, simulate_probabilities(circuit), atol=1e-10
        )

    def test_attribution_span(self):
        from repro.obs import trace

        pipeline = CutQC(bv(8), max_subcircuit_qubits=5)
        pipeline.evaluate()
        with trace.start("root") as root:
            pipeline.fd_query()
            pipeline.fd_query()
        spans = [
            child
            for query in root.children
            for child in query.children
            if child.name == "query.attribute"
        ]
        assert len(spans) == 1  # the second query reuses the tensors
        tensors = pipeline.term_tensors()
        assert spans[0].attrs == {
            "subcircuits": len(tensors),
            "bytes": sum(tensor.data.nbytes for tensor in tensors),
        }


class TestReleaseWithoutCycleCollector:
    """A dead pipeline frees its variant vectors by reference counting:
    no self-referencing closure in cut search or evaluation keeps them
    alive until the next full garbage collection."""

    def test_results_die_with_the_pipeline(self):
        import gc
        import weakref

        gc.disable()
        try:
            pipeline = CutQC(supremacy(8, seed=3), 6)
            pipeline.fd_query()
            vectors = [
                weakref.ref(vector)
                for result in pipeline.evaluate()
                for vector in result.probabilities.values()
            ]
            del pipeline
            assert all(ref() is None for ref in vectors)
        finally:
            gc.enable()

"""Exact references and the 1e-10 output checks.

A reference is either a dense probability vector from an independent
statevector simulation (small circuits) or a single basis state for the
circuits whose ideal output is classical (BV, the ripple-carry adder),
taken from the library's own ``*_solution`` helpers.  Every FD, top-k and
DD output the benchmark receives is compared against one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

TOLERANCE = 1e-10


def statevector_probabilities(circuit) -> np.ndarray:
    """Exact output distribution (qubit 0 = most significant bit).

    Written independently of :mod:`repro.sim`; only the gate matrices
    come from the program.
    """
    n = circuit.num_qubits
    state = np.zeros((2,) * n, dtype=complex)
    state[(0,) * n] = 1.0
    for gate in circuit:
        k = len(gate.qubits)
        operator = np.asarray(gate.matrix(), dtype=complex).reshape((2,) * 2 * k)
        state = np.tensordot(operator, state, axes=(range(k, 2 * k), gate.qubits))
        state = np.moveaxis(state, range(k), gate.qubits)
    flat = state.reshape(-1)
    return flat.real**2 + flat.imag**2


class Reference:
    """The exact distribution of one circuit, dense or a single state."""

    def __init__(
        self,
        num_qubits: int,
        dense: Optional[np.ndarray] = None,
        solution: Optional[str] = None,
    ):
        if (dense is None) == (solution is None):
            raise ValueError("give a dense vector or a solution string")
        self.num_qubits = num_qubits
        self.dense = dense
        self.solution = solution

    def probability(self, bits: str) -> float:
        if self.dense is not None:
            return float(self.dense[int(bits, 2)])
        return 1.0 if bits == self.solution else 0.0

    # -- checks: each returns None when the output is correct, else why --
    def check_fd(self, probabilities: np.ndarray) -> Optional[str]:
        probabilities = np.asarray(probabilities)
        if probabilities.shape != (1 << self.num_qubits,):
            return f"FD vector has shape {probabilities.shape}"
        if self.dense is not None:
            error = float(np.max(np.abs(probabilities - self.dense)))
        else:
            index = int(self.solution, 2)
            error = abs(float(probabilities[index]) - 1.0)
            others = np.abs(probabilities).copy()
            others[index] = 0.0
            error = max(error, float(others.max()))
        if not error <= TOLERANCE:
            return f"FD max error {error:.3e}"
        return None

    def _kth_largest(self, k: int, prefixes: Optional[Sequence[str]]) -> float:
        """The k-th largest reference probability among states with one of
        ``prefixes`` (all states when None)."""
        if self.dense is None:
            inside = prefixes is None or any(
                self.solution.startswith(p) for p in prefixes
            )
            return 1.0 if (inside and k == 1) else 0.0
        if prefixes is None:
            values = self.dense
        else:
            width = 1 << (self.num_qubits - len(prefixes[0]))
            values = np.concatenate(
                [self.dense[int(p, 2) * width:(int(p, 2) + 1) * width]
                 for p in prefixes]
            )
        k = min(k, values.size)
        return float(np.partition(values, values.size - k)[values.size - k])

    def check_top(
        self,
        states: Iterable[Tuple[str, float]],
        k: int,
        prefixes: Optional[Sequence[str]] = None,
    ) -> Optional[str]:
        """Each reported state's probability is exact and it ranks in the
        true top ``k`` (ties within tolerance allowed)."""
        states = list(states)
        if len(states) != k:
            return f"top-k returned {len(states)} states, expected {k}"
        floor = self._kth_largest(k, prefixes)
        for bits, probability in states:
            if prefixes is not None and not any(bits.startswith(p) for p in prefixes):
                return f"top-k state {bits} is outside the requested shards"
            exact = self.probability(bits)
            if not abs(probability - exact) <= TOLERANCE:
                return f"top-k p({bits})={probability!r}, exact {exact!r}"
            if not exact >= floor - TOLERANCE:
                return f"top-k state {bits} (p={exact}) is not in the top {k}"
        return None

    def check_states(self, states: Iterable[Tuple[str, float]]) -> Optional[str]:
        """Each reported (state, probability) pair is exact."""
        for bits, probability in states:
            exact = self.probability(bits)
            if not abs(probability - exact) <= TOLERANCE:
                return f"p({bits})={probability!r}, exact {exact!r}"
        return None

    def marginal(self, fixed: Dict[int, int], active: Sequence[int]) -> np.ndarray:
        """Probability of each assignment of ``active`` (first = MSB) given
        the ``fixed`` bits, summed over every other qubit."""
        n = self.num_qubits
        if self.dense is None:
            out = np.zeros(1 << len(active))
            bits = [int(b) for b in self.solution]
            if all(bits[w] == v for w, v in fixed.items()):
                index = 0
                for wire in active:
                    index = (index << 1) | bits[wire]
                out[index] = 1.0
            return out
        tensor = self.dense.reshape((2,) * n)
        index = tuple(fixed.get(q, slice(None)) for q in range(n))
        tensor = tensor[index]
        remaining = [q for q in range(n) if q not in fixed]
        merged = tuple(i for i, q in enumerate(remaining) if q not in active)
        tensor = tensor.sum(axis=merged) if merged else tensor
        kept = [q for q in remaining if q in active]
        order = [kept.index(q) for q in active]
        return np.transpose(tensor, order).reshape(-1)

    def check_dd(self, recursions) -> Optional[str]:
        """Every DD recursion's bin probabilities equal the exact marginal."""
        if not recursions:
            return "DD query ran no recursion"
        for recursion in recursions:
            exact = self.marginal(dict(recursion.fixed), list(recursion.active))
            error = float(np.max(np.abs(recursion.probabilities - exact)))
            if not error <= TOLERANCE:
                return f"DD recursion {recursion.index} max error {error:.3e}"
        return None


def reference_for(kind: str, num_qubits: int, circuit, seed: Optional[int] = None) -> Reference:
    """Reference for a library circuit: the classical answer for BV and
    the adder, an exact statevector otherwise."""
    if kind == "bv":
        from repro.library.bv import bv_solution

        return Reference(num_qubits, solution=bv_solution(num_qubits))
    if kind == "adder":
        from repro.library.adder import adder_solution

        return Reference(num_qubits, solution=adder_solution(num_qubits, seed=seed))
    return Reference(num_qubits, dense=statevector_probabilities(circuit))


def top_pairs(items: List[dict]) -> List[Tuple[str, float]]:
    """``[{"state": .., "probability": ..}]`` from a job result as pairs."""
    return [(item["state"], float(item["probability"])) for item in items]

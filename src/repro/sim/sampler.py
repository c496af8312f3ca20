"""Shot-based sampling (paper Fig. 2b execution model).

NISQ executions return counts over classical bitstrings rather than
amplitudes.  This module converts exact distributions into finite-shot
empirical distributions and back, so every evaluation backend in the
package speaks the same "probability vector" language.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..circuits import QuantumCircuit
from ..utils import index_to_bitstring
from .statevector import simulate_probabilities

__all__ = [
    "sample_counts",
    "counts_to_probabilities",
    "probabilities_to_counts_dict",
    "sample_distribution",
    "ShotSampler",
]


def sample_counts(
    probabilities: np.ndarray,
    shots: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Draw ``shots`` samples; returns integer counts per basis state."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    rng = rng or np.random.default_rng()
    clipped = np.clip(probabilities, 0.0, None)
    total = clipped.sum()
    if total <= 0:
        raise ValueError("cannot sample from an all-zero distribution")
    # Quantize first: numpy's binomial draws take a different branch for
    # p above and below 0.5, so a one-ulp difference between two
    # evaluations of the same distribution (e.g. batched vs per-variant)
    # would otherwise change every later count under the same seed.
    quantized = np.round(clipped / total, 12)
    return rng.multinomial(shots, quantized / quantized.sum()).astype(np.int64)


def counts_to_probabilities(counts: np.ndarray) -> np.ndarray:
    """Normalize integer counts into an empirical distribution."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        raise ValueError("counts are empty")
    return counts / total


def probabilities_to_counts_dict(
    probabilities: np.ndarray, shots: int, num_qubits: int,
    rng: Optional[np.random.Generator] = None,
) -> Dict[str, int]:
    """Bitstring->count mapping, like hardware result payloads."""
    counts = sample_counts(probabilities, shots, rng)
    return {
        index_to_bitstring(index, num_qubits): int(count)
        for index, count in enumerate(counts)
        if count > 0
    }


def sample_distribution(
    probabilities: np.ndarray,
    shots: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Empirical distribution after ``shots`` samples of ``probabilities``."""
    return counts_to_probabilities(sample_counts(probabilities, shots, rng))


class ShotSampler:
    """Shot-based circuit evaluation backend (noiseless sampling).

    Evaluates a circuit exactly, then subsamples with a finite number of
    shots — the idealized version of running on hardware.  Used by tests
    and by the CutQC pipeline when emulating shot noise without device
    noise.
    """

    def __init__(self, shots: int = 8192, seed: Optional[int] = None):
        if shots <= 0:
            raise ValueError("shots must be positive")
        self.shots = int(shots)
        self._rng = np.random.default_rng(seed)

    def run(self, circuit: QuantumCircuit, initial_labels=None) -> np.ndarray:
        exact = simulate_probabilities(circuit, initial_labels)
        return sample_distribution(exact, self.shots, self._rng)

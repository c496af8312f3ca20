"""Turn raw subcircuit results into per-cut *term tensors*.

Equation (2) expands every cut into four paired terms.  For the upstream
(measured) side the four terms are linear combinations of the attributed
Pauli-basis results::

    t1 = p_I + p_Z     t2 = p_I - p_Z     t3 = p_X     t4 = p_Y

and for the downstream (initialized) side::

    t1 = q_0           t2 = q_1
    t3 = 2 q_+  - q_0 - q_1
    t4 = 2 q_+i - q_0 - q_1

where ``p_M`` is the subcircuit distribution measured in basis ``M`` with
the cut qubit *attributed away* with signs per Eq. (3) (+ for outcome 0,
- for outcome 1; basis I attributes both outcomes with +), and ``q_s`` is
the distribution with the cut qubit initialized to ``s``.

A subcircuit touching ``m`` cuts therefore yields a tensor with one
length-4 axis per cut plus a length ``2^f`` axis of effective outputs; the
reconstructor combines these tensors over all ``4^K`` assignments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..cutting.cutter import Subcircuit
from ..cutting.variants import INIT_LABELS, MEAS_BASES, SubcircuitResult

__all__ = [
    "UPSTREAM_TERMS",
    "DOWNSTREAM_TERMS",
    "ATTRIBUTION_BASES",
    "TermTensor",
    "build_term_tensor",
    "attribute_blocks",
    "attributed_vector",
]

#: Attribution bases, in the axis order used below (I reuses the Z circuit).
ATTRIBUTION_BASES: Tuple[str, ...] = ("I", "X", "Y", "Z")

#: Rows = the four cut terms, columns = attributed bases (I, X, Y, Z).
UPSTREAM_TERMS = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],   # t1 = p_I + p_Z
        [1.0, 0.0, 0.0, -1.0],  # t2 = p_I - p_Z
        [0.0, 1.0, 0.0, 0.0],   # t3 = p_X
        [0.0, 0.0, 1.0, 0.0],   # t4 = p_Y
    ]
)

#: Rows = the four cut terms, columns = init states (|0>, |1>, |+>, |+i>).
DOWNSTREAM_TERMS = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],    # t1 = q_0
        [0.0, 1.0, 0.0, 0.0],    # t2 = q_1
        [-1.0, -1.0, 2.0, 0.0],  # t3 = 2 q_plus - q_0 - q_1
        [-1.0, -1.0, 0.0, 2.0],  # t4 = 2 q_plus_i - q_0 - q_1
    ]
)

_SIGNS = {
    "I": np.array([1.0, 1.0]),
    "X": np.array([1.0, -1.0]),
    "Y": np.array([1.0, -1.0]),
    "Z": np.array([1.0, -1.0]),
}

#: Per attribution basis (ATTRIBUTION_BASES order): the physical-basis
#: slot it reads (I reuses the Z circuit) and how its two outcomes
#: combine under Eq. (3) -- I sums them, X/Y/Z subtract outcome 1.
_ELIMINATION = tuple(
    (
        MEAS_BASES.index("Z" if basis == "I" else basis),
        np.add if basis == "I" else np.subtract,
    )
    for basis in ATTRIBUTION_BASES
)


def attributed_vector(
    subcircuit: Subcircuit,
    raw_vector: np.ndarray,
    bases: Sequence[str],
) -> np.ndarray:
    """Attribute the cut-measure qubits away with Eq. (3) signs.

    ``raw_vector`` is the physical distribution of the variant whose
    measurement circuits implement ``bases`` (I is implemented by the Z
    circuit); the result is a signed pseudo-distribution over the
    subcircuit's effective (output) qubits, in line order.
    """
    meas_lines = subcircuit.meas_lines
    if len(bases) != len(meas_lines):
        raise ValueError(
            f"{len(bases)} bases for {len(meas_lines)} measurement lines"
        )
    tensor = np.asarray(raw_vector, dtype=float).reshape((2,) * subcircuit.width)
    # Contract measurement axes from highest line index down so earlier
    # axis positions stay valid.
    pairs = sorted(
        zip((line.line for line in meas_lines), bases), reverse=True
    )
    for axis, basis in pairs:
        signs = _SIGNS[basis]
        tensor = np.tensordot(tensor, signs, axes=([axis], [0]))
    return tensor.reshape(-1)


@dataclass
class TermTensor:
    """All 4-term combinations of one subcircuit, ready for reconstruction.

    ``data[row]`` is the effective-output vector for the cut-term
    assignment encoded by ``row``: with ``cut_order = [c1, ..., cm]``,
    ``row = t(c1) * 4^(m-1) + ... + t(cm)`` where ``t(c)`` in 0..3.
    """

    subcircuit_index: int
    cut_order: List[int]
    num_effective: int
    data: np.ndarray  # shape (4^m, 2^f)
    nonzero: np.ndarray  # bool per row — rows of all zeros can be skipped

    @property
    def num_cuts(self) -> int:
        return len(self.cut_order)

    def row_for(self, terms: Dict[int, int]) -> int:
        """Row index for a global cut->term assignment."""
        row = 0
        for cut_id in self.cut_order:
            row = row * 4 + terms[cut_id]
        return row

    def vector(self, terms: Dict[int, int]) -> np.ndarray:
        return self.data[self.row_for(terms)]


def attribute_blocks(
    blocks: Iterable[Sequence[np.ndarray]],
    num_init: int,
    meas_axes: Sequence[int],
    outcome_shape: Sequence[int],
) -> np.ndarray:
    """Attribute the measurement lines away from every init block (Eq. 3).

    ``blocks`` yields, per init combination (in
    ``itertools.product(INIT_LABELS, repeat=num_init)`` order), that
    block's ``3^O`` physical-variant vectors in
    ``itertools.product(MEAS_BASES, repeat=O)`` order.  Each vector has
    ``outcome_shape`` (or is its flattening), and axis ``meas_axes[k]``
    holds measurement line ``k``'s outcome bit.  Returns one length-4
    axis per init line, one per measurement line (in
    :data:`ATTRIBUTION_BASES` order) and the flattened remaining
    outcomes -- the input :func:`transform_attributed_to_terms` expects.

    Each block is copied into one reused scratch buffer and its lines
    are eliminated highest outcome axis first, as four elementwise ops
    each (I = Z0 + Z1, X = X0 - X1, Y = Y0 - Y1, Z = Z0 - Z1): the same
    additions, in the same order, as :func:`attributed_vector`, so the
    result is bit-identical to attributing vector by vector.
    """
    num_meas = len(meas_axes)
    physical = np.empty((3,) * num_meas + tuple(outcome_shape))
    rows = physical.reshape(3**num_meas, -1)
    # Ping-pong partner of ``physical``: each elimination shrinks the
    # block by 4/(3*2), so two thirds of it holds the first result.
    spare = np.empty(2 * physical.size // 3) if num_meas else None
    vec_len = rows.shape[1] >> num_meas
    attributed = np.empty((4**num_init, 4**num_meas * vec_len))
    for out, vectors in zip(attributed, blocks, strict=True):
        for row, vector in zip(rows, vectors, strict=True):
            row[...] = vector.reshape(-1)
        _eliminate(physical, meas_axes, out, spare)
    return attributed.reshape((4,) * (num_init + num_meas) + (vec_len,))


def _eliminate(
    physical: np.ndarray,
    meas_axes: Sequence[int],
    out: np.ndarray,
    spare: Optional[np.ndarray],
) -> None:
    """Eliminate one block's measurement lines into the contiguous ``out``;
    ``physical`` and ``spare`` are overwritten as scratch."""
    num_meas = len(meas_axes)
    if not num_meas:
        out[...] = physical.reshape(out.shape)
        return
    buffers = (physical.reshape(-1), spare)
    source = physical
    order = sorted(range(num_meas), key=lambda k: meas_axes[k], reverse=True)
    for step, line in enumerate(order):
        axis = num_meas + meas_axes[line]
        shape = list(source.shape)
        shape[line] = 4
        del shape[axis]
        if step == num_meas - 1:
            target = out.reshape(shape)
        else:
            size = int(np.prod(shape))
            target = buffers[(step + 1) % 2][:size].reshape(shape)
        index = [slice(None)] * source.ndim
        for basis, (slot, op) in enumerate(_ELIMINATION):
            index[line] = slot
            index[axis] = 0
            zero = source[tuple(index)]
            index[axis] = 1
            op(zero, source[tuple(index)], out=target[(slice(None),) * line + (basis,)])
        source = target


def build_term_tensor(result: SubcircuitResult) -> TermTensor:
    """Apply attribution and the 4-term transforms to raw variant results."""
    subcircuit = result.subcircuit
    init_lines = subcircuit.init_lines
    meas_lines = subcircuit.meas_lines
    num_init = len(init_lines)
    num_meas = len(meas_lines)
    physical_bases = list(itertools.product(MEAS_BASES, repeat=num_meas))
    blocks = (
        [result.vector(inits, bases) for bases in physical_bases]
        for inits in itertools.product(INIT_LABELS, repeat=num_init)
    )
    attributed = attribute_blocks(
        blocks,
        num_init,
        [line.line for line in meas_lines],
        (2,) * subcircuit.width,
    )

    axis_cut_ids = [line.init_cut for line in init_lines] + [
        line.meas_cut for line in meas_lines
    ]
    return transform_attributed_to_terms(
        attributed,
        num_init=num_init,
        num_meas=num_meas,
        axis_cut_ids=axis_cut_ids,
        num_effective=subcircuit.num_effective,
        subcircuit_index=subcircuit.index,
    )


def transform_attributed_to_terms(
    attributed: np.ndarray,
    num_init: int,
    num_meas: int,
    axis_cut_ids: Sequence[int],
    num_effective: int,
    subcircuit_index: int,
) -> TermTensor:
    """Apply the 4-term transforms and canonicalize cut-axis order.

    ``attributed`` has one length-4 axis per init cut (init-state index),
    one length-4 axis per measurement cut (attributed basis index in
    :data:`ATTRIBUTION_BASES` order) and a trailing output axis.
    """
    vec_len = attributed.shape[-1]
    tensor = attributed
    for axis in range(num_init):
        tensor = np.moveaxis(
            np.tensordot(DOWNSTREAM_TERMS, tensor, axes=([1], [axis])), 0, axis
        )
    for offset in range(num_meas):
        axis = num_init + offset
        tensor = np.moveaxis(
            np.tensordot(UPSTREAM_TERMS, tensor, axes=([1], [axis])), 0, axis
        )

    # Reorder the cut axes to ascending cut id (the reconstructor's
    # canonical order) and flatten to (4^m, 2^f).
    order = sorted(range(len(axis_cut_ids)), key=lambda i: axis_cut_ids[i])
    tensor = np.transpose(tensor, axes=list(order) + [len(axis_cut_ids)])
    cut_order = [axis_cut_ids[i] for i in order]

    data = tensor.reshape(4 ** len(cut_order), vec_len)
    nonzero = np.any(data != 0.0, axis=1)
    return TermTensor(
        subcircuit_index=subcircuit_index,
        cut_order=cut_order,
        num_effective=num_effective,
        data=data,
        nonzero=nonzero,
    )

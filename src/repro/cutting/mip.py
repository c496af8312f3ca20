"""Exact cut search: the paper's MIP (Eqs. 4-15) via branch and bound.

The paper hands this model to Gurobi; offline we solve it with a custom
depth-first branch and bound over cluster assignments.  The search keeps
the paper's symmetry-breaking rule (Eq. 12) — vertex ``v`` may only join
clusters ``0..min(v, nC-1)``, i.e. a new cluster is opened only by the
lowest-index vertex that uses it — and prunes on:

* **capacity** — a cluster's ``alpha + rho`` lower bound already exceeds
  the device size ``D`` (rho never decreases as more vertices commit);
* **cut budget** — committed cut edges already exceed ``max_cuts``;
* **objective bound** — ``4^K`` with the committed ``K`` already matches
  or exceeds the incumbent (the remaining factor of Eq. 14 is >= 1).

Exact optimality is cross-checked against brute-force enumeration in the
test suite for small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..circuits import CircuitGraph
from .model import CutSearchError, PartitionCost, evaluate_partition

__all__ = ["MIPCutSearcher", "branch_and_bound_search"]


@dataclass
class _SearchState:
    assignment: List[int]
    alpha: List[int]
    rho: List[int]
    outgoing: List[int]
    members: List[int]  # vertices currently assigned per cluster
    num_cuts: int
    clusters_open: int


class MIPCutSearcher:
    """Branch-and-bound solver for the cut-search MIP."""

    def __init__(
        self,
        graph: CircuitGraph,
        max_subcircuit_qubits: int,
        max_subcircuits: int = 5,
        max_cuts: int = 10,
        node_limit: int = 5_000_000,
    ):
        if max_subcircuit_qubits < 2:
            raise ValueError("max_subcircuit_qubits must be at least 2")
        if max_subcircuits < 2:
            raise ValueError("max_subcircuits must be at least 2")
        self.graph = graph
        self.max_qubits = int(max_subcircuit_qubits)
        self.max_subcircuits = int(max_subcircuits)
        self.max_cuts = int(max_cuts)
        self.node_limit = int(node_limit)
        # Edges indexed by endpoint for incremental cut bookkeeping.
        self._edges_of: Dict[int, List[Tuple[int, int]]] = {
            v: [] for v in range(graph.num_vertices)
        }
        for edge in graph.edges:
            self._edges_of[edge.target].append((edge.source, edge.target))
            # Only record each edge at its later-assigned endpoint; with
            # vertices assigned in index order and edges always pointing
            # forward in time, the target is assigned after the source.
        self._nodes_visited = 0
        # Sum of f_c over clusters is always the circuit qubit count n
        # (Eq. 7 telescopes: rho and O cancel across a cut), so Eq. 14's
        # last prefix product is exactly 2^n and L >= 4^K * 2^n.
        self._output_factor = float(2 ** sum(graph.vertex_weights))

    # ------------------------------------------------------------------
    def search(self) -> Tuple[List[int], PartitionCost]:
        """Return the optimal assignment and its cost.

        Raises :class:`CutSearchError` if no feasible partition into
        2..max_subcircuits clusters exists within the cut budget.
        """
        best_assignment: Optional[List[int]] = None
        best_objective = float("inf")
        num_vertices = self.graph.num_vertices
        state = _SearchState(
            assignment=[-1] * num_vertices,
            alpha=[0] * self.max_subcircuits,
            rho=[0] * self.max_subcircuits,
            outgoing=[0] * self.max_subcircuits,
            members=[0] * self.max_subcircuits,
            num_cuts=0,
            clusters_open=0,
        )
        self._nodes_visited = 0

        def recurse(vertex: int) -> None:
            nonlocal best_assignment, best_objective
            self._nodes_visited += 1
            if self._nodes_visited > self.node_limit:
                raise CutSearchError(
                    f"branch-and-bound node limit {self.node_limit} exceeded; "
                    "use a heuristic method for this circuit"
                )
            if vertex == num_vertices:
                if state.clusters_open < 2:
                    return  # not actually cut
                cost = evaluate_partition(
                    self.graph,
                    state.assignment,
                    self.max_qubits,
                    max_cuts=self.max_cuts,
                    max_subcircuits=self.max_subcircuits,
                )
                if cost.feasible and cost.objective < best_objective:
                    best_objective = cost.objective
                    best_assignment = list(state.assignment)
                return
            # Symmetry breaking (Eq. 12): open at most one new cluster.
            limit = min(state.clusters_open + 1, self.max_subcircuits)
            for cluster in range(limit):
                if not self._try_assign(state, vertex, cluster):
                    continue
                if self._promising(state, best_objective):
                    recurse(vertex + 1)
                self._undo_assign(state, vertex, cluster)

        recurse(0)
        # ``recurse`` closes over itself; clearing its cell breaks that
        # cycle, so the search state dies with this call rather than at
        # the next full garbage collection.
        del recurse
        if best_assignment is None:
            raise CutSearchError(
                f"no feasible cut into <= {self.max_subcircuits} subcircuits of "
                f"<= {self.max_qubits} qubits within {self.max_cuts} cuts"
            )
        final_cost = evaluate_partition(
            self.graph,
            best_assignment,
            self.max_qubits,
            max_cuts=self.max_cuts,
            max_subcircuits=self.max_subcircuits,
        )
        return best_assignment, final_cost

    @property
    def nodes_visited(self) -> int:
        return self._nodes_visited

    # ------------------------------------------------------------------
    def _try_assign(self, state: _SearchState, vertex: int, cluster: int) -> bool:
        """Tentatively place ``vertex``; reject on immediate infeasibility."""
        weight = self.graph.vertex_weights[vertex]
        new_cuts = 0
        rho_delta: Dict[int, int] = {}
        outgoing_delta: Dict[int, int] = {}
        for source, target in self._edges_of[vertex]:
            source_cluster = state.assignment[source]
            if source_cluster < 0:  # pragma: no cover - forward edges only
                continue
            if source_cluster != cluster:
                new_cuts += 1
                rho_delta[cluster] = rho_delta.get(cluster, 0) + 1
                outgoing_delta[source_cluster] = (
                    outgoing_delta.get(source_cluster, 0) + 1
                )
        if state.num_cuts + new_cuts > self.max_cuts:
            return False
        if (
            state.alpha[cluster]
            + weight
            + state.rho[cluster]
            + rho_delta.get(cluster, 0)
            > self.max_qubits
        ):
            return False
        state.assignment[vertex] = cluster
        state.alpha[cluster] += weight
        for target_cluster, delta in rho_delta.items():
            state.rho[target_cluster] += delta
        for source_cluster, delta in outgoing_delta.items():
            state.outgoing[source_cluster] += delta
        state.num_cuts += new_cuts
        state.members[cluster] += 1
        if cluster == state.clusters_open:
            state.clusters_open += 1
        return True

    def _undo_assign(self, state: _SearchState, vertex: int, cluster: int) -> None:
        weight = self.graph.vertex_weights[vertex]
        state.assignment[vertex] = -1
        state.alpha[cluster] -= weight
        state.members[cluster] -= 1
        for source, target in self._edges_of[vertex]:
            source_cluster = state.assignment[source]
            if source_cluster < 0:
                continue
            if source_cluster != cluster:
                state.rho[cluster] -= 1
                state.outgoing[source_cluster] -= 1
                state.num_cuts -= 1
        if cluster == state.clusters_open - 1 and state.members[cluster] == 0:
            # The cluster was opened by this vertex; close it again
            # (incremental member count — no rescan of all vertices).
            state.clusters_open -= 1

    def _promising(self, state: _SearchState, best_objective: float) -> bool:
        """Lower bound on Eq. 14 given the committed cuts."""
        if best_objective == float("inf"):
            return True
        return float(4**state.num_cuts) * self._output_factor < best_objective


def branch_and_bound_search(
    graph: CircuitGraph,
    max_subcircuit_qubits: int,
    max_subcircuits: int = 5,
    max_cuts: int = 10,
    node_limit: int = 5_000_000,
) -> Tuple[List[int], PartitionCost]:
    """Functional front-end to :class:`MIPCutSearcher`."""
    searcher = MIPCutSearcher(
        graph,
        max_subcircuit_qubits,
        max_subcircuits=max_subcircuits,
        max_cuts=max_cuts,
        node_limit=node_limit,
    )
    return searcher.search()

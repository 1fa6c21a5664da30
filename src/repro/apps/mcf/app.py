"""MCF benchmark: single-depot vehicle scheduling via minimum-cost flow.

SPEC CPU2000 181.mcf chains timetabled transit trips into vehicle blocks by
solving a minimum-cost network-flow problem (the reference code uses a
network simplex).  We solve the same flow problem with the successive
shortest path algorithm (Bellman-Ford based), which is a different — but
exact — min-cost-flow method.

The network is the classic assignment formulation: a source feeds every
trip's "end" node, every trip's "start" node drains into the sink, and a
link arc end(i) -> start(j) with reduced cost ``deadhead(i, j) - pull_cost``
exists whenever trip ``j`` can feasibly follow trip ``i``.  Augmenting while
the shortest path cost is negative yields the cheapest schedule, so the
fault-free (golden) schedule is the optimum that injected runs are scored
against.

Fidelity follows the paper (Figure 3): the percentage of runs that still
produce the optimal schedule, and how much extra cost non-optimal but
complete schedules carry; incomplete or infeasible schedules are
"noticeably incorrect".
"""

from __future__ import annotations

from typing import Any, Dict, List

from ...core.app import ErrorTolerantApp
from ...core.fidelity import FidelityMeasure, FidelityResult
from ...fidelity import compare_schedules, schedule_cost
from ...sim import Machine, RunResult
from ...workloads import INFEASIBLE, SchedulingInstance, transit_instance

#: Maximum trips supported by the static arrays in the MiniC program.
MAX_TRIPS = 24
#: Maximum directed edges (including residual twins).
MAX_EDGES = 2048
#: "Infinity" distance used by the Bellman-Ford relaxation.
DIST_INF = 1000000000

MCF_SOURCE = """
// Minimum-cost-flow vehicle scheduler (successive shortest paths).
int n_nodes;
int n_edges;
int source_node;
int sink_node;
int edge_from[2048];
int edge_to[2048];
int edge_cap[2048];
int edge_cost[2048];
int link_tail[2048];
int link_head[2048];
int dist[64];
int prev_edge[64];
int successors[32];
int n_trips;

tolerant int find_shortest_path() {
    int nn = n_nodes;
    int ne = n_edges;
    int inf = 1000000000;
    for (int v = 0; v < nn; v = v + 1) {
        dist[v] = inf;
        prev_edge[v] = -1;
    }
    dist[source_node] = 0;
    for (int it = 0; it < nn; it = it + 1) {
        int changed = 0;
        for (int e = 0; e < ne; e = e + 1) {
            if (edge_cap[e] > 0) {
                int u = edge_from[e];
                int du = dist[u];
                if (du < inf) {
                    int nd = du + edge_cost[e];
                    if (nd < dist[edge_to[e]]) {
                        dist[edge_to[e]] = nd;
                        prev_edge[edge_to[e]] = e;
                        changed = 1;
                    }
                }
            }
        }
        if (changed == 0) {
            break;
        }
    }
    return dist[sink_node];
}

tolerant void augment() {
    int v = sink_node;
    while (v != source_node) {
        int e = prev_edge[v];
        edge_cap[e] = edge_cap[e] - 1;
        edge_cap[e ^ 1] = edge_cap[e ^ 1] + 1;
        v = edge_from[e];
    }
}

tolerant void solve() {
    int guard = 0;
    int limit = n_trips + 4;
    while (guard < limit) {
        int cost = find_shortest_path();
        if (cost >= 0) {
            break;
        }
        if (prev_edge[sink_node] < 0) {
            break;
        }
        augment();
        guard = guard + 1;
    }
}

tolerant void extract_schedule() {
    for (int t = 0; t < n_trips; t = t + 1) {
        successors[t] = -1;
    }
    for (int e = 0; e < n_edges; e = e + 1) {
        if (link_tail[e] >= 0) {
            if (edge_cap[e] == 0) {
                successors[link_tail[e]] = link_head[e];
            }
        }
    }
}

reliable int main() {
    solve();
    extract_schedule();
    return 0;
}
"""


class McfApp(ErrorTolerantApp):
    """Vehicle scheduling on a synthetic transit timetable."""

    name = "mcf"
    description = "Single-depot vehicle scheduler (minimum-cost flow)"
    default_error_sweep = (0, 1, 5, 10, 20, 40)

    def __init__(self, trips: int = 10) -> None:
        super().__init__()
        if trips > MAX_TRIPS:
            raise ValueError(f"MCF workload is limited to {MAX_TRIPS} trips")
        self.trips = trips

    def wire_params(self):
        return {"trips": self.trips}

    def source(self) -> str:
        return MCF_SOURCE

    def fidelity_measure(self) -> FidelityMeasure:
        return FidelityMeasure(
            name="schedule optimality",
            unit="% extra cost vs. optimal schedule",
            higher_is_better=False,
            threshold=0.0,
            threshold_description="acceptable only when the optimal schedule is found",
        )

    # ------------------------------------------------------------------
    # Workload: build the flow network from the timetable.
    # ------------------------------------------------------------------
    def generate_workload(self, seed: int) -> Dict[str, Any]:
        instance = transit_instance(self.trips, seed=seed)
        return {"instance": instance, "network": self._build_network(instance)}

    def _build_network(self, instance: SchedulingInstance) -> Dict[str, List[int]]:
        trips = instance.trip_count
        source = 0
        sink = 2 * trips + 1
        edge_from: List[int] = []
        edge_to: List[int] = []
        edge_cap: List[int] = []
        edge_cost: List[int] = []
        link_tail: List[int] = []
        link_head: List[int] = []

        def add_arc(u: int, v: int, cap: int, cost: int, tail: int = -1, head: int = -1):
            edge_from.extend([u, v])
            edge_to.extend([v, u])
            edge_cap.extend([cap, 0])
            edge_cost.extend([cost, -cost])
            link_tail.extend([tail, -1])
            link_head.extend([head, -1])

        for trip in range(trips):
            add_arc(source, 1 + trip, 1, 0)
        for i in range(trips):
            for j in range(trips):
                if i != j and instance.feasible[i][j]:
                    reduced = int(round(instance.deadhead[i][j] - instance.pull_cost))
                    add_arc(1 + i, 1 + trips + j, 1, reduced, tail=i, head=j)
        for trip in range(trips):
            add_arc(1 + trips + trip, sink, 1, 0)

        if len(edge_from) > MAX_EDGES:
            raise ValueError("scheduling instance produces too many arcs")
        return {
            "n_nodes": 2 * trips + 2,
            "n_edges": len(edge_from),
            "source": source,
            "sink": sink,
            "edge_from": edge_from,
            "edge_to": edge_to,
            "edge_cap": edge_cap,
            "edge_cost": edge_cost,
            "link_tail": link_tail,
            "link_head": link_head,
        }

    def apply_workload(self, machine: Machine, workload: Dict[str, Any]) -> None:
        network = workload["network"]
        machine.write_global("n_nodes", [network["n_nodes"]])
        machine.write_global("n_edges", [network["n_edges"]])
        machine.write_global("source_node", [network["source"]])
        machine.write_global("sink_node", [network["sink"]])
        machine.write_global("edge_from", network["edge_from"])
        machine.write_global("edge_to", network["edge_to"])
        machine.write_global("edge_cap", network["edge_cap"])
        machine.write_global("edge_cost", network["edge_cost"])
        machine.write_global("link_tail", network["link_tail"])
        machine.write_global("link_head", network["link_head"])
        machine.write_global("n_trips", [workload["instance"].trip_count])

    def read_output(self, result: RunResult, workload: Dict[str, Any]) -> List[int]:
        trips = workload["instance"].trip_count
        return [int(value) for value in result.memory.read_block(
            result.program.data_address("successors"), trips)]

    def score(self, reference: List[int], observed: List[int],
              workload: Dict[str, Any]) -> FidelityResult:
        instance: SchedulingInstance = workload["instance"]
        costs = instance.cost_matrix()
        comparison = compare_schedules(
            observed,
            optimal_cost=schedule_cost(reference, costs, instance.pull_cost),
            trip_costs=costs,
            pull_cost=instance.pull_cost,
            infeasible_marker=INFEASIBLE,
        )
        return FidelityResult(
            score=comparison.extra_cost_percent,
            acceptable=comparison.optimal,
            perfect=observed == reference,
            detail={
                "optimal": 1.0 if comparison.optimal else 0.0,
                "complete": 1.0 if comparison.complete else 0.0,
                "cost": comparison.cost,
                "optimal_cost": comparison.optimal_cost,
            },
        )

"""Synthetic single-depot vehicle-scheduling instances for MCF.

MCF (SPEC CPU2000 181.mcf) schedules vehicles for timetabled public-transit
trips: based on routes and desired service frequencies, it builds a
minimum-cost flow problem whose solution chains trips into vehicle blocks.
The reference inputs are proprietary timetables, so we generate synthetic
ones: trips with start/end times and stop coordinates, deadhead costs from
the travel distance between a trip's end and the next trip's start, and a
per-vehicle pull-in/pull-out cost.  The MCF program solves the instance
exactly, so fidelity takes the optimum from its fault-free (golden) run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

#: Marker used in cost tables for connections that are not feasible.
INFEASIBLE = 1_000_000.0


@dataclass
class Trip:
    """One timetabled trip."""

    index: int
    start_time: int
    end_time: int
    start_stop: Tuple[int, int]
    end_stop: Tuple[int, int]


@dataclass
class SchedulingInstance:
    """A complete vehicle-scheduling problem instance."""

    trips: List[Trip]
    pull_cost: float
    deadhead: List[List[float]] = field(default_factory=list)
    feasible: List[List[bool]] = field(default_factory=list)

    @property
    def trip_count(self) -> int:
        return len(self.trips)

    def link_cost(self, i: int, j: int) -> float:
        return self.deadhead[i][j] if self.feasible[i][j] else INFEASIBLE

    def cost_matrix(self) -> List[List[float]]:
        """Deadhead costs with INFEASIBLE markers, ready for the fidelity check."""
        count = self.trip_count
        return [[self.link_cost(i, j) for j in range(count)] for i in range(count)]


def _distance(a: Tuple[int, int], b: Tuple[int, int]) -> float:
    return float(abs(a[0] - b[0]) + abs(a[1] - b[1]))


def transit_instance(trip_count: int, seed: int = 0, pull_cost: float = 400.0,
                     area: int = 60, horizon: int = 600) -> SchedulingInstance:
    """Generate a synthetic transit timetable.

    Trips start at random times within ``horizon`` minutes and run between
    random stops on an ``area`` x ``area`` grid.  A connection from trip
    ``i`` to trip ``j`` is feasible when the vehicle can deadhead from
    ``i``'s end stop to ``j``'s start stop before ``j`` departs.
    """
    rng = random.Random(seed)
    trips: List[Trip] = []
    for index in range(trip_count):
        start_time = rng.randrange(0, horizon)
        duration = rng.randrange(15, 60)
        start_stop = (rng.randrange(area), rng.randrange(area))
        end_stop = (rng.randrange(area), rng.randrange(area))
        trips.append(Trip(index=index, start_time=start_time,
                          end_time=start_time + duration,
                          start_stop=start_stop, end_stop=end_stop))

    instance = SchedulingInstance(trips=trips, pull_cost=pull_cost)
    count = len(trips)
    instance.deadhead = [[0.0] * count for _ in range(count)]
    instance.feasible = [[False] * count for _ in range(count)]
    for i in range(count):
        for j in range(count):
            if i == j:
                continue
            travel = _distance(trips[i].end_stop, trips[j].start_stop)
            instance.deadhead[i][j] = 10.0 + travel
            instance.feasible[i][j] = trips[i].end_time + travel <= trips[j].start_time
    return instance

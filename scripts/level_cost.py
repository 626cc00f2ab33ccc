"""Fit a march's cost as a fixed cost per level plus a cost per node.

    PYTHONPATH=src python scripts/level_cost.py

For each modulus setting, ``solver.march`` of ``default_bump(eps)`` runs at
h = 1/16 over the horizons 12.5, 25, 50, 75 and 100, best of 5 rounds
(each round runs every horizon once); the model

    time = a * levels + b * nodes

gives a (the fixed cost of a level, in microseconds) and b (the cost of a
node update, in nanoseconds).  It is fitted as time / levels = a + b *
nodes / levels, by least squares, so each horizon's relative error weighs
alike: unweighted, the horizon-100 march (68 ms, against 6 ms at 12.5)
would set both coefficients.  ``nodes`` counts the nodes the march
computes: level i holds nodes 0..ceil(R/h) + 1 + i, capped at the grid.
The settings are PowerLaw at eps = 0.01 (the global side) and LogPower(0.2,
10) at eps = 0.5, which stays below its continuation.  It prints one JSON
object: per setting, the two coefficients and each horizon's best time.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from wavecrit.modulus import LogPower, PowerLaw, make_spec
from wavecrit.solver import CharacteristicGrid, cone_edge, default_bump, march

H = 1.0 / 16.0
HORIZONS = (12.5, 25.0, 50.0, 75.0, 100.0)
REPEAT = 5  # rounds; a horizon's best round counts
SETTINGS = (("powerlaw", PowerLaw(1.0), 0.01), ("logpower", LogPower(0.2, 10.0), 0.5))


def _nodes(grid: CharacteristicGrid, data) -> int:
    return sum(cone_edge(grid, data, i) + 1 for i in range(grid.t_levels + 1))


def coefficients(levels, nodes, seconds) -> tuple:
    """(a in us per level, b in ns per node) of time = a levels + b nodes,
    fitted as time / levels = a + b nodes / levels."""
    levels, nodes, seconds = (np.asarray(x, dtype=float) for x in (levels, nodes, seconds))
    design = np.stack([np.ones_like(levels), nodes / levels], axis=1)
    (a, b), *_ = np.linalg.lstsq(design, seconds / levels, rcond=None)
    return a * 1e6, b * 1e9


def fit(family, eps: float) -> dict:
    data, spec = default_bump(eps), make_spec(family)
    grids = [CharacteristicGrid.cover(H, horizon, data.support_radius) for horizon in HORIZONS]
    best = [math.inf] * len(grids)
    for _ in range(REPEAT):  # every horizon once a round, so a slow spell hits them alike
        for k, grid in enumerate(grids):
            start = time.perf_counter()
            run = march(data, spec, grid)
            best[k] = min(best[k], time.perf_counter() - start)
            if run.status != "completed":
                raise SystemExit(f"{family!r} at eps={eps} did not complete to t={grid.horizon}")
    levels = [grid.t_levels + 1 for grid in grids]
    nodes = [_nodes(grid, data) for grid in grids]
    a, b = coefficients(levels, nodes, best)
    return {"us_per_level": a, "ns_per_node": b,
            "runs": [{"horizon": hz, "levels": lv, "nodes": nd, "best_s": t}
                     for hz, lv, nd, t in zip(HORIZONS, levels, nodes, best)]}


def main() -> None:
    march(default_bump(0.01), make_spec(PowerLaw(1.0)), CharacteristicGrid.cover(H, 2.0, 1.0))  # warm-up
    print(json.dumps({name: fit(family, eps) for name, family, eps in SETTINGS}, indent=1))


if __name__ == "__main__":
    main()

"""Shared result container for numerically checked inequalities."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class WeightReport:
    """Outcome of an inequality check over a sampled region.

    ``fitted_constant`` is the extremal value the sweep produced (a sup, an
    inf or a worst residual depending on the check).  ``samples`` holds
    CSV-exportable rows described by ``columns``, kept only by the checks
    whose rows are read: the decay profile and the zone check.
    """

    region: str
    fitted_constant: float
    passed: bool
    columns: tuple = ()
    samples: list = field(default_factory=list)

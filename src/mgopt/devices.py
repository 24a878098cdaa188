"""Device-level models: the dispatch schedule and the battery SOC recursion.

Sign convention for battery power is charge-positive: P_B > 0 stores energy,
P_B < 0 feeds the network.  Nothing here checks device limits: the
optimizer's repair operators keep setpoints, commitment and the SOC window
feasible exactly, in batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .netmodel import Battery

COMMIT_EPS = 1e-9


@dataclass
class DispatchSchedule:
    """One candidate day-ahead plan.

    dg_setpoints has shape (n_units, horizon) with rows ordered like
    case.units; battery_power is the signed charge-positive vector; dr_shift
    is the optional load-shift vector (positive adds load at that hour).
    """

    dg_setpoints: np.ndarray
    battery_power: np.ndarray
    dr_shift: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.dg_setpoints = np.asarray(self.dg_setpoints, dtype=float)
        self.battery_power = np.asarray(self.battery_power, dtype=float)
        if self.dr_shift is not None:
            self.dr_shift = np.asarray(self.dr_shift, dtype=float)
        if self.dg_setpoints.ndim != 2:
            raise ValueError("dg_setpoints must be 2-D (n_units, horizon)")
        T = self.dg_setpoints.shape[1]
        if self.battery_power.shape != (T,):
            raise ValueError("battery_power length must equal the horizon")
        if self.dr_shift is not None and self.dr_shift.shape != (T,):
            raise ValueError("dr_shift length must equal the horizon")

    @property
    def horizon(self) -> int:
        return self.dg_setpoints.shape[1]

    def copy(self) -> "DispatchSchedule":
        return DispatchSchedule(
            self.dg_setpoints.copy(),
            self.battery_power.copy(),
            None if self.dr_shift is None else self.dr_shift.copy(),
        )


def zero_schedule(n_units: int, horizon: int, dr: bool = False) -> DispatchSchedule:
    """Grid-only plan: every local source idle."""
    return DispatchSchedule(
        np.zeros((n_units, horizon)),
        np.zeros(horizon),
        np.zeros(horizon) if dr else None,
    )


def soc_trajectory(
    battery: Battery,
    powers_kw: Sequence[float],
    period_hours: float = 1.0,
    soc_initial_kwh: Optional[float] = None,
) -> np.ndarray:
    """State of charge at the end of each period, kWh.

    SOC(t) = SOC(t-1)(1 - delta) + eta_c * max(0, P) * dt + min(0, P) * dt / eta_d
    """
    p = np.asarray(powers_kw, dtype=float)
    soc = np.empty(p.shape[-1:] if p.ndim == 1 else p.shape, dtype=float)
    if p.ndim == 1:
        p = p[np.newaxis, :]
        soc = soc[np.newaxis, :]
    keep = 1.0 - battery.self_discharge_per_h * period_hours
    gain = battery.eta_charge * period_hours
    drain = period_hours / battery.eta_discharge
    state = np.full(p.shape[0], battery.soc_initial_kwh if soc_initial_kwh is None else soc_initial_kwh)
    for t in range(p.shape[1]):
        state = state * keep + gain * np.maximum(p[:, t], 0.0) + drain * np.minimum(p[:, t], 0.0)
        soc[:, t] = state
    return soc[0] if soc.shape[0] == 1 else soc

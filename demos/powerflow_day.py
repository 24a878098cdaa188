"""Hourly power flow on the packaged benchmark network.

Solves the unoptimised day first (every kW drawn from the upstream grid),
then repeats with the fuel cell held at 30 kW to show how local generation
lifts the feeder tails and trims both import and losses.  No optimiser
involved; this is the initial state the scenarios start from.
"""

# mgopt before numpy: importing it applies MGOPT_THREADS to the BLAS pools.
from mgopt import load_benchmark_case, solve_horizon, zero_schedule

import numpy as np


def print_day(title, solution):
    print(title)
    print("  hour   grid_kw   loss_kw   v_min_pu")
    for t in range(solution.horizon):
        v_min = float(np.abs(solution.voltage[t]).min())
        print(f"  {t:>4} {solution.slack_kw[t]:>9.2f} {solution.loss_kw[t]:>9.3f} {v_min:>10.4f}")
    print(
        f"  total import {solution.slack_kw.sum():.1f} kWh, "
        f"losses {solution.loss_kw.sum():.2f} kWh, "
        f"worst voltage {solution.min_voltage():.4f} pu"
    )
    print()


def main():
    case = load_benchmark_case()
    base = solve_horizon(case)
    print_day(f"{case.name}: all demand on the grid", base)

    schedule = zero_schedule(len(case.units), case.horizon)
    fc = [u.name for u in case.units].index("FC")
    schedule.dg_setpoints[fc, :] = 30.0
    with_fc = solve_horizon(case, schedule)
    print_day("same day with the fuel cell at 30 kW", with_fc)

    print(
        f"fuel cell effect: import {base.slack_kw.sum() - with_fc.slack_kw.sum():.1f} kWh lower, "
        f"losses {base.loss_kw.sum() - with_fc.loss_kw.sum():.2f} kWh lower, "
        f"worst voltage {base.min_voltage():.4f} -> {with_fc.min_voltage():.4f} pu"
    )


if __name__ == "__main__":
    main()

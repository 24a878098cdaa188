"""Effect of the load-shifting programme on the weighted dispatch.

The benchmark enrolls domestic and commercial demand with 15 % shiftable per
hour.  This demo runs the weighted scenario with and without the shift,
prints the hourly movement next to the participating demand and the grid
exchange, and compares the objective bundles.  Expect load to leave the
evening price peak and reappear in the cheap early hours.
"""

# mgopt before numpy: importing it applies MGOPT_THREADS to the BLAS pools.
from mgopt import GaConfig, OptimizerConfig, load_benchmark_case, run_suite, solve_horizon
from mgopt.dr import participating_demand_kw

import numpy as np

BUDGET = OptimizerConfig(
    ga=GaConfig(population=16, generations=12),
    seed=7,
    polish_sweeps=1,
    refine_rounds=2,
)


def main():
    case = load_benchmark_case()
    suite = run_suite(case, config=BUDGET)
    fixed = suite.results["weighted"]
    shifted = suite.results["dr"]
    shift = shifted.schedule.dr_shift

    demand = participating_demand_kw(case)
    grid_fixed = solve_horizon(case, fixed.schedule).slack_kw
    grid_shifted = solve_horizon(case, shifted.schedule).slack_kw

    print(f"{case.name}: {case.dr.shiftable_fraction:.0%} of "
          f"{' and '.join(case.dr.participating)} demand shiftable")
    print()
    print(f"{'hour':>4} {'price':>6} {'enrolled_kw':>12} {'shift_kw':>9} {'grid_kw':>8} {'grid_dr_kw':>11}")
    for t in range(case.horizon):
        print(
            f"{t:>4} {case.prices_ct_per_kwh[t]:>6.1f} {demand[t]:>12.2f}"
            f" {shift[t]:>+9.2f} {grid_fixed[t]:>8.2f} {grid_shifted[t]:>11.2f}"
        )
    moved = float(np.maximum(shift, 0.0).sum()) * case.period_hours
    print(f"\nenergy moved: {moved:.2f} kWh (net {shift.sum() * case.period_hours:+.2e} kWh)")
    print()

    print(f"{'':<14} {'fixed load':>12} {'with shift':>12}")
    rows = fixed.as_row(), shifted.as_row()
    for key, unit in (("cost", "ct"), ("loss", "kWh"), ("ens", "ct"), ("vdev", "pu")):
        print(f"{key + ' (' + unit + ')':<14} {rows[0][key]:>12.3f} {rows[1][key]:>12.3f}")
    print(f"{'weighted total':<14} {suite.totals['weighted']:>12.4f} {suite.totals['dr']:>12.4f}")


if __name__ == "__main__":
    main()

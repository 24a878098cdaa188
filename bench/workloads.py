"""The benchmark's workloads: a case, an optimiser config and a suite budget.

Every workload runs ``run_suite`` on a case; the workload seed becomes
``OptimizerConfig.seed``.  The optimiser's path, and so its run time,
depends on that seed, so a run times several whole suites with seeds
derived from the workload seed (see ``suite_seeds``) and reports the median.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List

from mgopt import (
    Branch,
    Bus,
    GaConfig,
    MicrogridCase,
    OptimizerConfig,
    SqpConfig,
    load_benchmark_case,
    validate_case,
)

# Series sections per branch in the long-feeder case: 14 buses become 53
# and the sweep's per-branch loops run four times as long per column.
LONG_FEEDER_SECTIONS = 4

# Suite k of a run uses seed + k * SEED_STRIDE, so suite 0 reproduces a
# plain run at the workload seed and runs at different seeds share no suite.
SEED_STRIDE = 1_000_003


def sectioned_case(case: MicrogridCase, sections: int) -> MicrogridCase:
    """Cut every branch into ``sections`` equal series sections.

    The new intermediate buses carry no load, so the physics is unchanged
    and only the tree is deeper.  The section next to the original
    ``from_bus`` keeps the branch id, so every contingency still islands the
    same load points.
    """
    if sections < 1:
        raise ValueError(f"sections must be at least 1, got {sections}")
    buses = list(case.buses)
    branches = []
    for br in case.branches:
        chain = [br.from_bus] + [f"{br.id}.{k}" for k in range(1, sections)] + [br.to_bus]
        buses.extend(Bus(bus_id) for bus_id in chain[1:-1])
        for k in range(sections):
            branches.append(
                Branch(
                    id=br.id if k == 0 else f"{br.id}.{k}",
                    from_bus=chain[k],
                    to_bus=chain[k + 1],
                    resistance_ohm=br.resistance_ohm / sections,
                    reactance_ohm=br.reactance_ohm / sections,
                )
            )
    return validate_case(
        replace(case, name=f"{case.name}-x{sections}", buses=tuple(buses), branches=tuple(branches))
    )


def long_feeder_case() -> MicrogridCase:
    return sectioned_case(load_benchmark_case(), LONG_FEEDER_SECTIONS)


def default_config(seed: int) -> OptimizerConfig:
    return OptimizerConfig(seed=seed)


def long_feeder_config(seed: int) -> OptimizerConfig:
    """GA 60 x 100 and a short polish: the CLI's --ga-population 60
    --ga-generations 100 --sqp-iterations 15 --refine-rounds 1.

    GA and sweep dominate and the QP is under a tenth of the suite, so this
    workload also serves as the one a QP-only change should leave unchanged.
    The capped SQP keeps the work nearly seed-independent: at the default
    config one suite took 35-46 s across five seeds on a 2-core x86 host."""
    ga = GaConfig(population=60, generations=100)
    return OptimizerConfig(ga=ga, sqp=SqpConfig(max_iterations=15), seed=seed, refine_rounds=1)


@dataclass(frozen=True)
class Workload:
    case: Callable[[], MicrogridCase]
    config: Callable[[int], OptimizerConfig]
    # Typical wall time of one suite on a 2-core x86 host with one thread;
    # sets how many whole suites fit in a run of --seconds.
    nominal_suite_s: float

    def suites_per_run(self, seconds: float) -> int:
        return max(1, int(seconds // self.nominal_suite_s))


def suite_seeds(seed: int, count: int) -> List[int]:
    return [seed + k * SEED_STRIDE for k in range(count)]


WORKLOADS = {
    "day-suite": Workload(
        case=load_benchmark_case,
        config=default_config,
        nominal_suite_s=20.0,
    ),
    "long-feeder": Workload(
        case=long_feeder_case,
        config=long_feeder_config,
        nominal_suite_s=17.0,
    ),
}

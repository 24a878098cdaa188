"""Time one workload's set-up in a fresh process and print the seconds.

Set-up is importing ``mgopt``, loading and validating the workload's case,
and building the compiled network, the contingency evaluator and the
dispatch problem.  Run by ``run.py``; usage: setup_probe.py <src> <workload>.
"""

import sys
import time

t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.path[0]]

from mgopt import ContingencyEvaluator, DispatchProblem, compile_network  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

case = WORKLOADS[sys.argv[2]].case()
net = compile_network(case)
DispatchProblem(case, net=net, evaluator=ContingencyEvaluator(case))
print(repr(time.perf_counter() - t0))

"""k-server simulation and verification toolkit.

Builds block-decomposable metric spaces (uniform tables and separation
trees), computes exact offline optima and block demands, runs the
randomized marking and phase-structured shell algorithms, and checks the
inequalities their competitive guarantees rest on.
"""

__version__ = "0.1.0"

from .metric import (Decomposition, FiniteMetric, HstSpace, PointId,
                     build_hst, build_uniform, decompose, validate_hst)
from .offline import (INF, DemandTracker, OptResult, UniformDemandTracker, demand,
                      max_demand_trace, opt_cost, opt_cost_exhaustive)
from .marking import Marking, Universe, harmonic, marking_f
from .shell import (BlockShell, NodePlan, ShellInvariantError, Subroutine, compose_f,
                    tree_plan)
from .generators import GeneratorSpec, generate, parse_generator
from .harness import (TrialReport, RunRecord, probe_demand_monotonicity,
                      reports_to_csv, run_shell, run_trials)
from .verify import (CheckReport, check_ama_bound, check_lower_bound_demand,
                     check_lower_bound_mp, check_phase_costs_delta,
                     check_subroutine_contract, checks_to_csv, desk_instances,
                     run_ama_suite, run_contract_suite, run_lower_bound_suite)

__all__ = [
    "Decomposition", "FiniteMetric", "HstSpace", "PointId", "build_hst",
    "build_uniform", "decompose", "validate_hst",
    "INF", "DemandTracker", "OptResult", "UniformDemandTracker", "demand",
    "max_demand_trace",
    "opt_cost", "opt_cost_exhaustive",
    "Marking", "Universe", "harmonic", "marking_f",
    "BlockShell", "NodePlan", "ShellInvariantError", "Subroutine",
    "compose_f", "tree_plan",
    "GeneratorSpec", "generate", "parse_generator",
    "TrialReport", "RunRecord", "probe_demand_monotonicity", "reports_to_csv",
    "run_shell", "run_trials",
    "CheckReport", "check_ama_bound", "check_lower_bound_demand",
    "check_lower_bound_mp", "check_phase_costs_delta",
    "check_subroutine_contract", "checks_to_csv", "desk_instances",
    "run_ama_suite", "run_contract_suite", "run_lower_bound_suite",
]

"""Executable checks of the provable inequalities behind the shell algorithm.

Deterministic checks (the offline lower bounds) must hold on every single
run; they compare exact rationals.  Expectation checks (the subroutine
guarantee and the jump-cost bound) compare a Monte-Carlo sample mean against
a bound with a 3-sigma statistical margin and additionally report the
measured constant so near-misses stay visible.

All logarithms are natural; the bounds' unspecified constants absorb base
changes, and for k < 3 the log-degenerate checks are reported as advisory
rather than asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .generators import GeneratorSpec, generate
from .harness import RunRecord, additive_term, default_initial, run_shell
from .marking import Universe
from .metric import HstSpace, build_hst, build_uniform, check_int
from .offline import DemandTracker, opt_cost
from .shell import NodePlan, check_hst_admissible, tree_plan


@dataclass
class CheckReport:
    name: str
    phase: Optional[int]
    lhs: object
    rhs: object
    passed: bool
    context: dict = field(default_factory=dict)
    advisory: bool = False

    @property
    def margin(self):
        return self.rhs - self.lhs

    def csv_row(self) -> str:
        seed = self.context.get("seed", "")
        phase = "" if self.phase is None else str(self.phase)
        return ",".join([
            self.name, phase, str(self.lhs), str(self.rhs), str(self.margin),
            "1" if self.passed else "0", str(seed),
        ])


CHECK_CSV_HEADER = "name,phase,lhs,rhs,margin,passed,seed"


def checks_to_csv(reports: Sequence[CheckReport]) -> str:
    lines = [CHECK_CSV_HEADER]
    lines.extend(r.csv_row() for r in reports)
    return "\n".join(lines) + "\n"


def _mean_stderr(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


# -- deterministic lower bounds ---------------------------------------------


def _opt(record: RunRecord, seq: Sequence[int]) -> Fraction:
    """Free-start optimum with k servers of `seq`, solved once per table."""
    key = tuple(seq)
    cost = record.optima.get(key)
    if cost is None:
        cost = record.optima[key] = opt_cost(record.dec.metric, record.k, key).cost
    return cost


def _demand_bound(record: RunRecord, seq: Sequence[int]) -> Fraction:
    """Sum of the block optima at their demands plus Delta per server
    beyond k, solved once per table.

    One demand tracker per block (the configuration DP, not the shell's
    uniform fast path) gives both the block's demand and its optimum there.
    """
    key = tuple(seq)
    bound = record.demand_bounds.get(key)
    if bound is None:
        dec = record.dec
        trackers = [DemandTracker(dec.metric, dec.price) for _ in range(dec.t)]
        for r in key:
            trackers[dec.block_of[r]].push(r)
        bound = Fraction(0)
        demand_sum = 0
        for tracker in trackers:
            d_s = tracker.demand()
            demand_sum += d_s
            bound += tracker.opt(d_s)
        bound += dec.Delta * (demand_sum - record.k)
        record.demand_bounds[key] = bound
    return bound


def check_lower_bound_demand(record: RunRecord) -> list[CheckReport]:
    """Per phase: the phase's standalone optimum dominates the sum of
    block optima at their demands plus Delta per server beyond k.

    Evaluated with the follow-up request appended for completed phases and
    on the bare log for the final one; both sides are exact.
    """
    out = []
    for p in range(1, len(record.phase_logs) + 1):
        seq = record.phase_sequence(p, p <= record.completed_phases)
        lhs = _opt(record, seq)
        rhs = _demand_bound(record, seq)
        out.append(CheckReport(
            name="lower_bound_demand", phase=p, lhs=lhs, rhs=rhs,
            passed=bool(lhs >= rhs),
            context={"seed": record.seed, "requests": len(seq)},
        ))
    return out


def check_lower_bound_mp(record: RunRecord) -> CheckReport:
    """Whole-run optimum is at least Delta/6 times the settled-server sum
    over phases after the first."""
    lhs = _opt(record, record.sequence)
    tail_gain = sum(record.phase_gains()[1:])
    rhs = Fraction(1, 6) * record.dec.Delta * tail_gain
    return CheckReport(
        name="lower_bound_mp", phase=None, lhs=lhs, rhs=rhs,
        passed=bool(lhs >= rhs),
        context={"seed": record.seed, "phases": record.completed_phases + 1},
    )


def check_phase_costs_delta(record: RunRecord) -> list[CheckReport]:
    """Every phase that is not the last costs the offline optimum at least
    Delta (on the phase sequence with its follow-up request)."""
    dec = record.dec
    out = []
    for p in range(1, record.completed_phases + 1):
        lhs = _opt(record, record.phase_sequence(p, True))
        out.append(CheckReport(
            name="phase_cost_delta", phase=p, lhs=lhs, rhs=dec.Delta,
            passed=bool(lhs >= dec.Delta),
            context={"seed": record.seed},
        ))
    return out


def deterministic_checks(record: RunRecord) -> list[CheckReport]:
    """All three lower-bound checks; they share each optimum through the
    record's `optima` table."""
    out = check_lower_bound_demand(record)
    out.append(check_lower_bound_mp(record))
    out.extend(check_phase_costs_delta(record))
    return out


# -- expectation bounds ------------------------------------------------------


def check_ama_bound(records: Sequence[RunRecord], k: int,
                    min_seeds: int = 2000) -> list[CheckReport]:
    """Per phase, mean jump cost across seeds against ln(k) * Delta * mean
    settled-server gain, at 3 sigma.

    The sequence must be identical across records (one oblivious adversary,
    many random streams).  Only phase indices completed in every record are
    compared.  Each report carries the measured constant
    mean_jump_cost / (Delta * mean_gain); checks for k < 3 are advisory.
    """
    if len(records) < min_seeds:
        raise ValueError(f"need at least {min_seeds} seeded runs, got {len(records)}")
    first_seq = records[0].sequence
    for rec in records:
        if rec.sequence != first_seq:
            raise ValueError("records must share one request sequence")
    dec = records[0].dec
    delta = float(dec.Delta)
    aligned = min(rec.completed_phases for rec in records)
    gains_by_record = [rec.phase_gains() for rec in records]
    out = []
    for p in range(1, aligned + 1):
        jump_costs = [delta * rec.phase_jump_counts[p - 1] for rec in records]
        gains = [g[p - 1] for g in gains_by_record]
        mean_cost, stderr = _mean_stderr(jump_costs)
        mean_gain = sum(gains) / len(gains)
        bound = math.log(k) * delta * mean_gain
        if mean_gain > 0:
            measured = mean_cost / (delta * mean_gain)
        else:
            measured = 0.0 if mean_cost == 0 else math.inf
        out.append(CheckReport(
            name="ama_jump_bound", phase=p,
            lhs=mean_cost, rhs=bound + 3 * stderr,
            passed=bool(mean_cost <= bound + 3 * stderr),
            advisory=k < 3,
            context={"seeds": len(records), "mean_gain": mean_gain,
                     "stderr": stderr, "measured_constant": measured,
                     "hard_limit": 3 * math.log(k) if k >= 2 else None},
        ))
    return out


def ama_within_hard_limit(reports: Sequence[CheckReport], k: int) -> bool:
    """Acceptance rule: the measured constant may exceed ln k (reported), but
    not 3 * ln k."""
    limit = 3 * math.log(k)
    return all(r.context["measured_constant"] <= limit for r in reports)


def check_subroutine_contract(plan: Union[NodePlan, Universe], sequence: Sequence[int],
                              seeds: Sequence[int], initial: Iterable[int],
                              name: str = "subroutine_contract") -> CheckReport:
    """Monte-Carlo mean cost against f(ell)*opt + f(ell)*ell*diameter/ln(ell),
    for the plan's f, metric and diameter and ell = len(initial); the
    additive term is `additive_term`'s, as in `run_trials`.

    Each seed starts its own instance from the plan at `initial`, and the
    instance serves the sequence in one `serve_all`.  The offline optimum is
    pinned to that start too.  3-sigma margin; advisory for ell < 3 where
    the log term degenerates.
    """
    init = frozenset(initial)
    ell = len(init)
    opt = opt_cost(plan.metric, ell, sequence, initial=init).cost
    totals = []
    for seed in seeds:
        algo = plan.start(seed)
        algo.reset(init)
        # serve costs are in the metric's integer unit
        totals.append(float(Fraction(algo.serve_all(sequence), plan.metric.scale)))
    mean, stderr = _mean_stderr(totals)
    additive = additive_term(plan, ell)
    bound = float(plan.f(ell)) * float(opt) + additive if additive is not None else math.inf
    return CheckReport(
        name=name, phase=None,
        lhs=mean, rhs=bound + 3 * stderr,
        passed=bool(mean <= bound + 3 * stderr),
        advisory=ell < 3,
        context={"seeds": len(seeds), "opt": float(opt), "stderr": stderr,
                 "mean": mean, "bound": bound},
    )


# -- suite drivers ------------------------------------------------------------


@dataclass
class DeskInstance:
    name: str
    space: HstSpace
    k: int
    gen: GeneratorSpec

    def sequence(self) -> list[int]:
        return generate(self.gen, self.space)


def desk_instances() -> list[DeskInstance]:
    """Small shell instances (k <= 4, t <= 4, 30 or 40 requests) used by the
    verification suites."""
    return [
        DeskInstance("t2_mu2_k2_sweep", build_hst([2, 2], 2), 2,
                     GeneratorSpec("block_sweep", 30, seed=11,
                                   params={"width": 2, "passes": 3})),
        DeskInstance("t3_mu3_k3_sweep", build_hst([3, 3], 3), 3,
                     GeneratorSpec("block_sweep", 40, seed=12,
                                   params={"width": 3, "passes": 4})),
        DeskInstance("t2_mu4_k3_random", build_hst([2, 3], 4), 3,
                     GeneratorSpec("uniform_random", 40, seed=13)),
        DeskInstance("t4_mu4_k4_sweep", build_hst([4, 2], 4), 4,
                     GeneratorSpec("block_sweep", 40, seed=14,
                                   params={"width": 2, "passes": 2})),
        DeskInstance("t2_mu5half_k2_random", build_hst([2, 2], Fraction(5, 2)), 2,
                     GeneratorSpec("uniform_random", 30, seed=15)),
        DeskInstance("t3_mu3_k4_random", build_hst([3, 2], 3), 4,
                     GeneratorSpec("uniform_random", 40, seed=16)),
    ]


def run_lower_bound_suite(instances: Optional[Sequence[DeskInstance]] = None,
                          runs_per_instance: int = 20, base_seed: int = 2024
                          ) -> tuple[list[CheckReport], bool]:
    """Seeded shell runs with every deterministic lower-bound check applied.

    Also checks, per run, that no phase made more than k jumps.  This holds
    by construction: a jump moves a server out of an unmarked block into a
    marked one, and a marked block stays marked and donates no server for
    the rest of the phase.  So each jump adds one server to the marked
    blocks, which never lose one within the phase and hold at most k.
    """
    check_int("runs_per_instance", runs_per_instance, 1)
    if instances is None:
        instances = desk_instances()
    reports: list[CheckReport] = []
    for idx, inst in enumerate(instances):
        if inst.space.height < 2:
            raise ValueError(f"{inst.name}: a shell needs a tree of height 2 or more")
        plan = tree_plan(inst.space)
        seq = inst.sequence()
        initial = default_initial(inst.k)
        # every run serves the same sequence with the same dec and k, so all
        # share one pair of tables, seeded with the whole run's optimum
        optima = {tuple(seq): opt_cost(plan.dec.metric, inst.k, seq).cost}
        demand_bounds: dict = {}
        for i in range(runs_per_instance):
            seed = base_seed ^ (i * 7919) ^ (idx << 16)
            rec = run_shell(plan, inst.k, initial, seq, seed)
            rec.optima, rec.demand_bounds = optima, demand_bounds
            for rep in deterministic_checks(rec):
                rep.context["instance"] = inst.name
                reports.append(rep)
            most = max(rec.phase_jump_counts, default=0)
            reports.append(CheckReport(
                name="jumps_at_most_k", phase=None, lhs=most, rhs=inst.k,
                passed=most <= inst.k,
                context={"seed": seed, "instance": inst.name},
            ))
    passed = all(r.passed for r in reports if not r.advisory)
    return reports, passed


def run_ama_suite(seeds: int = 2000, base_seed: int = 99) -> tuple[list[CheckReport], bool]:
    """Jump-cost bound on 60-request block-sweep instances, one batch per k
    in (3, 4)."""
    check_int("seeds", seeds, 1)
    reports: list[CheckReport] = []
    ok = True
    for k in (3, 4):
        space = build_hst([3, 4], k)
        plan = tree_plan(space)
        gen = GeneratorSpec("block_sweep", 60, seed=5 * k,
                            params={"width": 3, "passes": 3})
        seq = generate(gen, space)
        initial = default_initial(k)
        records = [run_shell(plan, k, initial, seq, base_seed ^ i)
                   for i in range(seeds)]
        batch = check_ama_bound(records, k, min_seeds=min(seeds, 2000))
        for rep in batch:
            rep.context["k"] = k
        reports.extend(batch)
        ok = ok and ama_within_hard_limit(batch, k)
    return reports, ok


def cyclic_sequence(width: int, length: int) -> list[int]:
    return [i % width for i in range(length)]


def run_contract_suite(ks: Sequence[int] = (3, 4), seeds: int = 2000,
                       base_seed: int = 7, include_composed: bool = True,
                       composed_seeds: int = 300
                       ) -> tuple[list[CheckReport], bool]:
    """Expected-cost guarantee for marking on its adversarial cycle, 30
    rounds of k + 1 points, plus the same check for a composed two-level
    algorithm on a small tree."""
    check_int("seeds", seeds, 1)
    if include_composed:
        check_int("composed_seeds", composed_seeds, 1)
    reports: list[CheckReport] = []
    for k in ks:
        metric = build_uniform(k + 1, 1)
        seq = cyclic_sequence(k + 1, 30 * (k + 1))
        rep = check_subroutine_contract(
            Universe(metric), seq, [base_seed ^ i for i in range(seeds)],
            initial=default_initial(k), name="marking_contract")
        rep.context["k"] = k
        reports.append(rep)

    if include_composed:
        k = 3
        space = build_hst([2, 3], 3)
        gen = GeneratorSpec("block_sweep", 40, seed=21, params={"width": 3, "passes": 3})
        seq = generate(gen, space)
        check_hst_admissible(space, k)
        rep = check_subroutine_contract(
            tree_plan(space), seq, [base_seed ^ (1 << 20) ^ i for i in range(composed_seeds)],
            initial=default_initial(k), name="composed_contract")
        rep.context["height"] = 2
        reports.append(rep)

    passed = all(r.passed for r in reports if not r.advisory)
    return reports, passed

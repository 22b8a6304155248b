"""Seeded trial runner, per-run reports and the demand-monotonicity probe.

Reproducibility contract: trial i of a batch uses algorithm seed
base_seed XOR i; the request sequence comes from the generator spec's own
seed, fixed before any algorithm randomness (oblivious adversary).  The CSV
schema is pinned: header `seed,total,inner,jump,opt,ratio,phases,m_sum`,
rationals rendered as `p/q` (plain integer when the denominator is 1),
newline '\\n'.  Identical config and seed give identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import attrgetter
from typing import Callable, Iterable, Optional, Sequence, Union

from .generators import GeneratorSpec, generate
from .metric import Decomposition, FiniteMetric, HstSpace, PointId, check_int
from .offline import INF, max_demand_trace, opt_cost
from .marking import Universe
from .shell import BlockShell, NodePlan, PhaseLogs, check_hst_admissible, tree_plan

# the trial output's fields, in order: the CSV columns and `ksim run`'s lines
CSV_HEADER = "seed,total,inner,jump,opt,ratio,phases,m_sum"
_csv_fields = attrgetter(*CSV_HEADER.split(","))

# refuse offline optima whose configuration DP would get too large
OPT_STATE_GUARD = 5_000_000


@dataclass
class TrialReport:
    seed: int
    total: Fraction
    inner: Fraction
    jump: Fraction
    opt: object            # Fraction, or None when the solver guard tripped
    ratio: object          # Fraction, INF ("flagged non-finite"), or None
    phases: int            # phases started (>= 1)
    m_sum: int
    adjusted_ratio: object # (total - additive_term) / opt, or None


@dataclass
class RunRecord(PhaseLogs):
    """Everything a verification check needs to replay one shell run."""
    dec: Decomposition
    k: int
    sequence: list
    seed: int
    phase_logs: list       # per phase, global request order (last = unfinished)
    dhat: list             # dhat[0] = initial counts, dhat[p] = end of phase p
    phase_jump_counts: list
    total_inner: Fraction
    total_jump: Fraction
    # The verification checks' tables, filled on first use, so each distinct
    # sequence is solved once.  A value depends on `dec`, `k` and `sequence`
    # too: records may share the tables (the lower-bound suite hands one set
    # to every run of an instance) only when all three agree.
    # optima: by tuple(sequence), the k-server free-start optimum of a phase
    # or of the whole run
    optima: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # demand_bounds: by tuple(sequence), the right-hand side of the per-phase
    # demand bound
    demand_bounds: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)
    # prefix_costs: the whole run's `OptResult.prefix_costs`, the optimum of
    # every prefix of `sequence` in the metric's integer unit; None until
    # solved
    prefix_costs: Optional[tuple] = field(default=None, init=False, repr=False,
                                          compare=False)


def default_initial(k: int) -> frozenset:
    """The first k points, where every trial and suite run starts its servers."""
    return frozenset(range(k))


def solver_guard_ok(n: int, k: int, length: int) -> bool:
    return math.comb(n, k) * max(1, length) * max(1, k) <= OPT_STATE_GUARD


def run_shell(plan: NodePlan, k: int, initial: Iterable[PointId],
              sequence: Sequence[PointId], seed: int,
              event_sink: Optional[Callable[[str], None]] = None) -> RunRecord:
    """One seeded shell run over a fixed sequence, with verification records."""
    shell = BlockShell(plan, k, initial, seed=seed, event_sink=event_sink)
    shell.serve_all(sequence)
    scale = plan.dec.metric.scale
    return RunRecord(
        dec=plan.dec, k=k, sequence=list(sequence), seed=seed,
        phase_logs=shell.phase_logs,
        dhat=shell.dhat,
        phase_jump_counts=shell.phase_jump_counts,
        total_inner=Fraction(shell.total_inner, scale),
        total_jump=Fraction(shell.total_jump, scale),
    )


def additive_term(plan: Union[NodePlan, Universe], ell: int) -> Optional[float]:
    """The additive slack f(ell) * ell * diameter / ln(ell) of the plan's
    competitive guarantee with `ell` servers, in floats; None below two
    servers, where ln(ell) is 0."""
    if ell < 2:
        return None
    return float(plan.f(ell)) * ell * float(plan.diameter) / math.log(ell)


def _ratio(total: Fraction, opt) -> object:
    if opt is None:
        return None
    if opt == 0:
        return Fraction(1) if total == 0 else INF
    return total / opt


def run_trials(space: HstSpace, k: int, algo: str, gen_spec: GeneratorSpec,
               trials: int, base_seed: int,
               event_sink: Optional[Callable[[str], None]] = None) -> list[TrialReport]:
    """Seeded batch of runs of one algorithm over one generated sequence.

    The sequence and the offline optimum are computed once, after the
    inputs are checked and the plan is built (`tree_plan` refuses a tree
    too tall to serve); only the algorithm's random stream varies across
    trials.  `event_sink` receives the root shell's events of every trial
    (shell runs only).
    """
    check_int("trials", trials, 1)
    check_int("k", k, 1)
    check_int("base_seed", base_seed)
    if algo not in ("marking", "algox"):
        raise ValueError(f"unknown algorithm {algo!r}")
    init = default_initial(k)
    if algo == "marking" and space.height > 1:
        raise ValueError("marking as the whole algorithm needs a height-1 (uniform) space")
    if algo == "algox":
        check_hst_admissible(space, k)
    plan = tree_plan(space)
    sequence = generate(gen_spec, space)
    metric = space.leaf_metric

    if solver_guard_ok(metric.n, k, len(sequence)):
        opt = opt_cost(metric, k, sequence, initial=init).cost
    else:
        opt = None  # guard tripped: costs still reported, ratios unavailable

    use_shell = isinstance(plan, NodePlan)  # algox on a tree of height >= 2
    additive = additive_term(plan, k)
    reports = []
    for i in range(trials):
        seed = base_seed ^ i
        if use_shell:
            rec = run_shell(plan, k, init, sequence, seed, event_sink=event_sink)
            inner, jump = rec.total_inner, rec.total_jump
            phases = len(rec.phase_logs)
            m_sum = sum(rec.phase_gains())
        else:
            alg = plan.start(seed)
            alg.reset(init)
            inner = Fraction(alg.serve_all(sequence), metric.scale)
            jump = Fraction(0)
            phases = alg.phase_count
            m_sum = 0
        total = inner + jump
        adjusted = None
        if additive is not None and opt:
            adjusted = (float(total) - additive) / float(opt)
        reports.append(TrialReport(
            seed=seed, total=total, inner=inner, jump=jump, opt=opt, ratio=_ratio(total, opt),
            phases=phases, m_sum=m_sum, adjusted_ratio=adjusted,
        ))
    return reports


def render_rational(value) -> str:
    """An int or a Fraction as `p/q` (an integer as itself), INF as `inf`
    and None as `na`."""
    if value is None:
        return "na"
    if value == INF:
        return "inf"
    return str(value)


def reports_to_csv(reports: Sequence[TrialReport]) -> str:
    lines = [CSV_HEADER]
    lines.extend(",".join(map(render_rational, _csv_fields(r))) for r in reports)
    return "\n".join(lines) + "\n"


# -- demand monotonicity probe ----------------------------------------------


@dataclass
class ProbeSummary:
    sequences: int
    prefixes: int
    decreases: int
    max_step: int
    decrease_witness: Optional[list]
    big_step_witness: Optional[list]

    @property
    def verdict(self) -> str:
        if self.decreases == 0 and self.max_step <= 1:
            return "no decrease and max step 1 at this scale"
        parts = []
        if self.decreases > 0:
            parts.append(f"{self.decreases} prefix demand decreases "
                         f"(witness {self.decrease_witness})")
        if self.max_step > 1:
            parts.append(f"max |step| = {self.max_step} "
                         f"(witness {self.big_step_witness})")
        return "; ".join(parts)


def probe_demand_monotonicity(metric: FiniteMetric, Delta,
                              sequences: Optional[Iterable[Sequence[PointId]]] = None,
                              max_len: Optional[int] = None) -> ProbeSummary:
    """Step behaviour of prefix demands over the given sequences.

    With `max_len` instead of explicit sequences, enumerates every sequence
    over the whole point set up to that length.  Reports how often the
    demand drops from one prefix to the next, the largest |step|, and the
    first (shortest) witnessing sequence of each anomaly.  The two theorems
    in `DemandTracker.demand` rule out drops and steps above one, so this is
    their executable check.
    """
    if sequences is None:
        if max_len is None:
            raise ValueError("need sequences or max_len")
        check_int("max_len", max_len, 1)
        pts = list(metric.points())
        sequences = (seq for length in range(1, max_len + 1)
                     for seq in product(pts, repeat=length))
    n_seq = 0
    n_pref = 0
    decreases = 0
    max_step = 0
    dec_wit: Optional[list] = None
    big_wit: Optional[list] = None
    for seq in sequences:
        seq = list(seq)
        n_seq += 1
        n_pref += len(seq)
        prev = 0  # demand of the empty sequence
        for i, d in enumerate(max_demand_trace(metric, Delta, seq)):
            step = d - prev
            if step < 0:
                decreases += 1
                if dec_wit is None:
                    dec_wit = seq[: i + 1]
            if abs(step) > max_step:
                max_step = abs(step)
                if abs(step) > 1 and big_wit is None:
                    big_wit = seq[: i + 1]
            prev = d
    return ProbeSummary(sequences=n_seq, prefixes=n_pref, decreases=decreases,
                        max_step=max_step, decrease_witness=dec_wit,
                        big_step_witness=big_wit)

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
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Optional, Sequence

from .generators import GeneratorSpec, generate
from .marking import Marking
from .metric import Decomposition, FiniteMetric, HstSpace, PointId
from .offline import INF, DemandTracker, opt_cost
from .shell import (BlockShell, PhaseLogs, check_hst_admissible, child_factory,
                    node_decompositions, node_f)

CSV_HEADER = "seed,total,inner,jump,opt,ratio,phases,m_sum"

# refuse offline optima whose configuration DP would get too large
OPT_STATE_GUARD = 5_000_000


@dataclass
class TrialReport:
    seed: int
    total: Fraction
    inner: Fraction
    jump: Fraction
    opt: object            # Fraction, INF, or None when the solver guard tripped
    ratio: object          # Fraction, INF ("flagged non-finite"), or None
    phases: int            # phases started (>= 1)
    phase_stats: list      # PhaseStats per completed phase
    m_sum: int
    additive: object       # the competitive guarantee's additive term, or None
    adjusted_ratio: object # (total - additive) / opt, or None


@dataclass
class RunRecord(PhaseLogs):
    """Everything a verification check needs to replay one shell run."""
    dec: Decomposition
    k: int
    initial: frozenset
    sequence: list
    seed: int
    phase_logs: list       # per phase, global request order (last = unfinished)
    triggers: list         # first request of phases 2..P+1
    dhat: list             # dhat[0] = initial counts, dhat[p] = end of phase p
    phase_jump_counts: list
    phase_stats: list
    total_inner: Fraction
    total_jump: Fraction


def default_initial(k: int) -> frozenset:
    """Servers start on the first k points unless the caller says otherwise."""
    return frozenset(range(k))


def solver_guard_ok(n: int, k: int, length: int, guard: int = OPT_STATE_GUARD) -> bool:
    return math.comb(n, k) * max(1, length) * max(1, k) <= guard


def run_shell(dec: Decomposition, k: int, initial: Iterable[PointId],
              sequence: Sequence[PointId], seed: int,
              sub_factory: Optional[Callable] = None,
              event_sink: Optional[Callable[[str], None]] = None) -> RunRecord:
    """One seeded shell run over a fixed sequence, with verification records."""
    init = frozenset(initial)
    shell = BlockShell(dec, k, init, sub_factory=sub_factory, seed=seed,
                       event_sink=event_sink)
    for r in sequence:
        shell.serve(r)
    return RunRecord(
        dec=dec, k=k, initial=init, sequence=list(sequence), seed=seed,
        phase_logs=shell.phase_logs,
        triggers=shell.triggers,
        dhat=shell.dhat,
        phase_jump_counts=shell.phase_jump_counts,
        phase_stats=shell.mp_trace(),
        total_inner=shell.total_inner,
        total_jump=shell.total_jump,
    )


def _ratio(total: Fraction, opt) -> object:
    if opt is None:
        return None
    if opt == INF:
        return None
    if opt == 0:
        return Fraction(1) if total == 0 else INF
    return Fraction(total) / opt


def run_trials(space: HstSpace, k: int, algo: str, gen_spec: GeneratorSpec,
               trials: int, base_seed: int,
               initial: Optional[Iterable[PointId]] = None,
               opt_guard: int = OPT_STATE_GUARD,
               event_sink: Optional[Callable[[str], None]] = None) -> list[TrialReport]:
    """Seeded batch of runs of one algorithm over one generated sequence.

    The sequence and the offline optimum are computed once; only the
    algorithm's random stream varies across trials.  `event_sink` receives
    the root shell's events of every trial (shell runs only).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if algo not in ("marking", "algox"):
        raise ValueError(f"unknown algorithm {algo!r}")
    init = frozenset(initial) if initial is not None else default_initial(k)
    if len(init) != k:
        raise ValueError(f"initial configuration has {len(init)} points, expected k={k}")
    sequence = generate(gen_spec, space)
    metric = space.leaf_metric

    if solver_guard_ok(metric.n, k, len(sequence), opt_guard):
        opt = opt_cost(metric, k, sequence, initial=init).cost
    else:
        opt = None  # guard tripped: costs still reported, ratios unavailable

    if algo == "marking" and space.height > 1:
        raise ValueError("marking as the whole algorithm needs a height-1 (uniform) space")
    if algo == "algox":
        check_hst_admissible(space, k)

    use_shell = algo == "algox" and space.height >= 2
    if use_shell:
        decs = node_decompositions(space)
        dec = decs[0]
        factory = child_factory(space, 0, decs)
        scale = dec.Delta
    else:
        scale = metric.diameter() if metric.n > 1 else Fraction(1)

    # additive slack of the competitive guarantee: f(k) * k * scale / log k
    additive = None
    if k >= 2:
        additive = float(node_f(space, 0)(k)) * k * float(scale) / math.log(k)

    reports = []
    for i in range(trials):
        seed = base_seed ^ i
        if use_shell:
            rec = run_shell(dec, k, init, sequence, seed, sub_factory=factory,
                            event_sink=event_sink)
            total = rec.total_inner + rec.total_jump
            inner, jump = rec.total_inner, rec.total_jump
            phases = len(rec.phase_logs)
            stats = rec.phase_stats
            m_sum = sum(s.gain for s in stats)
        else:
            alg = Marking(metric, init, seed)
            total = Fraction(0)
            for r in sequence:
                total += alg.serve(r)
            inner, jump = total, Fraction(0)
            phases = alg.phase_count
            stats = []
            m_sum = 0
        ratio = _ratio(total, opt)
        adjusted = None
        if additive is not None and opt is not None and opt not in (0, INF):
            adjusted = (float(total) - additive) / float(opt)
        reports.append(TrialReport(
            seed=seed, total=total, inner=inner, jump=jump, opt=opt, ratio=ratio,
            phases=phases, phase_stats=stats, m_sum=m_sum,
            additive=additive, adjusted_ratio=adjusted,
        ))
    return reports


def render_rational(value) -> str:
    if value is None:
        return "na"
    if value == INF:
        return "inf"
    return str(Fraction(value))


def reports_to_csv(reports: Sequence[TrialReport]) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(",".join([
            str(r.seed),
            render_rational(r.total),
            render_rational(r.inner),
            render_rational(r.jump),
            render_rational(r.opt),
            render_rational(r.ratio),
            str(r.phases),
            str(r.m_sum),
        ]))
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
    first (shortest) witnessing sequence of each anomaly.
    """
    if sequences is None:
        if max_len is None:
            raise ValueError("need sequences or max_len")
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
        tracker = DemandTracker.for_metric(metric, Delta)
        prev = 0  # demand of the empty sequence
        for i, r in enumerate(seq):
            tracker.push(r)
            d = tracker.demand()
            n_pref += 1
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

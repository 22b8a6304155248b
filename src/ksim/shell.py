"""Phase-structured randomized shell over a block-decomposed metric.

The shell owns k servers on a decomposition with exact cross-block distance
Delta.  Each nonempty block runs its own subroutine instance (marking, or a
nested shell for deeper trees).  Per request it recomputes the target
block's demand and peak demand for the current phase and then:

  * peak < servers in the block: forward to the block subroutine;
  * peak = servers: forward, then mark the block;
  * peak > servers: mark the block, then repeatedly move a uniformly random
    server out of a uniformly random unmarked block into the target (a jump,
    costing Delta) until the block holds `peak` servers.  Donors that drop
    to their own peak demand get marked; both blocks' subroutines restart
    from their current configurations.  If donors run out (every block is
    marked) the phase ends and the triggering request is replayed as the
    first request of the next phase.

Per-phase bookkeeping (end-of-phase server counts, jump counts, request
logs) is retained for the inequality checks in `ksim.verify`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Protocol

from .marking import Marking, marking_f
from .metric import Decomposition, FiniteMetric, HstSpace, PointId, decompose
from .offline import DemandTracker, ScaledCosts, UniformDemandTracker


class ShellInvariantError(RuntimeError):
    """A structural invariant that provably holds was observed violated."""


class Subroutine(Protocol):
    f: Callable[[int], object]

    def serve(self, r: PointId) -> Fraction: ...

    def reset(self, config: Iterable[PointId]) -> None: ...

    @property
    def config(self) -> frozenset: ...


@dataclass(frozen=True)
class Jump:
    phase: int
    from_block: int
    to_block: int
    src: PointId
    dst: PointId


@dataclass
class StepReport:
    block: int
    inner_cost: Fraction = Fraction(0)
    jump_cost: Fraction = Fraction(0)
    jumps: list = field(default_factory=list)
    phase_ended: bool = False

    @property
    def total(self) -> Fraction:
        return self.inner_cost + self.jump_cost


@dataclass(frozen=True)
class PhaseStats:
    """Per completed phase: servers newly settled (sum of positive end-count
    changes) and the number of jumps performed."""
    phase: int
    gain: int
    jumps: int


def default_marking_factory(block: int, points: tuple, config: frozenset,
                            metric: FiniteMetric, seed: int) -> Subroutine:
    sub = Marking(metric, (), seed, points=points)
    sub.reset(config)
    return sub


class PhaseLogs:
    """Per-phase request records, read alike from a live shell and from a
    finished run: `phase_logs` holds the requests of every started phase (the
    last one still running), `triggers` the first request of each later
    phase."""

    @property
    def completed_phases(self) -> int:
        return len(self.triggers)

    def phase_sequence(self, p: int, plus: bool) -> list[PointId]:
        """Requests of phase p (1-based); with `plus`, the first request of
        phase p+1 is appended (only available for completed phases)."""
        if not (1 <= p <= len(self.phase_logs)):
            raise ValueError(f"no phase {p}")
        seq = list(self.phase_logs[p - 1])
        if plus:
            if p > len(self.triggers):
                raise ValueError(f"phase {p} has not ended; no follow-up request yet")
            seq.append(self.triggers[p - 1])
        return seq


class BlockShell(PhaseLogs):
    """One live instance of the shell algorithm on a decomposition."""

    def __init__(self, dec: Decomposition, k: int, initial: Iterable[PointId],
                 sub_factory: Optional[Callable] = None, seed: int = 0,
                 event_sink: Optional[Callable[[str], None]] = None):
        init = frozenset(initial)
        if k < 1:
            raise ValueError("need at least one server")
        if len(init) != k:
            raise ValueError(f"initial configuration has {len(init)} points, expected k={k}")
        if dec.mu_eff < min(k, dec.t):
            raise ValueError(
                f"separation too small: mu_eff={dec.mu_eff} < min(k,t)={min(k, dec.t)}"
            )
        for p in init:
            dec.metric.check_point(p)
            if p not in dec.block_of:
                raise ValueError(f"server at {p}, outside this decomposition")
        self.dec = dec
        self.metric = dec.metric
        self.k = k
        self.t = dec.t
        self.Delta = dec.Delta
        self._block_sets = [frozenset(b) for b in dec.blocks]
        self.positions: set[PointId] = set(init)
        self._counts = [len(init & bs) for bs in self._block_sets]
        self.rng = random.Random(seed)
        self.draws = 0
        self._event_sink = event_sink

        self._costs = ScaledCosts(dec.metric, extra=[dec.Delta])
        self._delta_int = self._costs.extra[0]
        # scaled distance inside each uniform block, read off any pair (its
        # demand needs no configuration DP); None for a block that is not uniform
        dist = self._costs.dist
        self._uniform_d = [dist[blk[0]][blk[-1]] if uniform else None
                           for blk, uniform in zip(dec.blocks, dec.uniform_blocks)]

        if sub_factory is None:
            sub_factory = default_marking_factory
        self._sub_factory = sub_factory
        self._subs: list[Subroutine] = []
        for s, blk in enumerate(dec.blocks):
            sub_seed = self.rng.getrandbits(64)
            cfg = frozenset(self.positions & self._block_sets[s])
            self._subs.append(sub_factory(s, blk, cfg, dec.metric, sub_seed))

        self.phase = 1
        self._marked = [c == 0 for c in self._counts]
        self._trackers: list[Optional[DemandTracker]] = [None] * self.t
        self._peak_demand = [0] * self.t
        self._last_push: Optional[tuple[int, int]] = None  # (block, peak before push)

        # records for verification
        self.phase_logs: list[list[PointId]] = [[]]   # [-1] is the running phase
        self.triggers: list[PointId] = []             # first request of each later phase
        self.dhat: list[list[int]] = [list(self._counts)]  # [0] = initial counts
        self.phase_jump_counts: list[int] = []
        self._current_phase_jumps = 0
        self.total_inner = Fraction(0)
        self.total_jump = Fraction(0)

        for s in range(self.t):
            if self._marked[s]:
                self._emit("mark", block=s)

    # -- plumbing -----------------------------------------------------------

    def _emit(self, kind: str, **fields) -> None:
        if self._event_sink is None:
            return
        parts = [kind, f"phase={self.phase}"]
        parts.extend(f"{k}={v}" for k, v in fields.items())
        parts.append(f"draws={self.draws}")
        self._event_sink("\t".join(parts))

    def _new_tracker(self, s: int) -> DemandTracker:
        d = self._uniform_d[s]
        if d is None:
            return DemandTracker(self._costs, self._delta_int)
        return UniformDemandTracker(self._costs, self._delta_int, d)

    def _choice(self, seq):
        self.draws += 1
        return self.rng.choice(seq)

    def block_config(self, s: int) -> frozenset:
        return frozenset(self.positions & self._block_sets[s])

    def server_count(self, s: int) -> int:
        return self._counts[s]

    def is_marked(self, s: int) -> bool:
        return self._marked[s]

    def peak_demand(self, s: int) -> int:
        return self._peak_demand[s]

    def _mark(self, s: int) -> None:
        if not self._marked[s]:
            self._marked[s] = True
            self._emit("mark", block=s)

    def _reset_sub(self, s: int) -> None:
        self._subs[s].reset(self.block_config(s))

    def _sub_serve(self, s: int, r: PointId) -> Fraction:
        sub = self._subs[s]
        cost = sub.serve(r)
        new_cfg = sub.config
        self.positions = (self.positions - self._block_sets[s]) | new_cfg
        if len(new_cfg) != self._counts[s]:
            raise ShellInvariantError("subroutine changed its server count")
        return cost

    # -- serving ------------------------------------------------------------

    def serve(self, r: PointId) -> StepReport:
        self.metric.check_point(r)
        if r not in self.dec.block_of:
            raise ValueError(f"request {r} outside this decomposition")
        s = self.dec.block_of[r]
        rep = StepReport(block=s)
        self._serve_once(r, s, rep, replay=False)
        if sum(self._counts) != self.k:
            raise ShellInvariantError("server count not conserved")
        self.total_inner += rep.inner_cost
        self.total_jump += rep.jump_cost
        return rep

    def _serve_once(self, r: PointId, s: int, rep: StepReport, replay: bool) -> None:
        self.phase_logs[-1].append(r)
        prev_peak = self._peak_demand[s]
        tracker = self._trackers[s]
        if tracker is None:
            # built on the block's first request of the phase: on random
            # [3,3,3] runs about 40% of the blocks see none before the next
            # phase or rebuild
            tracker = self._trackers[s] = self._new_tracker(s)
        tracker.push(r)
        peak = max(prev_peak, tracker.demand())
        self._peak_demand[s] = peak
        self._last_push = (s, prev_peak)

        count = self._counts[s]
        if peak < count:
            cost = self._sub_serve(s, r)
            rep.inner_cost += cost
            self._emit("serve", block=s, point=r, cost=cost)
            return
        if peak == count:
            cost = self._sub_serve(s, r)
            rep.inner_cost += cost
            self._emit("serve", block=s, point=r, cost=cost)
            self._mark(s)
            return

        # peak > count: raise the block's population by jumping servers in
        self._mark(s)
        while self._counts[s] < peak:
            donors = [b for b in range(self.t) if not self._marked[b]]
            if not donors:
                if replay:
                    raise ShellInvariantError("phase ended twice for a single request")
                self._end_phase(r, s)
                rep.phase_ended = True
                self._serve_once(r, self.dec.block_of[r], rep, replay=True)
                return
            b = self._choice(donors)
            src = self._choice(sorted(self.positions & self._block_sets[b]))
            if r not in self.positions:
                dst = r
            else:
                free = sorted(self._block_sets[s] - self.positions)
                if not free:
                    raise ShellInvariantError("no unoccupied point in the demanding block")
                dst = self._choice(free)
            self.positions.discard(src)
            self.positions.add(dst)
            self._counts[b] -= 1
            self._counts[s] += 1
            jump = Jump(self.phase, b, s, src, dst)
            self._current_phase_jumps += 1
            rep.jumps.append(jump)
            rep.jump_cost += self.Delta
            self._emit("jump", from_block=b, to_block=s, src=src, dst=dst, cost=self.Delta)
            if self._counts[b] == self._peak_demand[b]:
                self._mark(b)
            self._reset_sub(s)
            self._reset_sub(b)

    # -- phase boundary -----------------------------------------------------

    def _end_phase(self, trigger: PointId, s: int) -> None:
        # the triggering request belongs to the next phase
        self.phase_logs[-1].pop()
        assert self._last_push is not None and self._last_push[0] == s
        peak_without = list(self._peak_demand)
        peak_without[s] = self._last_push[1]
        peak_plus = list(self._peak_demand)
        self._check_sandwich(peak_without, peak_plus)

        self.triggers.append(trigger)
        self.dhat.append(list(self._counts))
        self.phase_jump_counts.append(self._current_phase_jumps)
        self._emit("phase_end", trigger=trigger)

        self.phase += 1
        self._current_phase_jumps = 0
        self.phase_logs.append([])
        self._marked = [c == 0 for c in self._counts]
        self._trackers = [None] * self.t
        self._peak_demand = [0] * self.t
        self._last_push = None
        for b in range(self.t):
            self._reset_sub(b)
            if self._marked[b]:
                self._emit("mark", block=b)

    def _check_sandwich(self, peak_without: list[int], peak_plus: list[int]) -> None:
        """End-of-phase counts sit between the peak demands with and without
        the triggering request, with equality in all blocks but at most one."""
        exceptions = 0
        for b in range(self.t):
            c = self._counts[b]
            if not (peak_without[b] <= c <= peak_plus[b]):
                raise ShellInvariantError(
                    f"phase {self.phase}: block {b} count {c} outside "
                    f"[{peak_without[b]}, {peak_plus[b]}]"
                )
            if not (peak_without[b] == c == peak_plus[b]):
                exceptions += 1
        if exceptions > 1:
            raise ShellInvariantError(
                f"phase {self.phase}: {exceptions} blocks broke the count/demand equality"
            )

    # -- reporting ----------------------------------------------------------

    def mp_trace(self) -> list[PhaseStats]:
        """Gain and jump count for every completed phase."""
        out = []
        for p in range(1, len(self.dhat)):
            gain = sum(max(0, self.dhat[p][s] - self.dhat[p - 1][s]) for s in range(self.t))
            out.append(PhaseStats(phase=p, gain=gain, jumps=self.phase_jump_counts[p - 1]))
        return out


# -- recursive construction over separation trees ---------------------------


def compose_f(f_inner: Callable[[int], object]) -> Callable[[int], float]:
    """Competitive function of a shell built on blocks with function f_inner."""
    def f(ell: int) -> float:
        return float(f_inner(ell)) * (6.0 * math.log(ell) + 8.0)
    return f


class ShellSubroutine:
    """Adapter running a nested shell as the subroutine of the level above.

    `reset` rebuilds the nested shell from scratch at the new configuration
    (fresh phase, fresh marks), drawing the instance seed from this adapter's
    own stream so the whole tree replays deterministically per seed.
    """

    def __init__(self, dec: Decomposition, sub_factory: Callable, seed: int,
                 f: Callable[[int], object],
                 event_sink: Optional[Callable[[str], None]] = None):
        self._dec = dec
        self._sub_factory = sub_factory
        self.rng = random.Random(seed)
        self.f = f
        self._event_sink = event_sink
        self._shell: Optional[BlockShell] = None

    @property
    def shell(self) -> Optional[BlockShell]:
        return self._shell

    def reset(self, config: Iterable[PointId]) -> None:
        cfg = frozenset(config)
        if cfg:
            self._shell = BlockShell(self._dec, len(cfg), cfg, self._sub_factory,
                                     seed=self.rng.getrandbits(64),
                                     event_sink=self._event_sink)
        else:
            self._shell = None

    def serve(self, r: PointId) -> Fraction:
        if self._shell is None:
            raise RuntimeError("subtree holds no servers; caller must jump one in first")
        rep = self._shell.serve(r)
        return rep.total

    @property
    def config(self) -> frozenset:
        if self._shell is None:
            return frozenset()
        return frozenset(self._shell.positions)


def check_hst_admissible(space: HstSpace, k: int) -> None:
    """The tree ratio must dominate the server count or the maximum degree."""
    if space.height >= 2 and space.mu < k and space.mu < space.max_degree():
        raise ValueError(
            f"mu={space.mu} below both k={k} and max degree {space.max_degree()}"
        )


def node_decompositions(space: HstSpace) -> dict[int, Decomposition]:
    """Decomposition at every internal node, computed once and shared."""
    return {v: decompose(space, v) for v in space.internal_nodes()}


def node_f(space: HstSpace, node: int) -> Callable[[int], object]:
    """Competitive function of the algorithm on the subtree at `node`:
    marking at a parent of leaves, composed once per level above it."""
    f: Callable[[int], object] = marking_f
    for _ in range(space.height - space.depth[node] - 1):
        f = compose_f(f)
    return f


def child_factory(space: HstSpace, node: int,
                  decs: dict[int, Decomposition]) -> Callable:
    """Block-subroutine factory of the shell at internal node `node`: block s
    runs the algorithm of the node's s-th child, started at the block's
    servers."""
    children = space.children[node]

    def factory(block: int, points: tuple, config: frozenset,
                metric: FiniteMetric, sub_seed: int) -> Subroutine:
        handle = make_node_handle(space, children[block], sub_seed, decs)
        handle.reset(config)
        return handle
    return factory


def make_node_handle(space: HstSpace, node: int, seed: int,
                     decs: Optional[dict[int, Decomposition]] = None,
                     event_sink: Optional[Callable[[str], None]] = None) -> Subroutine:
    """Subroutine for the subtree rooted at `node` (not yet holding servers).

    Leaves' parents get marking on their uniform leaf space; higher nodes get
    a nested shell whose per-block subroutines are built recursively.
    """
    if decs is None:
        decs = node_decompositions(space)
    children = space.children[node]
    if all(space.is_leaf(c) for c in children):
        points = space.subtree_leaf_points(node)
        return Marking(space.leaf_metric, (), seed, points=points)
    rng = random.Random(seed)
    # one unused draw per child ahead of the shell's seed, so that nested
    # seeds replay unchanged
    for _ in children:
        rng.getrandbits(64)
    return ShellSubroutine(decs[node], child_factory(space, node, decs),
                           rng.getrandbits(64), node_f(space, node),
                           event_sink=event_sink)


def build_hst_algorithm(space: HstSpace, k: int, initial: Iterable[PointId],
                        seed: int,
                        event_sink: Optional[Callable[[str], None]] = None) -> Subroutine:
    """Online algorithm for a whole separation tree, ready to serve.

    Height-1 trees run plain marking on the uniform leaf space; deeper trees
    run a shell per internal node, nested by level.
    """
    init = frozenset(initial)
    if len(init) != k:
        raise ValueError(f"initial configuration has {len(init)} points, expected k={k}")
    if k > space.n_leaves:
        raise ValueError("more servers than leaves")
    check_hst_admissible(space, k)
    handle = make_node_handle(space, 0, seed, event_sink=event_sink)
    handle.reset(init)
    return handle

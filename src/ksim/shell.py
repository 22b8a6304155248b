"""Phase-structured randomized shell over a block-decomposed metric.

The shell owns k servers on a decomposition with exact cross-block distance
Delta.  Each nonempty block runs its own subroutine instance (marking, or a
nested shell for deeper trees), the one record of the block's servers.  Per
request it reads the target block's demand in the current phase from the
node plan's memo (on a miss, certifying it by the memo's slack or computing
it).  A demand never falls within a phase and rises by at most one per
request (see `DemandTracker.demand`), so it is also the block's peak demand
in the phase.  A block is marked exactly when it holds no more servers than
its peak; the shell derives marks from the counts and the memo and stores
none.  Then:

  * peak < servers in the block: forward to the block subroutine;
  * peak = servers: forward; the block is marked;
  * peak > servers: the block, marked before the request and at its old
    peak, is one server short, and one server jumps: a uniformly random
    server of a uniformly random unmarked block moves into the target,
    costing Delta.  Both blocks' subroutines restart from their current
    configurations.  If no block is unmarked, the phase ends and the
    triggering request is replayed as the first request of the next phase.

A block gains servers only by jumps, up to its peak, and loses them only as
a donor, while it is above its peak, so a marked block stays marked for the
rest of the phase.  At a phase end, with every block marked, this gives
the sandwich the shell checks: counts equal peaks, with the trigger's block
one short.

Per-phase bookkeeping (end-of-phase server counts, jump counts, request
logs) is retained for the inequality checks in `ksim.verify`.  Costs are
integers in the unit of the metric's table (`FiniteMetric.dist`); only event
lines render them as Fractions.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Iterable, Optional, Protocol, Union

from .draws import below
from .marking import Universe
from .metric import Decomposition, HstSpace, PointId, check_int, decompose
from .offline import DemandTracker, UniformDemandTracker

# refuse a plan for a taller tree: `compose_f` nests one closure per level,
# and nested shells serve about three frames deep per level, so a tree of a
# few hundred levels would exhaust Python's recursion limit mid-run
PLAN_MAX_HEIGHT = 64


class ShellInvariantError(RuntimeError):
    """A structural invariant that provably holds was observed violated."""


class Subroutine(Protocol):
    def serve(self, r: PointId) -> int:
        """Serve request r; the cost is in the metric's integer unit
        (`Fraction(cost, metric.scale)` is the distance moved)."""

    def serve_all(self, requests: Iterable[PointId]) -> int:
        """The total cost of one `serve` per request, with the same draws."""

    def reset(self, config: Iterable[PointId]) -> None: ...

    @property
    def config(self) -> frozenset: ...


class NodePlan:
    """What every shell at one tree node shares: the decomposition, its
    metric and its diameter (the decomposition's Delta), its blocks as
    sets, the distance inside each uniform block in the metric's integer
    unit (None elsewhere, read from the decomposition), each block's
    subroutine plan (a marking `Universe` or the child's `NodePlan`) and the
    competitive function `f`, all fixed once built; and a memo of block
    demands, which grows as the shells on the plan serve.

    The memo is a trie per block over the block's requests in one phase.
    Node ids 0..t-1 are the empty prefixes of blocks 0..t-1; the child of
    node `v` on request `r` is `memo_child[v * metric.n + r]`, and
    `memo_key[v]` is the key that made `v` (unused at the empty prefixes),
    so `v`'s parent is `memo_key[v] // n` and its last request
    `memo_key[v] % n`.  `memo_peak[v]` is the exact demand of the prefix at
    `v`, which no shorter prefix on its path exceeds (the block's peak
    demand in the phase), and `memo_slack[v]` is `num - den * saving(D)`
    for the price num/den and the demand D last computed on that path (see
    `BlockShell._memo_miss`).  Both depend on the decomposition and that
    prefix alone, so every shell on the plan reads them there, and a shell
    adds at most one node per request it serves."""

    __slots__ = ("dec", "metric", "diameter", "block_sets", "uniform_d", "subs", "nested",
                 "f", "num", "den", "memo_child", "memo_key", "memo_peak", "memo_slack")

    def __init__(self, dec: Decomposition, subs: tuple[Union["NodePlan", Universe], ...]):
        if len(subs) != dec.t:
            raise ValueError(f"expected {dec.t} block plans, one per block, got {len(subs)}")
        # every shell start checks mu_eff >= min(k, t) >= 1, but a
        # one-server reset builds no shell, so the plan checks it once; a
        # single point (a one-leaf subtree, Delta 0) has no move to bound
        if dec.mu_eff < 1 and len(dec.points) > 1:
            raise ValueError(f"separation too small: mu_eff={dec.mu_eff} < 1")
        # the shell serves marking blocks and nested shells on different
        # paths, and `f` composes one kind's
        self.nested = all(isinstance(sub, NodePlan) for sub in subs)
        if not self.nested and not all(isinstance(sub, Universe) for sub in subs):
            raise ValueError("block plans must be all marking universes or all node plans")
        self.dec = dec
        self.metric, self.diameter = dec.metric, dec.Delta
        self.block_sets = tuple(frozenset(b) for b in dec.blocks)
        # a uniform block's demand needs no configuration DP
        self.uniform_d = dec.uniform_d
        self.subs = subs
        self.f = compose_f(subs[0].f)
        self.num, self.den = dec.price.numerator, dec.price.denominator
        # plain ints in lists and one dict: a memo entry is no tuple or object
        self.memo_child: dict[int, int] = {}
        self.memo_key = [0] * dec.t
        self.memo_peak = [0] * dec.t
        self.memo_slack = [0] * dec.t

    def start(self, seed: int) -> "ShellSubroutine":
        """The shell algorithm on this plan, seeded and holding no servers."""
        return ShellSubroutine(self, seed)


class PhaseLogs:
    """Per-phase records, read alike from a live shell and from a finished
    run: `phase_logs` holds the requests of every started phase (the last one
    still running; a later one opens with the request that ended the one
    before), `dhat` the block server counts at the start and each phase end."""

    @property
    def phase(self) -> int:  # the running phase, 1-based
        return len(self.phase_logs)

    @property
    def completed_phases(self) -> int:
        return len(self.phase_logs) - 1

    @property
    def triggers(self) -> list[PointId]:  # the requests that ended phases
        return [log[0] for log in self.phase_logs[1:]]

    def phase_gains(self) -> list[int]:
        """Servers newly settled in each completed phase: the sum of the
        positive changes of the block counts across it."""
        return [sum(max(0, c - b) for b, c in zip(before, after))
                for before, after in zip(self.dhat, self.dhat[1:])]

    def phase_sequence(self, p: int, plus: bool) -> list[PointId]:
        """Requests of phase p (1-based); with `plus`, the first request of
        phase p+1 is appended (only available for completed phases)."""
        if not (1 <= p <= len(self.phase_logs)):
            raise ValueError(f"no phase {p}")
        seq = list(self.phase_logs[p - 1])
        if plus:
            if p > self.completed_phases:
                raise ValueError(f"phase {p} has not ended; no follow-up request yet")
            seq.append(self.phase_logs[p][0])
        return seq


class BlockShell(PhaseLogs):
    """One live instance of the shell algorithm on a node plan's decomposition."""

    def __init__(self, plan: NodePlan, k: int, initial: Iterable[PointId], seed: int = 0,
                 event_sink: Optional[Callable[[str], None]] = None):
        dec = plan.dec
        init = frozenset(initial)
        check_int("k", k, 1)
        if len(init) != k:
            raise ValueError(f"initial configuration has {len(init)} points, expected k={k}")
        _check_start(dec, init)
        self.dec = dec
        self.metric = dec.metric
        self.k = k
        self.t = dec.t
        self._plan = plan
        self._counts = [len(init & bs) for bs in plan.block_sets]
        self.rng = random.Random(check_int("seed", seed))
        self.draws = 0
        self._event_sink = event_sink

        # a started subroutine holds no servers, so `_open_phase` resets
        # only the occupied blocks
        self._subs: list[Subroutine] = [sub.start(self.rng.getrandbits(64))
                                        for sub in plan.subs]
        self._node: list[int] = []  # each block's phase prefix in the memo

        # records for verification
        self.phase_logs: list[list[PointId]] = []   # [-1] is the running phase
        self.dhat: list[list[int]] = []  # [0] = initial counts, then one per phase end
        self.phase_jump_counts: list[int] = []
        self.total_inner = 0
        self.total_jump = 0
        self._open_phase(init)

    # -- plumbing -----------------------------------------------------------

    def _emit(self, kind: str, **fields) -> None:
        if self._event_sink is None:
            return
        if "cost" in fields:
            fields["cost"] = Fraction(fields["cost"], self.metric.scale)
        parts = [kind, f"phase={self.phase}"]
        parts.extend(f"{k}={v}" for k, v in fields.items())
        parts.append(f"draws={self.draws}")
        self._event_sink("\t".join(parts))

    def _new_tracker(self, s: int) -> DemandTracker:
        # a tracker tests each point on its first push alone, so the points
        # `serve_all` has tested cost it no `check_point` call
        d = self._plan.uniform_d[s]
        if d is None:
            return DemandTracker(self.metric, self.dec.price)
        return UniformDemandTracker(self.metric, self.dec.price, d)

    def _choice(self, seq):
        self.draws += 1
        return seq[below(self.rng.getrandbits, len(seq))]

    def server_count(self, s: int) -> int:
        return self._counts[s]

    def is_marked(self, s: int) -> bool:
        """Block s holds no more servers than its peak demand in the phase."""
        return self._counts[s] <= self._plan.memo_peak[self._node[s]]

    def peak_demand(self, s: int) -> int:
        return self._plan.memo_peak[self._node[s]]

    @property
    def positions(self) -> frozenset:
        """The servers' points: the union of the block subroutines'
        configurations, derived on each read."""
        return frozenset().union(*[sub.config for sub in self._subs])

    def _memo_miss(self, s: int, r: PointId, parent: int) -> tuple[int, int]:
        """The demand and slack of block s's phase prefix ending in r: a
        prefix not in the memo yet, whose parent node `parent` is not an
        empty prefix, and whose slack, the parent's less den * dist(last,
        r), is negative.  `serve_all` extends the memo itself in every other
        case, and appends the node for this answer as node `len(memo_peak)`.

        Every memo node holds its prefix's exact demand.  A demand never
        falls as the prefix grows and rises by at most one per request (the
        theorems in `DemandTracker.demand`), so the new prefix's demand D_t
        is the parent's, P, or P + 1, and it is P exactly when it cannot
        exceed P.  A free-start opt(ell) is convex in ell, so D_t <= P
        exactly when saving_t(P) = opt_t(P) - opt_t(P+1) is at most the
        price num/den.  Let t0 be the prefix where
        a tracker last answered on this path; every node since holds its
        answer, P.  Two facts bound saving_t(P):
          * appending requests never lowers a free-start optimum, so
            opt_t(P+1) >= opt_t0(P+1);
          * opt_t(P) <= opt_{t-1}(P) + dist(p_{t-1}, p_t): move the server
            that stands on the last request.
        So saving_t(P) <= saving_t0(P) + the path length from t0 to t, and
        the slack `num - den * saving_t0(P)`, less den times each step of
        that path, certifies D_t = P while it stays >= 0.  A block's first
        request has demand 1 and opt(1) = opt(2) = 0, so slack num.

        Only a negative slack comes here, to consult the block's tracker,
        built on the block's first consult of the phase.  It catches up with
        one `push_all` of the requests it skipped, read back up the trie
        from the parent to the prefix it last pushed, then r; its demand is
        the node's, and the saving at that demand, which `demand()` keeps on
        its way (`DemandTracker._saving`), the new slack.
        An answer below P or above P + 1 breaks a theorem and raises
        ShellInvariantError before the memo grows."""
        plan = self._plan
        keys, n = plan.memo_key, plan.metric.n
        tracker = self._trackers[s]
        if tracker is None:
            tracker = self._trackers[s] = self._new_tracker(s)
        requests = [r]
        v, pushed = parent, self._tracked[s]
        while v != pushed:
            requests.append(keys[v] % n)
            v = keys[v] // n
        requests.reverse()
        tracker.push_all(requests)
        self._tracked[s] = len(plan.memo_peak)  # the node `serve_all` appends next
        p, d = plan.memo_peak[parent], tracker.demand()
        if not p <= d <= p + 1:
            raise ShellInvariantError(
                f"phase {self.phase}: block {s}'s demand "
                f"{'fell' if d < p else 'rose'} from {p} to {d}")
        return d, plan.num - plan.den * tracker._saving

    # -- serving ------------------------------------------------------------

    def serve(self, r: PointId) -> int:
        return self.serve_all((r,))

    def serve_all(self, requests: Iterable[PointId]) -> int:
        """Serve the requests in order and return their total cost.

        `requests` is read one request at a time, and the shell's records
        are current whenever the next one is read.  A request is tested by
        `type(r) is int` and one `block_of.get`; only a request that fails
        them goes to `check_point`, which refuses what is not a point (so
        1.0 or True never finds point 1's block by its hash), before the
        shell refuses a point outside its decomposition.  One memo lookup
        gives the block's peak demand; on a miss the loop appends the new
        memo node itself, asking `_memo_miss` only for a negative slack.  A
        block that needs no jump is served here, a one-server subtree by
        moving its point.  A jump, and a phase end with its one replay, go
        to `_jump_in`, which checks count conservation after it moves a
        server: the counts change nowhere else."""
        block_of = self.dec.block_of.get
        plan = self._plan
        memo_child = plan.memo_child
        memo_get = memo_child.get
        memo_key, memo_peak, memo_slack = plan.memo_key, plan.memo_peak, plan.memo_slack
        num, den = plan.num, plan.den
        t = self.t
        n = plan.metric.n
        dist = self.metric.dist
        sink = self._event_sink
        # marking blocks read len(positions); a `held` on Marking cost ~115 ns a serve
        nested = plan.nested
        subs, counts = self._subs, self._counts
        node = self._node
        log = self.phase_logs[-1]
        before = self.total_inner + self.total_jump
        for r in requests:
            s = block_of(r) if type(r) is int else None
            if s is None:
                self.metric.check_point(r)
                raise ValueError(f"request {r} outside this decomposition")
            replay = False
            while True:
                log.append(r)
                # the peak of a phase prefix that some shell on this plan
                # has served is read from the memo, with no tracker built or
                # pushed
                u = node[s]
                key = u * n + r
                v = memo_get(key)
                if v is None:
                    if u < t:
                        # a block's first request: demand 1, and a second
                        # server saves nothing
                        d, slack = 1, num
                    else:
                        d = memo_peak[u]
                        slack = memo_slack[u] - den * dist[memo_key[u] % n][r]
                        if slack < 0:
                            d, slack = self._memo_miss(s, r, u)
                    v = memo_child[key] = len(memo_peak)
                    memo_key.append(key)
                    memo_peak.append(d)
                    memo_slack.append(slack)
                node[s] = v
                peak = memo_peak[v]
                count = counts[s]
                if peak > count:
                    if self._jump_in(r, s, memo_peak[u], replay):
                        break
                    # the phase ended: r opens the next one
                    replay = True
                    log = self.phase_logs[-1]
                    continue
                # the block's subroutine serves r and keeps its server count
                sub = subs[s]
                if not nested:
                    cost = sub.serve(r)
                    held = len(sub.positions)
                else:
                    p = sub.point
                    if p is not None:
                        # a one-server subtree: its shell would move the
                        # server to r (see ShellSubroutine)
                        cost = dist[p][r]
                        sub.point = r
                        held = count
                    else:
                        cost = sub.serve(r)
                        held = sub.held
                if held != count:
                    raise ShellInvariantError("subroutine changed its server count")
                self.total_inner += cost
                if sink is not None:
                    self._emit("serve", block=s, point=r, cost=cost)
                    if peak == count > memo_peak[u]:
                        self._emit("mark", block=s)  # r raised the peak to the count
                break
        return self.total_inner + self.total_jump - before

    def _jump_in(self, r: PointId, s: int, prev_peak: int, replay: bool) -> bool:
        """Jump one server into block s for request r, which raised the
        block's peak from `prev_peak`, its count, to one above it.  False
        when no block is unmarked and the phase ends: r then belongs to the
        next phase, to be served again."""
        counts, memo_peak, node = self._counts, self._plan.memo_peak, self._node
        donors = [b for b in range(self.t) if counts[b] > memo_peak[node[b]]]
        if not donors:
            if replay:
                raise ShellInvariantError("phase ended twice for a single request")
            self._end_phase(r, s, prev_peak)
            return False
        b = self._choice(donors)
        sub_b, sub_s = self._subs[b], self._subs[s]
        cfg_b, cfg_s = sub_b.config, sub_s.config
        src = self._choice(sorted(cfg_b))
        if r not in cfg_s:
            dst = r
        else:
            free = sorted(self._plan.block_sets[s] - cfg_s)
            if not free:
                raise ShellInvariantError("no unoccupied point in the demanding block")
            dst = self._choice(free)
        counts[b] -= 1
        counts[s] += 1
        if sum(counts) != self.k:
            raise ShellInvariantError("server count not conserved")
        self._current_phase_jumps += 1
        # a cross-block distance, which the decomposition pins to Delta
        cost = self.metric.dist[src][dst]
        self.total_jump += cost
        if self._event_sink is not None:
            self._emit("jump", from_block=b, to_block=s, src=src, dst=dst, cost=cost)
            if counts[b] == memo_peak[node[b]]:
                self._emit("mark", block=b)  # the donor dropped to its peak
        sub_s.reset(cfg_s | {dst})
        sub_b.reset(cfg_b - {src})
        return True

    # -- phase boundary -----------------------------------------------------

    def _open_phase(self, init: Optional[frozenset]) -> None:
        """Open a phase: record the block counts in `dhat`, start an empty
        log and jump count, put every block at its empty prefix (peak 0, so
        the empty blocks are the marked ones) with no tracker, and restart
        each occupied block's subroutine, at `init`'s points in the block
        when given (the shell's start), else at its own configuration (a
        phase end; the jump that emptied a block has reset it already)."""
        t = self.t
        self.dhat.append(list(self._counts))
        self.phase_logs.append([])
        self._current_phase_jumps = 0
        # in place, as `serve_all` holds this list
        self._node[:] = range(t)
        self._trackers: list[Optional[DemandTracker]] = [None] * t
        self._tracked = list(range(t))  # the prefix each tracker has pushed
        counts, block_sets = self._counts, self._plan.block_sets
        for s, sub in enumerate(self._subs):
            if not counts[s]:
                self._emit("mark", block=s)
            elif init is None:
                sub.reset(sub.config)
            else:
                sub.reset(init & block_sets[s])

    def _end_phase(self, trigger: PointId, s: int, prev_peak: int) -> None:
        """End the phase on `trigger`, a request to block s whose peak demand
        was `prev_peak` before it; the request belongs to the next phase.

        The sandwich, checked here: the counts equal the peaks, with the
        trigger's block one short, at its peak before the request.  No block
        holds fewer servers than that peak (a request that raises a peak
        past the count jumps a server in, and a donor gives only while above
        its peak), and with no unmarked block none holds more."""
        self.phase_logs[-1].pop()
        counts, memo_peak, node = self._counts, self._plan.memo_peak, self._node
        for b in range(self.t):
            peak = prev_peak if b == s else memo_peak[node[b]]
            if counts[b] != peak:
                raise ShellInvariantError(
                    f"phase {self.phase}: block {b} count {counts[b]} is not "
                    f"its peak {peak}")
        self.phase_jump_counts.append(self._current_phase_jumps)
        self._emit("phase_end", trigger=trigger)
        self._open_phase(None)


def _check_start(dec: Decomposition, init: frozenset) -> None:
    """Refuse a shell's start on `dec` at the nonempty configuration `init`
    when the separation is below min(k, t) for k = len(init), or when a
    server is not on a point of the decomposition (`_check_servers`)."""
    mu, least = dec.mu_eff, min(len(init), dec.t)
    # mu < least in ints, as a lazy reset checks here: comparing a Fraction
    # to an int costs microseconds
    if mu.numerator < least * mu.denominator:
        raise ValueError(f"separation too small: mu_eff={mu} < min(k,t)={least}")
    _check_servers(dec, init)


def _check_servers(dec: Decomposition, servers: frozenset) -> None:
    """Refuse a server that is not on a point of `dec`, tested as
    `BlockShell.serve_all` tests a request: `type(p) is int` and one
    `block_of` lookup.  `check_point` runs only to word the refusal of what
    is not a point, before the refusal of a point outside `dec`."""
    for p in servers:
        if type(p) is not int or p not in dec.block_of:
            dec.metric.check_point(p)
            raise ValueError(f"server at {p}, outside this decomposition")


# -- recursive construction over separation trees ---------------------------


def compose_f(f_inner: Callable[[int], object]) -> Callable[[int], float]:
    """Competitive function of a shell built on blocks with function f_inner."""
    def f(ell: int) -> float:
        return float(f_inner(ell)) * (6.0 * math.log(ell) + 8.0)
    return f


class ShellSubroutine:
    """Adapter running a nested shell as the subroutine of the level above.

    `reset` restarts the nested shell at the new configuration (fresh phase,
    fresh marks), with an instance seed drawn from this adapter's own stream
    so the whole tree replays deterministically per seed.

    A restart is lazy.  A reset to two or more points checks the
    configuration as `BlockShell` would, with the same errors, and keeps it
    pending: `config` answers with the pending set and `held` with its
    size, and the shell is built on the first `serve` or `serve_all`, or a
    read of `shell`.  A jump or a phase end above restarts subtrees that are
    often restarted again before they serve, and those shells are never
    built.  The stream, too, is created with the first build.  Each nonempty
    reset counts its 64-bit draw, and the build takes the counted draws with
    one `getrandbits`, so every instance seed is the one an adapter that
    drew at each reset would draw.  `rng` reads the stream in that state,
    creating it if need be.

    A reset to a single point builds no shell either: the adapter checks
    the point alone (`_check_servers`; the plan checked the separation when
    it was built), keeps it, and `serve(r)` moves it to r at `dist[p][r]`.
    This is the shell's own outcome, by induction on the height.  With one
    server each random choice of the shell has one option: the only
    occupied block donates (after at most one phase end), its one server
    moves, and r is free.  A request inside the server's block costs `dist`, as one-server
    marking pays `d` per miss.  The reset still counts its draw, so every
    later build gets the same seed; the draws the skipped shell would make
    come from its private streams, which nothing else reads.  A parent
    shell makes the same move on `point` in its own loop
    (`BlockShell.serve_all`), with no call.  Nested shells emit no events:
    a run's event sink is its root `BlockShell`'s.
    """

    def __init__(self, plan: NodePlan, seed: int):
        self._plan = plan
        self._seed = check_int("seed", seed)
        self._rng: Optional[random.Random] = None  # created by `_stream`
        self._owed = 0  # draws counted by resets and not taken from the stream
        # at most one of these is set; none while holding no servers
        self._shell: Optional[BlockShell] = None
        self._pending: Optional[frozenset] = None  # a checked start, not built
        self.point: Optional[PointId] = None  # the one server, when no shell runs
        self._pending_seed = 0  # the pending shell's draw, once `_stream` took it

    def _stream(self) -> random.Random:
        """The stream with every counted draw taken; the last one seeds the
        pending shell, if any."""
        rng = self._rng
        if rng is None:
            # the 64-bit draw that follows one unused draw per block, so
            # that nested seeds replay unchanged
            m = len(self._plan.subs)
            rng = self._rng = random.Random(
                random.Random(self._seed).getrandbits(64 * (m + 1)) >> (64 * m))
        owed = self._owed
        if owed:
            self._owed = 0
            # the owed draws in order, the first in the low bits: the top 64
            # bits are the last reset's draw
            self._pending_seed = rng.getrandbits(64 * owed) >> (64 * (owed - 1))
        return rng

    def _build(self) -> BlockShell:
        """Build the pending shell."""
        self._stream()
        cfg, self._pending = self._pending, None
        shell = self._shell = BlockShell(self._plan, len(cfg), cfg, self._pending_seed)
        return shell

    def reset(self, config: Iterable[PointId]) -> None:
        """Restart at `config`: a single point is tested by `_check_servers`
        and kept, two or more by `_check_start` and kept pending.  Neither
        calls `check_point` on a valid configuration."""
        cfg = frozenset(config)
        self._shell = self._pending = self.point = None
        if not cfg:
            return
        self._owed += 1
        if len(cfg) == 1:
            _check_servers(self._plan.dec, cfg)
            (self.point,) = cfg
        else:
            _check_start(self._plan.dec, cfg)
            self._pending = cfg

    def serve(self, r: PointId) -> int:
        p = self.point
        if p is not None:
            # a parent shell moves the point itself; this path serves a
            # caller that holds the adapter, whose point it has not tested
            if type(r) is not int or r not in self._plan.dec.block_of:
                self._plan.metric.check_point(r)
                raise ValueError(f"request {r} outside this decomposition")
            self.point = r
            return self._plan.metric.dist[p][r]
        shell = self.shell
        if shell is None:
            raise RuntimeError("subtree holds no servers; caller must jump one in first")
        return shell.serve(r)

    def serve_all(self, requests: Iterable[PointId]) -> int:
        shell = self.shell
        if shell is None:
            return sum(map(self.serve, requests))
        return shell.serve_all(requests)

    @property
    def shell(self) -> Optional[BlockShell]:
        """The nested shell, built now if pending; None while the adapter
        holds no servers or one point."""
        if self._pending is not None:
            return self._build()
        return self._shell

    @property
    def rng(self) -> random.Random:
        """The adapter's stream, as if each nonempty reset had taken its
        draw; reading it creates the stream if no shell was built yet."""
        return self._stream()

    @property
    def held(self) -> int:
        """The servers held, in O(1); a live shell checks its own count."""
        if self.point is not None:
            return 1
        if self._pending is not None:
            return len(self._pending)
        return 0 if self._shell is None else self._shell.k

    @property
    def config(self) -> frozenset:
        if self.point is not None:
            return frozenset((self.point,))
        if self._pending is not None:
            return self._pending
        return frozenset() if self._shell is None else self._shell.positions


def check_hst_admissible(space: HstSpace, k: int) -> None:
    """The tree ratio must dominate the server count or the maximum degree."""
    if space.height >= 2 and space.mu < k and space.mu < space.max_degree():
        raise ValueError(
            f"mu={space.mu} below both k={k} and max degree {space.max_degree()}"
        )


def node_decompositions(space: HstSpace) -> dict[int, Decomposition]:
    """Decomposition at every internal node, computed once and shared."""
    return {v: decompose(space, v) for v in space.internal_nodes()}


def tree_plan(space: HstSpace) -> Union[NodePlan, Universe]:
    """Plan of the algorithm on the whole tree, built in one walk up from the
    parents of leaves: marking on the leaves under each of those, a shell on
    the child blocks of every node above.  A tree taller than
    `PLAN_MAX_HEIGHT` is refused first."""
    if space.height > PLAN_MAX_HEIGHT:
        raise ValueError(f"tree height {space.height} is above the {PLAN_MAX_HEIGHT} "
                         f"levels a plan may have")
    decs = node_decompositions(space)
    plans: dict[int, Union[NodePlan, Universe]] = {}
    for v in sorted(decs, reverse=True):  # a child's id exceeds its parent's
        children = space.children[v]
        if all(space.is_leaf(c) for c in children):
            # the leaves under a parent of leaves sit at its Delta from each
            # other (a single leaf has Delta 0)
            plans[v] = Universe._trusted(space.leaf_metric, decs[v].points, decs[v].price)
        else:
            plans[v] = NodePlan(decs[v], tuple(plans[c] for c in children))
    return plans[0]

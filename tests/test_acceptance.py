"""Acceptance suite: one test per exit criterion.

Each test prints a single verdict line (run pytest with -s to see them all
even on success).  Expected full-suite runtime is a few minutes; the two
criteria with explicit budgets assert their own elapsed time.
"""

import itertools
import math
import statistics
import time
from fractions import Fraction

import pytest

from ksim.cli import main as cli_main
from ksim.generators import GeneratorSpec
from ksim.harness import probe_demand_monotonicity, run_trials
from ksim.marking import marking_f
from ksim.metric import FiniteMetric, build_hst, build_uniform
from ksim.offline import INF, demand, opt_cost, opt_cost_exhaustive
from ksim.verify import (ama_within_hard_limit, run_ama_suite,
                         run_contract_suite, run_lower_bound_suite)


def _verdict(num: int, desc: str, passed: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    line = f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} {desc}{tail}"
    print("\n" + line, flush=True)
    assert passed, line


# -- shared heavy fixtures ----------------------------------------------------


@pytest.fixture(scope="module")
def lower_bound_result():
    return run_lower_bound_suite(runs_per_instance=100, base_seed=515)


@pytest.fixture(scope="module")
def ama_result():
    return run_ama_suite(seeds=2000, base_seed=99)


@pytest.fixture(scope="module")
def envelope_result():
    out = {}
    for k, branching in ((3, [3, 4]), (4, [4, 4])):
        space = build_hst(branching, k)
        for horizon in (50, 100, 200):
            gen = GeneratorSpec("block_sweep", horizon, seed=1000 + k,
                                params={"width": 3, "passes": 3})
            reports = run_trials(space, k, "algox", gen, trials=2000, base_seed=7)
            ratios = [float(r.ratio) for r in reports]
            adjusted = [r.adjusted_ratio for r in reports]
            mean_adj = statistics.mean(adjusted)
            if len(set(adjusted)) > 1:
                stderr_adj = statistics.stdev(adjusted) / math.sqrt(len(adjusted))
            else:
                stderr_adj = 0.0
            denom = math.log(k) * float(marking_f(k))
            out[(k, horizon)] = {
                "mean_ratio": statistics.mean(ratios),
                "mean_adjusted": mean_adj,
                "stderr_adjusted": stderr_adj,
                "chat_raw": statistics.mean(ratios) / denom,
                "chat_adjusted": mean_adj / denom,
                "phases_total": sum(r.phases - 1 for r in reports),
            }
    return out


@pytest.fixture(scope="module")
def growth_result():
    k = 3
    cases = {
        1: (build_hst([4], 3), "marking",
            GeneratorSpec("phase_stress", 60, seed=31, params={"width": 4})),
        2: (build_hst([3, 4], 3), "algox",
            GeneratorSpec("block_sweep", 60, seed=32, params={"width": 3, "passes": 3})),
        3: (build_hst([2, 2, 3], 3), "algox",
            GeneratorSpec("block_sweep", 60, seed=33, params={"width": 3, "passes": 3})),
    }
    out = {}
    for h, (space, algo, gen) in cases.items():
        reports = run_trials(space, k, algo, gen, trials=500, base_seed=17)
        out[h] = {
            "mean_ratio": statistics.mean(float(r.ratio) for r in reports),
            "phases_total": sum(max(0, r.phases - 1) for r in reports),
        }
    return out


# -- criteria -----------------------------------------------------------------


def test_criterion_01_offline_oracle_equivalence():
    metrics = {
        "uniform": build_uniform(4, 1),
        "path": FiniteMetric([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]),
        "tree": build_hst([2, 2], 2).leaf_metric,
    }
    t0 = time.time()
    pairs = 0
    for name, metric in metrics.items():
        for length in range(0, 7):
            for seq in itertools.product(range(4), repeat=length):
                rho = list(seq)
                for ell in range(0, 4):
                    a = opt_cost(metric, ell, rho).cost
                    b = opt_cost_exhaustive(metric, ell, rho).cost
                    assert a == b, (name, ell, rho, a, b)
                    pairs += 1
    elapsed = time.time() - t0
    _verdict(1, "offline optimum equals the exhaustive oracle on every "
                "instance with n=4, ell<=3, len<=6 over 3 metrics",
             elapsed < 60.0, f"{pairs} instance pairs, {elapsed:.1f}s")


def test_criterion_02_demand_definition_fidelity():
    u2 = build_uniform(2, 1)
    assert demand(u2, 10, [0, 1, 0, 1]) == 1
    assert demand(u2, 2, [0, 1, 0, 1]) == 2

    import random as _random
    rng = _random.Random(22)
    checked = 0
    while checked < 100:
        n = rng.randint(2, 4)
        w = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w[i][j] = w[j][i] = rng.randint(1, 9)
        for a in range(n):
            for i in range(n):
                for j in range(n):
                    if w[i][a] + w[a][j] < w[i][j]:
                        w[i][j] = w[i][a] + w[a][j]
        metric = FiniteMetric(w)
        delta = Fraction(rng.randint(1, 12), rng.choice([1, 2, 3]))
        rho = [rng.randrange(n) for _ in range(rng.randint(1, 8))]
        # independent recomputation: direct argmin over the solver's costs
        best_val, best_ell = None, 0
        for ell in range(0, n + 1):
            c = opt_cost(metric, ell, rho).cost
            if c == INF:
                continue
            val = c + ell * delta
            if best_val is None or val < best_val:
                best_val, best_ell = val, ell
        assert demand(metric, delta, rho) == best_ell, (w, delta, rho)
        checked += 1
    _verdict(2, "demand matches its defining argmin exactly",
             True, "2 pinned examples + 100 randomized instances")


def test_criterion_03_deterministic_lower_bounds(lower_bound_result):
    reports, ok = lower_bound_result
    hard = [r for r in reports if not r.advisory]
    runs = len([r for r in reports if r.name == "lower_bound_mp"])
    violations = [r for r in hard if not r.passed]
    _verdict(3, "offline lower bounds hold on every seeded run",
             ok and runs >= 500 and not violations,
             f"{runs} runs over 6 desk instances, {len(hard)} exact checks, "
             f"{len(violations)} violations")


def test_criterion_04_marking_guarantee():
    t0 = time.time()
    reports, ok = run_contract_suite(ks=(3, 4), seeds=2000, base_seed=7,
                                     include_composed=False)
    elapsed = time.time() - t0
    detail = ", ".join(
        f"k={r.context['k']}: mean {r.context['mean']:.1f} <= bound {r.context['bound']:.1f}"
        for r in reports)
    _verdict(4, "marking expected cost within its competitive bound "
                "on adversarial cycles (2000 seeds, 3 sigma)",
             ok and elapsed < 300.0, detail + f", {elapsed:.0f}s")


def test_criterion_05_jump_cost_bound(ama_result):
    reports, hard_ok = ama_result
    soft_fail = [r for r in reports if not r.passed and not r.advisory]
    consts = {}
    for r in reports:
        k = r.context["k"]
        consts.setdefault(k, []).append(r.context["measured_constant"])
    detail = "; ".join(
        f"k={k}: max measured constant {max(v):.3f} vs ln k = {math.log(k):.3f}"
        for k, v in sorted(consts.items()))
    if soft_fail:
        detail += f"; {len(soft_fail)} phase(s) above the 3-sigma bound (reported)"
    _verdict(5, "per-phase jump cost within the matching bound "
                "(hard limit 3x)", hard_ok, detail)


def test_criterion_06_envelope_flat_in_horizon(envelope_result):
    horizons = (50, 100, 200)
    details = []
    ok = True
    for k in (3, 4):
        stats = {h: envelope_result[(k, h)] for h in horizons}
        for h in horizons:
            s = stats[h]
            ok = ok and math.isfinite(s["mean_adjusted"])
            ok = ok and s["stderr_adjusted"] < 0.05 * abs(s["mean_adjusted"])
        # flat-in-horizon: the implied constant must not grow by more than 10%.
        # The additive term swamps desk-scale costs, so the adjusted constant
        # is negative here; percentage growth is only meaningful on the raw
        # constant (the additive term is horizon-independent either way).
        if all(stats[h]["chat_adjusted"] > 0 for h in horizons):
            key = "chat_adjusted"
        else:
            key = "chat_raw"
        base = stats[50][key]
        for h in (100, 200):
            ok = ok and stats[h][key] <= 1.10 * base + 1e-12
        details.append(f"k={k}: chat_raw " +
                       "/".join(f"{stats[h]['chat_raw']:.3f}" for h in horizons) +
                       f", adj mean {stats[200]['mean_adjusted']:.2f}")
    _verdict(6, "measured competitive constant finite, stable, and flat "
                "across horizons 50/100/200 (2000 trials)", ok, "; ".join(details))


def test_criterion_07_growth_per_level(growth_result):
    k = 3
    r1 = growth_result[1]["mean_ratio"]
    c1 = r1 / math.log(k)
    ok = True
    details = [f"h=1: ratio {r1:.3f} fits c1={c1:.3f}"]
    for h in (2, 3):
        measured = growth_result[h]["mean_ratio"]
        bound = 1.25 * (c1 * math.log(k)) ** h
        ok = ok and measured <= bound
        details.append(f"h={h}: {measured:.3f} <= {bound:.3f}")
    _verdict(7, "height growth stays inside the per-level multiplicative "
                "envelope (25% slack)", ok, ", ".join(details))


def test_criterion_08_sandwich_invariant(lower_bound_result, envelope_result,
                                         growth_result):
    # the end-of-phase count/demand sandwich (counts equal peaks, with the
    # trigger's block one short) is asserted inside the shell at every
    # phase end; any violation raises and would have failed the fixtures.
    # Here: confirm a substantial number of phase ends ran.
    reports, _ = lower_bound_result
    ends = len([r for r in reports if r.name == "phase_cost_delta"])
    ends += sum(v["phases_total"] for v in envelope_result.values())
    ends += sum(v["phases_total"] for v in growth_result.values())
    _verdict(8, "count/demand sandwich held at every phase end",
             ends >= 500, f"{ends} phase ends checked, zero violations")


def test_criterion_09_bench_reproducibility(tmp_path):
    tree = tmp_path / "tree.txt"
    tree.write_text("mu 3\nbranching 3 4\n")
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = cli_main(["bench", "--hst", str(tree), "--k", "3",
                       "--gen", "block_sweep:width=3", "--trials", "50",
                       "--length", "60", "--seed", "123", "--out", str(out)])
        assert rc == 0
        outputs.append(out.read_bytes())
    _verdict(9, "identical bench invocations produce byte-identical CSV",
             outputs[0] == outputs[1], f"{len(outputs[0])} bytes")


def test_criterion_10_demand_probe():
    summary = probe_demand_monotonicity(build_uniform(3, 1), 2, max_len=6)
    well_formed = (
        summary.sequences == 3 + 9 + 27 + 81 + 243 + 729
        and (summary.decreases == 0 or summary.decrease_witness is not None)
        and (summary.max_step <= 1 or summary.big_step_witness is not None)
    )
    _verdict(10, "exhaustive prefix-demand probe over all length<=6 "
                 "sequences on 3 uniform points",
             well_formed, f"Delta=2: {summary.verdict}")

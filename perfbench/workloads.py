"""Benchmark workloads: inputs made from a seed, the measured call, and the
checks on its output.  Why each workload exists is recorded in README.md.

Only ksim's public API is called.  The seed fixes every input the program
sees (generator seeds and trial base seeds); the program is never told
which workload it is running.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

from ksim import generators, harness, metric, shell, verify

DEFAULT_SEED = 1


def csv_rows(text: str) -> list[str]:
    """The data rows of a rendered CSV (header and final newline dropped)."""
    return text.split("\n")[1:-1]


class OutputCheck:
    """Rows attempted and failed against a reference CSV.

    A row fails when the workload's own check rejects it or it differs from
    the reference row; missing and extra rows fail, and every row fails when
    the header or the final newline differs.
    """

    def __init__(self, reference: str | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def add(self, text: str, ok: list[bool]) -> None:
        if self.reference is None:
            self.reference = text
        ref, got = csv_rows(self.reference), csv_rows(text)
        framed = (text.split("\n", 1)[0] == self.reference.split("\n", 1)[0]
                  and text.endswith("\n") == self.reference.endswith("\n"))
        n = max(len(ref), len(got))
        self.attempted += n
        self.failed += sum(
            1 for i in range(n)
            if not (framed and i < len(ref) and i < len(got) and got[i] == ref[i] and ok[i]))

    def add_error(self) -> None:
        n = len(csv_rows(self.reference)) if self.reference else 1
        self.attempted += n
        self.failed += n


def _seed_stream(name: str, seed: int) -> random.Random:
    # a str seed is hashed with sha512, so the stream is the same in every process
    return random.Random(f"{name}:{seed}")


class BenchWorkload:
    """A `ksim bench` batch: one `run_trials` of algox per generated
    sequence, all rows rendered by one `reports_to_csv`.  A trial is one
    `run_shell`.  A trial's cost depends mostly on its sequence, so a batch
    spreads its trials over several sequences rather than one draw."""

    trial_start = trial_end = "harness.run_shell"
    solver = "offline.opt_cost"
    row_kind = "trials"

    def __init__(self, name: str, branching: tuple, mu: int, k: int,
                 length: int, sequences: int, trials: int):
        self.name = name
        self.branching = branching
        self.mu = mu
        self.k = k
        self.length = length
        self.sequences = sequences
        self.trials = trials

    def setup(self, seed: int):
        rng = _seed_stream(self.name, seed)
        space = metric.build_hst(self.branching, self.mu)
        shell.node_decompositions(space)
        runs = []
        for _ in range(self.sequences):
            spec = generators.GeneratorSpec("uniform_random", self.length,
                                            seed=rng.randrange(2 ** 31))
            generators.generate(spec, space)
            runs.append((spec, rng.randrange(2 ** 31)))
        return space, runs

    def requests(self, inputs) -> int:
        return self.sequences * self.trials * self.length

    def run(self, inputs):
        space, runs = inputs
        return [report for spec, base_seed in runs
                for report in harness.run_trials(space, self.k, "algox", spec,
                                                 self.trials, base_seed)]

    def render(self, reports) -> str:
        return harness.reports_to_csv(reports)

    def rows_ok(self, text: str, inputs) -> list[bool]:
        """Per CSV row: the costs add up, the online total is at least the
        offline optimum, and the ratio is total/opt by the CSV conventions."""
        space, runs = inputs
        has_opt = harness.solver_guard_ok(space.n_leaves, self.k, self.length)
        seeds = [base_seed ^ i for _, base_seed in runs for i in range(self.trials)]
        return [i < len(seeds) and _bench_row_ok(row, seeds[i], has_opt)
                for i, row in enumerate(csv_rows(text))]


def _bench_row_ok(row: str, seed: int, has_opt: bool) -> bool:
    fields = row.split(",")
    if len(fields) != 8:
        return False
    try:
        total, inner, jump = (Fraction(v) for v in fields[1:4])
        ok = (int(fields[0]) == seed and total == inner + jump
              and inner >= 0 and jump >= 0
              and int(fields[6]) >= 1 and int(fields[7]) >= 0)
        opt, ratio = fields[4], fields[5]
        if opt == "na":
            return ok and not has_opt and ratio == "na"
        opt = Fraction(opt)
        if opt == 0:
            expected = "1" if total == 0 else "inf"
        else:
            expected = str(total / opt)
        return ok and has_opt and opt <= total and ratio == expected
    except ValueError:
        return False


class VerifyWorkload:
    """`run_lower_bound_suite` over the six `desk_instances` shapes, once per
    suite seed, all rows rendered by one `checks_to_csv`.  A trial is one
    seeded `run_shell` plus its `deterministic_checks`.  Each suite draws
    its own generator seeds, so the random-sequence shapes are not timed on
    a single sequence."""

    trial_start = "harness.run_shell"
    trial_end = "verify.deterministic_checks"
    solver = "offline.opt_cost"
    row_kind = "checks"

    def __init__(self, name: str, suites: int, runs_per_instance: int):
        self.name = name
        self.suites = suites
        self.runs = runs_per_instance

    def setup(self, seed: int):
        rng = _seed_stream(self.name, seed)
        suites = []
        for _ in range(self.suites):
            instances = [replace(inst, gen=replace(inst.gen, seed=rng.randrange(2 ** 31)))
                         for inst in verify.desk_instances()]
            suites.append((instances, rng.randrange(2 ** 31)))
        return suites

    def requests(self, inputs) -> int:
        # desk generators (uniform_random, block_sweep) emit exactly `length`
        return self.runs * sum(inst.gen.length for instances, _ in inputs
                               for inst in instances)

    def run(self, inputs):
        return [report for instances, base_seed in inputs
                for report in verify.run_lower_bound_suite(
                    instances, runs_per_instance=self.runs, base_seed=base_seed)[0]]

    def render(self, reports) -> str:
        return verify.checks_to_csv(reports)

    def rows_ok(self, text: str, inputs) -> list[bool]:
        # the verdict column; the suite's one advisory check may fail
        out = []
        for row in csv_rows(text):
            fields = row.split(",")
            out.append(len(fields) == 7 and (fields[5] == "1" or fields[0] == "jumps_at_most_k"))
        return out


WORKLOADS = {
    "h3_random": BenchWorkload("h3_random", (3, 3, 3), 3, 3, length=200,
                               sequences=24, trials=8),
    "wide_8x8": BenchWorkload("wide_8x8", (8, 8), 8, 8, length=500,
                              sequences=100, trials=1),
    "verify_lower": VerifyWorkload("verify_lower", suites=16, runs_per_instance=5),
}

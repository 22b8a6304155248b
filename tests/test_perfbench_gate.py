"""The benchmark's output gate, run as the benchmark runs it: each workload's
fixed batch at seed 1 in a fresh worker process must pass its own row checks
and render the pinned golden CSV."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of perfbench/golden/<workload>.csv
DIGESTS = {
    "h3_random": "f505075397cffb686266e984c7b918b4c7013cf50d1c9a29e2204fef9a8c6c1a",
    "wide_8x8": "e6a1a87539813539a6026af9270824b18b3a62f7b420abbd05017f7463320855",
    "verify_lower": "473d53a83130e28382a6072b9df201e01110834577db1a0c6552c9356f6d515f",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_fixed_batch_matches_golden(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload,
         "--seed", "1", "--mode", "fixed"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["digest"] == DIGESTS[workload]

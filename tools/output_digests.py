"""Print the sha256 of every output of `ksim run --events` and `ksim bench`
over a fixed matrix of trees, generators and seeds, one `name digest` line
per output.

    python3 tools/output_digests.py

Two checkouts that print the same lines write the same bytes on the whole
matrix, so comparing two commits is one `diff` of this tool's output in
each.  It calls `ksim.cli.main` in-process on the `src` directory beside
it, in a temporary directory that it removes afterwards; a command that
exits nonzero stops it with that command's arguments.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ksim.cli import main as ksim  # noqa: E402

# (branching, mu, k)
TREES = [((3, 3, 3), "3", 3), ((4, 4), "4", 4), ((2, 2, 3), "7/2", 3),
         ((2, 2, 2, 2), "2", 2), ((8, 8), "8", 8), ((3, 1, 1), "3", 2),
         ((2, 1, 3, 2), "5/2", 2)]
SEEDS = (0, 7)
# (command, generator, length, the file option it writes)
COMMANDS = [("run", "uniform_random", 300, "--events"),
            ("run", "block_sweep:width=3", 200, "--events"),
            ("bench", "uniform_random", 300, "--out"),
            ("bench", "phase_stress:block=1,width=3", 200, "--out")]


def entries():
    """(name, tree file text, argv, output file) of every matrix entry, in a
    fixed order; the argv reads the tree from `tree.txt`."""
    for branching, mu, k in TREES:
        tree = f"{'_'.join(map(str, branching))}_mu{mu.replace('/', '_')}_k{k}"
        text = f"mu {mu}\nbranching {' '.join(map(str, branching))}\n"
        for command, gen, length, option in COMMANDS:
            for seed in SEEDS:
                name = f"{tree}.{command}.{gen.split(':')[0]}.s{seed}"
                output = "events.log" if command == "run" else "out.csv"
                argv = [command, "--hst", "tree.txt", "--k", str(k), "--gen", gen,
                        "--seed", str(seed), "--length", str(length), option, output]
                if command == "bench":
                    argv += ["--trials", "3"]
                yield name, text, argv, output


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text, args, output in entries():
                Path("tree.txt").write_text(text, encoding="utf-8")
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = ksim(args)
                if code:
                    sys.exit(f"ksim {' '.join(args)} exited {code}")
                print(f"{name}.stdout {digest(stdout.getvalue().encode())}")
                print(f"{name}.{output.split('.')[-1]} {digest(Path(output).read_bytes())}")
                Path(output).unlink()
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())

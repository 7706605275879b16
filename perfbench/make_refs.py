"""Write the committed reference outputs of the correctness gate.

    python3 perfbench/make_refs.py

Runs one op of each workload kind, at one thread, for the default seed
and the held-out seed, and stores its exit code and rows under
``perfbench/refs/``. Rerun only when a change to anhgas is meant to
change its outputs, and say so where the change is described.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import gate
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
SEEDS = (1, 2)          # the default seed and the held-out seed
KINDS = {"verify": "verify-cold", "quantum": "quantum-sweep",
         "classical": "classical-sweep"}


def main() -> int:
    sys.path.insert(0, str(SRC))
    import anhgas.cli as cli

    tmp = Path(tempfile.mkdtemp(prefix="anhgas-refs-"))
    try:
        for seed in SEEDS:
            for kind, name in KINDS.items():
                inputs = workloads.generate(workloads.WORKLOADS[name], seed, tmp)
                out = tmp / f"{kind}-{seed}"
                code = workloads.run_in_process(cli, inputs["argv"] + ["--out", str(out)])
                path = gate.write_reference(kind, seed, code, gate.read_table(kind, out))
                print(f"{path}: exit {code}")
    finally:
        shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())

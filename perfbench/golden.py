"""Regenerate golden.json: exact invariants of each workload's ops at the
default seed (optimal value, attained level, case, and the support
of the least favorable weights, or the value alone for sweep-bits).

    python3 perfbench/golden.py

Only rerun this when the generators change; the invariants are properties
of the problems, so a correct solver never changes them.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> None:
    golden = {}
    workdir = Path(tempfile.mkdtemp(prefix="_work-", dir=HERE))
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(workloads.DEFAULT_SEED, workdir)
            wl.prepare()
            wl.setup()
            golden[name] = [wl.check(op, wl.run(op)) for op in wl.ops]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = []
    for name, rows in golden.items():
        body = ",\n".join("  " + json.dumps(row) for row in rows)
        lines.append(f"{json.dumps(name)}: [\n{body}\n]")
    workloads.GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()

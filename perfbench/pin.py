"""Rewrite expected.json: the output of every corpus item at this commit.

    python3 perfbench/pin.py

Seeded items are not pinned; they are checked by identities only.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    pins = {}
    workdir = run.make_workdir(f"pin-{os.getpid()}")
    try:
        for name, build in workloads.WORKLOADS.items():
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            gk = run.import_golodkit()
            wl = build(gk, run.DEFAULT_SEED, workdir)
            pins[name] = {it.name: it.signature(it.run()) for it in wl.items if not it.seeded}
            print(f"{name}: {len(pins[name])} pinned", file=sys.stderr)
    finally:
        run.drop_workdir(workdir)
    (run.HERE / "expected.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

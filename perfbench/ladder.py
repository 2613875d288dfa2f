"""Time the single commands of the ROADMAP item-1 ladder, once each.

    PYTHONPATH=src python3 perfbench/ladder.py

Each command runs in this process through cellspan.cli.main with its
output captured, builds its complex afresh, and prints its wall time and
exit code.  It takes about four minutes; `spectrum cube:7 --dim 2` alone
is well over a minute.  `verify shifted` exits 4 by design: its
mirror-matroid-nonintegral row fails.
"""

from __future__ import annotations

import time

from cellspan.cli import main

from worker import call_cli

LADDER = (
    "verify engines",
    "verify identities",
    "verify shifted",
    "spectrum --input cube:6 --dim 3",
    "spectrum --input cube:7 --dim 3",
    "spectrum --input cube:7 --dim 2",
    "trees --input cube:6 --k 3",
    "homology --input cube:7",
)

if __name__ == "__main__":
    for cmd in LADDER:
        t0 = time.perf_counter()
        code, _ = call_cli(main, cmd.split())
        print(f"{time.perf_counter() - t0:8.2f} s  exit {code}  {cmd}", flush=True)

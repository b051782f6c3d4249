"""Correctness sweep: the benchmark's own checks over many seeds and blocks, untimed.

    python3 tools/sweep.py --workload sampled_grid --seeds 1-40 --blocks 0-5

Each block is built, sent and checked exactly as ``perfbench/run.py`` does
it, through its ``Run`` class and ``perfbench/checks.py`` (in process, one
BLAS thread), and a request fails by the same rule as there: a problem, or
a value outside its tolerance in a class with no known miss.  Nothing is
timed.  A benchmark run reaches only the blocks its speed allows in
``--seconds``, so a fault in a later block shows only once the program gets
faster; this sweep reaches every block asked for.

Prints each failing request by id and class, and two lines per seed: the
counts, and the minimum correct digits over each block's checked values (the
floor that ``accuracy_digits`` reads when a run reaches that block).  Exits 1
if any request failed.  ``--seeds`` and ``--blocks`` take ranges ``a-b``
(inclusive) or comma lists.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import run as bench  # noqa: E402  (sets one BLAS thread before numpy loads)
import workloads  # noqa: E402


def _ints(text: str) -> list:
    """``"1-40"`` or ``"0,2,5"`` as a list of integers."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _block_digits(block_rows) -> str:
    """Each block's minimum checked digits, as ``block:digits`` pairs."""
    return " ".join(f"{b}:{min(bench._summary(rows)[2], default=math.nan):.4f}"
                    for b, rows in block_rows)


def sweep(cli, workload: str, seeds, blocks, log=print) -> list:
    """Run and check every block; returns the failed rows."""
    failed = []
    for seed in seeds:
        run = bench.Run(cli, workload, seed)
        try:
            block_rows = [(b, run.execute(b)[1]) for b in blocks]
        finally:
            run.cleanup()
        rows = [r for _, rs in block_rows for r in rs]
        bad, known, _ = bench._summary(rows)
        for row in bad:
            oc = row["outcome"]
            log(f"FAILED {row['req'].id} [{row['req'].cls}]: " + "; ".join(oc.problems + oc.misses))
        log(f"seed {seed}: {len(rows)} requests, {len(bad)} failed, {len(known)} known misses")
        log(f"seed {seed} min digits by block: {_block_digits(block_rows)}")
        failed.extend(bad)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", required=True, type=_ints)
    parser.add_argument("--blocks", default="0-1", type=_ints)
    args = parser.parse_args(argv)
    failed = sweep(bench._import_cli(), args.workload, args.seeds, args.blocks)
    print(f"{len(failed)} failed requests on {args.workload}: "
          f"{len(args.seeds)} seeds x {len(args.blocks)} blocks")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

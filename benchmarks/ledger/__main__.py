"""The whole ledger in one command: ``python -m benchmarks.ledger --seed N``.

Runs every workload for five untraced passes, interleaved across workloads,
then one traced pass per workload.  Prints every metric by name with its
unit, per workload, checks every operation's outputs, and with ``--out``
writes a results file that ``python -m benchmarks.ledger.compare`` reads.
Exit status is non-zero if any operation failed its checks.

``--smoke`` is the quick self-check tier-1 runs: one pass, about a tenth of
the sizes, children run side by side (its timings mean nothing).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, List, Optional

from benchmarks.ledger import ledger

#: Untraced passes per workload, and timed seconds of every pass.
PASSES = 5
PASS_SECONDS = 7.0


def run_smoke(seed: int, spans_dir: Optional[str] = None) -> Dict[str, Dict[str, Any]]:
    """``--smoke``: one pass at a tenth of the sizes, children side by side."""
    return ledger.run_ledger(
        ledger.workload_names(), seed, untraced=1, traced=1, seconds=0.1, scale=0.1,
        jobs=os.cpu_count() or 1, spans_dir=spans_dir,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="write the results JSON here")
    parser.add_argument("--spans-dir", help="keep each traced pass's span file here")
    args = parser.parse_args(argv)

    if args.spans_dir:
        os.makedirs(args.spans_dir, exist_ok=True)
    if args.smoke:
        summaries = run_smoke(args.seed, args.spans_dir)
    else:
        summaries = ledger.run_ledger(
            ledger.workload_names(), args.seed, untraced=PASSES, traced=1, seconds=PASS_SECONDS,
            spans_dir=args.spans_dir,
        )
    ledger.report(summaries, args.out)
    return 0 if all(s["correct"] for s in summaries.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

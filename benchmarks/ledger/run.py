"""The benchmark command named in BENCHMARK.json.

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1``
measures one workload for ``S`` seconds and prints, as the last line of
stdout, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  ``--out`` also writes the results file that
``python -m benchmarks.ledger.compare`` reads.  Exit status is non-zero if any
operation failed its checks, or (before printing a result) if the program
under test is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

if __package__ in (None, ""):  # run as a script: make the repo root importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.ledger import ledger  # noqa: E402

#: ``--trace`` → (untraced, traced) passes, ``--seconds`` split evenly over
#: the three.  The median of three set-ups is ``setup_s``; a traced run keeps
#: one untraced pass for the tracing overhead.
PASSES = {0: (3, 0), 1: (1, 2)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ledger.workload_names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the results JSON here")
    args = parser.parse_args(argv)

    untraced, traced = PASSES[args.trace]
    summaries = ledger.run_ledger(
        [args.workload], args.seed, untraced, traced, args.seconds / (untraced + traced)
    )
    ledger.report(summaries, args.out)
    summary = summaries[args.workload]
    key = "per_layer" if args.trace else "end_to_end"
    print(
        json.dumps(
            {
                "correct": summary["correct"],
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": ledger.metrics_block(summary[key], key),
            }
        )
    )
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Compare two ledger results files: ``python -m benchmarks.ledger.compare A.json B.json``.

For every workload × end-to-end metric, B (the change) is judged against A
(the parent) with the regression bound fixed in ``BENCHMARK.json``:

* ``worse``      B's value is worse than A's by more than the bound;
* ``no-worse``   it is not;
* ``unresolved`` the pass-to-pass spread of either file is wider than the
  bound (the host was not settled while that file was measured), so a
  difference of the bound's size cannot be told from noise; unless every
  pass of B reads better than every pass of A, which is ``no-worse``.

Simulation digests and exact counters must be equal.  Exit status is 1 if
anything is ``worse`` or unequal, else 0; ``unresolved`` rows are printed
but do not fail: measure again, alternating which side runs first.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.ledger.ledger import quantile, spec


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median: one slow pass in five
    (a burst) does not count, a drift over the passes does."""
    median = quantile(values, 0.5)
    return (quantile(values, 0.75) - quantile(values, 0.25)) / abs(median) if median else 0.0


def verdict(
    a: float, b: float, a_passes: Sequence[float], b_passes: Sequence[float],
    bound: float, better: str,
) -> str:
    """``worse`` / ``no-worse`` / ``unresolved`` for one metric on one workload."""
    if better == "higher":  # negate, then lower is better throughout
        a, b = -a, -b
        a_passes, b_passes = [-x for x in a_passes], [-x for x in b_passes]
    if max(spread(a_passes), spread(b_passes)) > bound:
        return "no-worse" if max(b_passes) < min(a_passes) else "unresolved"
    return "worse" if (b - a) / abs(a) > bound else "no-worse"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Printable rows; rows that fail the comparison start with ``FAIL``."""
    rows = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            rows.append(f"FAIL {name}: missing from the second file")
            continue
        for rule in spec()["end_to_end"]:
            metric = rule["name"]
            va, vb = wa["end_to_end"][metric]["value"], wb["end_to_end"][metric]["value"]
            result = verdict(
                va, vb, wa["per_pass"][metric], wb["per_pass"][metric],
                rule["bound"], rule["better"],
            )
            rows.append(
                f"{'FAIL' if result == 'worse' else 'ok  '} {name:<11} {metric:<12} "
                f"{va:>12.4f} -> {vb:>12.4f} {rule['unit']:<4} ({100 * (vb - va) / va:+6.2f}%, "
                f"bound {100 * rule['bound']:.0f}%)  {result}"
            )
        for key in ("digest", "counters"):
            if wa[key] == wb[key]:
                rows.append(f"ok   {name:<11} {key}: identical")
            else:
                rows.append(f"FAIL {name:<11} {key}: {wa[key]} != {wb[key]}")
        if wb["ops_failed"] > wa["ops_failed"]:
            rows.append(f"FAIL {name:<11} ops_failed {wa['ops_failed']} -> {wb['ops_failed']}")
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger.compare", description=__doc__)
    parser.add_argument("parent", help="results file of the parent commit (A)")
    parser.add_argument("change", help="results file of the change (B)")
    args = parser.parse_args(argv)
    with open(args.parent, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(args.change, encoding="utf-8") as handle:
        b = json.load(handle)
    rows = compare(a, b)
    print("\n".join(rows))
    return 1 if any(row.startswith("FAIL") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two result documents of ``run.py`` against the benchmark's bounds.

    python benchmarks/e2e/compare.py BASE.json NEW.json

Prints one row per workload and end-to-end metric: the base value, the
new value, their ratio (new / base), and a verdict.  ``worse`` means the
new value is beyond the metric's regression bound from ``BENCHMARK.json``
in its bad direction, ``better`` beyond it in its good direction, ``same``
anything in between.  ``failed_fraction`` has no tolerance: any increase
is ``worse``.  Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]


def verdict(base: float, new: float, better: str, bound: float) -> str:
    """``better`` / ``same`` / ``worse`` for one metric under its bound."""
    if better == "lower":
        base, new = -base, -new
    margin = abs(base) * bound
    if new < base - margin:
        return "worse"
    if new > base + margin:
        return "better"
    return "same"


def compare(base: Dict, new: Dict, spec: Dict) -> List[Dict[str, object]]:
    """The comparison rows; a metric missing on either side is ``worse``."""
    rules = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    rules.append(("failed_fraction", "lower", 0.0))
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base["workloads"] and workload not in new["workloads"]:
            continue
        for metric, better, bound in rules:
            values: List[Optional[float]] = []
            for document in (base, new):
                cell = document["workloads"].get(workload, {}).get("metrics", {})
                values.append(cell.get(metric, {}).get("value"))
            if None in values:
                outcome, ratio = "worse", None
            else:
                outcome = verdict(values[0], values[1], better, bound)
                ratio = values[1] / values[0] if values[0] else None
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "base": values[0],
                    "new": values[1],
                    "ratio": ratio,
                    "verdict": outcome,
                }
            )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(base, new, spec)

    def shown(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:.6g}"

    print(f"{'workload':22} {'metric':16} {'base':>12} {'new':>12} {'new/base':>9}  verdict")
    for row in rows:
        print(
            f"{row['workload']:22} {row['metric']:16} {shown(row['base']):>12} "
            f"{shown(row['new']):>12} {shown(row['ratio']):>9}  {row['verdict']}"
        )
    worse = sum(row["verdict"] == "worse" for row in rows)
    print(f"{worse} of {len(rows)} rows worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

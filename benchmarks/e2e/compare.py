#!/usr/bin/env python3
"""Compare two reports of ``run.py --out``: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians, the ratio B/A
(base: A's median), each side's spread (inter-quartile distance over its
median) and a verdict against the metric's ``bound`` in
``BENCHMARK.json``:

``ok``          B's median is no worse than A's by more than the bound;
``worse``       it is worse by more than the bound;
``unresolved``  the run-to-run spread of either side is wider than the
                bound, so the medians cannot be told apart — unless every
                run of B reads better than every run of A, which is ``ok``.

Exits 1 when any row is ``worse``, 0 otherwise.  The result digests are
printed beside the rows: equal digests mean the simulated statistics are
bit-equal, so only host-dependent metrics can differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from run import declared, quartiles


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one sample)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Tuple[str, float]:
    """``(ok|worse|unresolved, share by which B's median is worse)``."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if max(spread(a), spread(b)) > bound:
        b_always_better = max(sign * v for v in b) < min(sign * v for v in a)
        return ("ok" if b_always_better else "unresolved"), worse_by
    return ("worse" if worse_by > bound else "ok"), worse_by


def compare(report_a: Mapping[str, Any], report_b: Mapping[str, Any],
            metrics: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    rows = []
    for name, entry_a in report_a["workloads"].items():
        entry_b = report_b["workloads"].get(name)
        if entry_b is None:
            continue
        for m in metrics:
            a = entry_a["samples"].get(m["name"])
            b = entry_b["samples"].get(m["name"])
            if not a or not b:
                rows.append({"workload": name, "metric": m["name"], "verdict": "worse",
                             "note": "no samples (the run failed)"})
                continue
            state, worse_by = verdict(a, b, m["better"], m["bound"])
            rows.append({
                "workload": name, "metric": m["name"], "unit": m["unit"],
                "a": statistics.median(a), "b": statistics.median(b),
                "ratio": statistics.median(b) / statistics.median(a),
                "spread_a": spread(a), "spread_b": spread(b),
                "bound": m["bound"], "worse_by": worse_by, "verdict": state,
            })
    return rows


def render(rows: Sequence[Mapping[str, Any]], report_a, report_b) -> str:
    lines = [
        f"{'workload':16s} {'metric':18s} {'A median':>12s} {'B median':>12s} "
        f"{'B/A':>7s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict"
    ]
    for r in rows:
        if "note" in r:
            lines.append(f"{r['workload']:16s} {r['metric']:18s} {r['note']}  {r['verdict']}")
            continue
        lines.append(
            f"{r['workload']:16s} {r['metric']:18s} {r['a']:12.5g} {r['b']:12.5g} "
            f"{r['ratio']:7.3f} {r['spread_a']:9.3f} {r['spread_b']:9.3f} "
            f"{r['bound']:6.2f}  {r['verdict']}"
        )
    for name, entry_a in report_a["workloads"].items():
        entry_b = report_b["workloads"].get(name, {})
        same = entry_a.get("digest") == entry_b.get("digest")
        lines.append(f"{name:16s} result digest {'equal' if same else 'DIFFERS'} "
                     f"(A stable={entry_a.get('digest_stable')}, "
                     f"B stable={entry_b.get('digest_stable')})")
    lines.append("ratios are B/A with A's median as the base; spread = (q3-q1)/median")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    report_a, report_b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    rows = compare(report_a, report_b, declared()["end_to_end"])
    print(render(rows, report_a, report_b))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

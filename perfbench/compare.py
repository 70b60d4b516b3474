"""Compare two result sets written by `run.py --save` (parent first, change second).

For each workload and end-to-end metric it prints each side's median and
quartiles, the change's median as a ratio of the parent's, the pairs the
change won, and a verdict:

- `better`: the change won at least 9 of every 10 pairs (ties count for
  neither) and its median beats the parent's by more than the parent's
  interquartile range;
- `unresolved`: the spread (IQR / median) of either side exceeds the metric's
  bound, unless every change run beats every parent run;
- `worse`: the change's median is worse than the parent's by more than the
  bound;
- `within bound`: none of the above.

Run i of the parent is paired with run i of the change for the same workload,
so alternate the two sides when collecting the files.  Traced records are
summarised as per-layer medians and ratios, without a verdict.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def _load(path: Path) -> dict[tuple[str, int], list[dict]]:
    """Results by (workload, trace), in file order."""
    runs: dict[tuple[str, int], list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault((record["workload"], record["trace"]), []).append(record["result"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], lower_is_better: bool, bound: float) -> tuple[str, int, int]:
    """The verdict for one metric plus the pairs won and the pairs compared."""

    def gain(new: float, old: float) -> float:
        return old - new if lower_is_better else new - old

    pairs = list(zip(parent, change))
    wins = sum(1 for old, new in pairs if gain(new, old) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    best_parent = min(parent) if lower_is_better else max(parent)
    worst_change = max(change) if lower_is_better else min(change)
    every_run_better = gain(worst_change, best_parent) > 0
    if pairs and wins >= 0.9 * len(pairs) and gain(c_med, p_med) > p_q3 - p_q1:
        return "better", wins, len(pairs)
    if spread > bound and not every_run_better:
        return "unresolved", wins, len(pairs)
    if -gain(c_med, p_med) / abs(p_med) > bound:
        return "worse", wins, len(pairs)
    return "within bound", wins, len(pairs)


def _failed_fraction(results: list[dict]) -> str:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return f"{failed}/{attempted}" if attempted else "-"


def _values(results: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def compare(parent_path: Path, change_path: Path, spec_path: Path) -> int:
    spec = json.loads(spec_path.read_text())
    parent, change = _load(parent_path), _load(change_path)
    for key in sorted(set(parent) | set(change)):
        workload, trace = key
        old, new = parent.get(key, []), change.get(key, [])
        print(f"\n{workload} ({'traced' if trace else 'end to end'}): "
              f"{len(old)} parent runs, {len(new)} change runs; "
              f"failed ops parent {_failed_fraction(old)}, change {_failed_fraction(new)}")
        if not (old and new):
            print("  one side has no runs; nothing to compare")
            continue
        for metric in spec["per_layer" if trace else "end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            p_vals, c_vals = _values(old, name), _values(new, name)
            if not (p_vals and c_vals):
                continue
            p_q1, p_med, p_q3 = quartiles(p_vals)
            c_q1, c_med, c_q3 = quartiles(c_vals)
            ratio = f"{c_med / p_med:.3f}x of {p_med:.4g} {unit}" if p_med else "base is 0"
            line = (f"  {name:32s} parent {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]  "
                    f"change {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]  {ratio}")
            if not trace:
                lower = metric["better"] == "lower"
                outcome, wins, pairs = verdict(p_vals, c_vals, lower, metric["bound"])
                line += f"  won {wins}/{pairs}  {outcome} (bound {metric['bound']:.0%})"
            print(line)
    return 0

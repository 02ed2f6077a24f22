"""Print layer shares from traced benchmark reports as a markdown table.

    python3 perfbench/shares.py perfbench/out/*-trace1.json

A share is a function's (or a layer's) self time divided by the mean
traced pass time, both per pass, from the report's ``result.metrics``.
"""

from __future__ import annotations

import json
import sys

COLUMNS = (
    "classify.trace_distance",
    "protocol.encode",
    "protocol.reduce_encoded",
    "analytic.missing_pair_reduced",
    "analytic.aligned_reduced",
    "classify.classify_subset",
    "analytic.leaked_words",
    "modnum",
    "pauli",
)


def main(paths: list[str]) -> int:
    print("| workload | seed | pass s | " + " | ".join(COLUMNS) + " |")
    print("|---|---|---|" + "---|" * len(COLUMNS))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        metrics = {k: v["value"] for k, v in report["result"]["metrics"].items()}
        pass_s = metrics["trace.pass_s"]
        cells = [f"{100 * metrics[col + '.self_s'] / pass_s:.1f}%" for col in COLUMNS]
        print(f"| {report['workload']} | {report['seed']} | {pass_s:.3f} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

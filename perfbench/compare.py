"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.txt CHANGE.txt

Each file holds the standard output of one or more ``run.py`` runs,
one after another.  For every workload and metric the script prints
both sides' medians and quartiles and the change relative to the base.
It refuses (exit 2) to compare runs made with different kernel
backends, or of a workload only one side ran.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(path):
    """{workload: {"backends": set, "metrics": {name: [values]}}}."""
    runs = {}
    env = None
    with open(path) as fh:
        for line in fh:
            if line.startswith("env "):
                env = json.loads(line[4:])
            elif line.startswith("{") and env is not None:
                result = json.loads(line)
                entry = runs.setdefault(
                    env["workload"], {"backends": set(), "metrics": {}}
                )
                entry["backends"].add(env["backend"])
                for name, metric in result["metrics"].items():
                    entry["metrics"].setdefault(name, []).append(metric["value"])
                env = None
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    if base.keys() != change.keys():
        print("error: the two files ran different workloads", file=sys.stderr)
        return 2
    for workload in sorted(base):
        backends = base[workload]["backends"] | change[workload]["backends"]
        if len(backends) != 1:
            print(
                f"error: {workload} ran on backends {sorted(backends)}; "
                "runs on different backends are not comparable",
                file=sys.stderr,
            )
            return 2
        print(f"{workload} (backend {backends.pop()})")
        for name, values in sorted(base[workload]["metrics"].items()):
            other = change[workload]["metrics"].get(name)
            if not other:
                continue
            b1, b2, b3 = quartiles(values)
            c1, c2, c3 = quartiles(other)
            rel = (c2 - b2) / b2 if b2 else float("nan")
            print(
                f"  {name:<34} base {b2:.6g} [{b1:.6g}, {b3:.6g}]  "
                f"change {c2:.6g} [{c1:.6g}, {c3:.6g}]  {100 * rel:+.2f}%"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

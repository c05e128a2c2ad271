"""Summarize paired perfbench runs into one BENCH_<pr>.json record.

Each input file is the captured stdout of one untraced perfbench run of one
workload (``python3 perfbench/run.py --workload W --seed S --trace 0``). Its
last line is the JSON object the benchmark gate reads; the gated metrics are
taken from there. The seed, the machine facts and the digests are taken from
the report lines perfbench prints above it.

Runs of the parent and of the change pair up by workload and seed. For every
end-to-end metric that BENCHMARK.json declares, the record holds the parent
and change medians and interquartile ranges, the number of pairs the change
won, and the relative change of the medians. It states three verdicts:

- ``claim_met``: the change won at least 9 of every 10 pairs (a tie counts
  for neither side), and its median is better than the parent's by more than
  the parent's IQR;
- ``within_bound``: the change's median is no worse than the parent's by more
  than the metric's ``bound`` in BENCHMARK.json;
- ``unresolved``: the parent's IQR exceeds ``bound`` times its median, so the
  runs spread too widely to call a change within the bound "unchanged",
  unless every change run beats every parent run.

It also holds each side's failed-operation share: the gate lines' ``failed``
over ``attempted``, summed over the paired runs. Usage:

    python3 tools/bench_record.py --pr 6 --out BENCH_6.json \\
        --parent runs/parent-*.txt --change runs/change-*.txt
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
HEADER = re.compile(r"^== (?P<workload>\S+)\s+seed=(?P<seed>-?\d+)\s+seconds=(?P<seconds>\S+)")
MACHINE = re.compile(r"(\w+)=('[^']*'|\S+)")
DIGEST = re.compile(r"^(loss_digest|output_digest)\s+sha256:(\w*)")


def parse_run(path):
    """(workload, seed, run) from one captured perfbench stdout."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty capture")
    run = {"gate": json.loads(lines[-1]), "digests": {}, "machine": {}}
    header = None
    for line in lines[:-1]:
        if header is None and (match := HEADER.match(line)):
            header = match
        elif line.startswith("machine ") and not line.startswith("machine.spin_ms"):
            run["machine"] = {k: v.strip("'") for k, v in MACHINE.findall(line)}
        elif match := DIGEST.match(line):
            run["digests"][match[1]] = match[2]
    if header is None:
        raise ValueError(f"{path}: no '== <workload> seed=<n>' report header")
    run["seconds"] = float(header["seconds"])
    return header["workload"], int(header["seed"]), run


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "iqr": float(q3 - q1), "values": list(map(float, values))}


def failed_share(runs):
    """``failed`` over ``attempted`` of the runs' gate lines, with both sums."""
    failed = sum(run["gate"]["failed"] for run in runs)
    attempted = sum(run["gate"]["attempted"] for run in runs)
    return {"share": failed / attempted if attempted else 0.0, "failed": failed, "attempted": attempted}


def summarize(parent_runs, change_runs, declared):
    """Per-workload medians, IQRs, wins and digest agreement over paired seeds."""
    workloads = {}
    for workload in sorted({w for w, _ in parent_runs} | {w for w, _ in change_runs}):
        seeds = sorted(s for w, s in parent_runs if w == workload and (w, s) in change_runs)
        if not seeds:
            continue
        pairs = [(parent_runs[workload, s], change_runs[workload, s]) for s in seeds]
        metrics = {}
        for name, unit, lower_is_better, bound in declared:
            try:
                parent = [p["gate"]["metrics"][name]["value"] for p, _ in pairs]
                change = [c["gate"]["metrics"][name]["value"] for _, c in pairs]
            except KeyError:
                continue
            sign = 1.0 if lower_is_better else -1.0
            wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
            p_stats, c_stats = quartiles(parent), quartiles(change)
            gain = sign * (p_stats["median"] - c_stats["median"])
            relative = c_stats["median"] / p_stats["median"] - 1.0
            metrics[name] = {
                "unit": unit,
                "better": "lower" if lower_is_better else "higher",
                "parent": p_stats,
                "change": c_stats,
                "change_wins": int(wins),
                "median_change": relative,
                "claim_met": bool(10 * wins >= 9 * len(pairs) and gain > p_stats["iqr"]),
                "within_bound": bool(sign * relative <= bound),
                "unresolved": bool(
                    p_stats["iqr"] > bound * p_stats["median"]
                    and not all(sign * (c - p) < 0 for p in parent for c in change)
                ),
            }
        workloads[workload] = {
            "pairs": len(pairs),
            "seeds": seeds,
            "correct": all(p["gate"]["correct"] and c["gate"]["correct"] for p, c in pairs),
            "digests_identical": all(p["digests"] == c["digests"] for p, c in pairs),
            "digests": {str(s): p["digests"] for s, (p, _) in zip(seeds, pairs)},
            "failed_share": {
                "parent": failed_share([p for p, _ in pairs]),
                "change": failed_share([c for _, c in pairs]),
            },
            "metrics": metrics,
        }
    return workloads


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--pr", type=int, required=True, help="number of the change")
    parser.add_argument("--parent", nargs="+", required=True, help="parent run captures")
    parser.add_argument("--change", nargs="+", required=True, help="change run captures")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text())
    declared = [
        (m["name"], m["unit"], m["better"] == "lower", m["bound"]) for m in spec["end_to_end"]
    ]
    sides = {}
    for side in ("parent", "change"):
        runs = {}
        for path in getattr(args, side):
            workload, seed, run = parse_run(path)
            if (workload, seed) in runs:
                raise SystemExit(f"bench_record: two {side} runs of {workload} seed {seed}")
            runs[workload, seed] = run
        sides[side] = runs
    all_runs = list(sides["parent"].values()) + list(sides["change"].values())
    machines = []
    for run in all_runs:
        if run["machine"] not in machines:
            machines.append(run["machine"])
    record = {
        "pr": args.pr,
        "seconds": sorted({run["seconds"] for run in all_runs}),
        "machine": machines,
        "workloads": summarize(sides["parent"], sides["change"], declared),
    }
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for workload, entry in record["workloads"].items():
        for name, m in entry["metrics"].items():
            print(
                f"{workload:14s} {name:18s} parent {m['parent']['median']:10.4g} "
                f"(IQR {m['parent']['iqr']:.3g})  change {m['change']['median']:10.4g} "
                f"(IQR {m['change']['iqr']:.3g})  {m['median_change']:+.1%}  "
                f"wins {m['change_wins']}/{entry['pairs']}  "
                f"claim {'met' if m['claim_met'] else 'not met'}  "
                f"{'within' if m['within_bound'] else 'outside'} bound"
                f"{'  unresolved' if m['unresolved'] else ''}"
            )
        print(f"{workload:14s} digests identical: {entry['digests_identical']}")
        shares = entry["failed_share"]
        print(
            f"{workload:14s} failed operations: "
            + "  ".join(
                f"{side} {shares[side]['share']:.3g} ({shares[side]['failed']}/{shares[side]['attempted']})"
                for side in ("parent", "change")
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end and per-layer benchmark of meshforms on generated meshes.

Run from the repository root:

    python3 perfbench/run.py                      # all workloads, untraced
    python3 perfbench/run.py --trace 1            # all workloads, per-layer split
    python3 perfbench/run.py --workload classify-zoo --seed 3 --seconds 50 --trace 0

Each workload runs in a process of its own: one caller, a closed loop of
identical rounds until ``--seconds`` would be exceeded. The report lists every
metric with its unit and sample count, then the output checks. The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and the
``metrics`` that BENCHMARK.json declares (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``). Full results, and the spans of a traced run,
are written to ``perfbench/results/``. See README.md.
"""

import os

# One BLAS thread: an oversubscribed OpenBLAS turns a 0.2 ms matmul into 50 ms.
# This must be set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("classify-zoo", "segment-limbs", "infer-15k")

# The metrics BENCHMARK.json declares, printed in the last line of stdout.
END_TO_END = ("setup_s", "mesh_ms.host_norm", "peak_rss_mb")
# host_probe's mean on the 2-vCPU VM the benchmark was built on: mesh_ms.host_norm
# is the mean per-mesh time scaled to a host on which the probe takes this long.
PROBE_REF_MS = 1.5
COUNTERS = (
    ("pooling.collapses", "count"),
    ("pooling.illegal_pops", "count"),
    ("pooling.collapse_yield", "fraction"),
    ("pooling.queue_rebuilds", "count"),
    ("pooling.us_per_collapse", "us"),
    ("pooling.max_valence", "count"),
    ("pooling.p99_valence", "count"),
    ("autodiff.nodes_per_step", "count"),
    ("trace.overhead", "ratio"),
    ("pooling.enhanced.us_per_collapse", "us"),
    ("pooling.legacy.us_per_collapse", "us"),
    ("pooling.enhanced.max_valence", "count"),
    ("pooling.legacy.max_valence", "count"),
    ("machine.spin_ms", "ms"),
)


def spin_ms():
    """Median time of a fixed pure-Python loop: a marker of host CPU speed."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def machine_facts():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def timing(values):
    """Median and the highest percentile with at least ten samples beyond it."""
    import numpy as np

    out = {"p50": statistics.median(values)}
    for q in (99, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = float(np.percentile(values, q))
            break
    return out


def run_rounds(workload, rec, seconds, traced):
    """Repeat rounds while the next one would end within half a round of ``seconds``.

    A traced run alternates untraced and traced rounds, so the pair's wall
    times give the tracing overhead; it always ends on a traced round.
    """
    from tracing import Patches, Tracer

    unit = 2 if traced else 1
    rounds = []  # (RoundResult, Tracer or None)
    begin = unit_start = time.perf_counter()
    while True:
        if rounds:
            # Keep only the last round's data alive, so peak RSS is one round's.
            rounds[-1][0].checkpoint = rounds[-1][0].samples = None
        rec.model = None
        gc.collect()
        tracer = Tracer(rec) if traced and len(rounds) % 2 else None
        rec.digest = hashlib.sha256()
        try:
            with Patches() as patches:
                if tracer:
                    tracer.install(patches)
                result = workload.round(rec)
            workload.verify(rec, result)
        except Exception:  # a failed round ends the run and is reported, not raised
            traceback.print_exc()
            rec.tally("round", False, "round raised, traceback on stderr")
            break
        rec.tally("round", True)
        result.output_digest = rec.digest.hexdigest()
        rounds.append((result, tracer))
        if len(rounds) % unit == 0:
            now = time.perf_counter()
            if now - begin + (now - unit_start) / 2 > seconds:
                break
            unit_start = now
    first = rounds[0][0] if rounds else None
    for result, _ in rounds[1:]:
        same = (result.loss_digest, result.output_digest, result.quality) == (
            first.loss_digest,
            first.output_digest,
            first.quality,
        )
        rec.tally("rounds_identical", same, "a round's losses or outputs differ from the first")
    return rounds


def end_to_end_metrics(workload, rec, rounds):
    """{name: (value, unit, samples)} of the untraced run."""
    results = [r for r, _ in rounds]
    metrics = {}
    if results:
        setups = [v for r in results for v in r.setup_s]
        metrics["setup_s"] = (statistics.median(setups), "s", len(setups))
    for key, unit in (("step_ms", "ms"), ("infer_ms", "ms")):
        values = [v for r in results for v in getattr(r, key)]
        if values:
            for q, value in timing(values).items():
                metrics[f"{key}.{q}"] = (value, unit, len(values))
    epochs = [v for r in results for v in r.epoch_s]
    if epochs:
        metrics["epoch_s"] = (statistics.median(epochs), "s", len(epochs))
    if f"{workload.primary}.p50" in metrics:
        metrics["mesh_ms.p50"] = metrics[f"{workload.primary}.p50"]
    meshes = [v for r in results for v in getattr(r, workload.primary)]
    if meshes and rec.probes:
        # Means, not medians: a run that spends a share of its time on a slow
        # host has its mean mesh time and mean probe time raised by one factor.
        probe = statistics.mean(rec.probes)
        metrics["probe_ms.mean"] = (probe, "ms", len(rec.probes))
        metrics["mesh_ms.mean"] = (statistics.mean(meshes), "ms", len(meshes))
        scaled = statistics.mean(meshes) * PROBE_REF_MS / probe
        metrics["mesh_ms.host_norm"] = (scaled, "ms", len(meshes))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MB", 1)
    if results:
        for name, value in results[0].quality.items():
            metrics[name] = (value, "nat" if name.endswith("loss") else "fraction", 1)
    attempted = rec.attempted()
    metrics["error_rate"] = (rec.failed() / attempted, "fraction", attempted)
    return metrics


def per_layer_metrics(rec, rounds, sweep, spin):
    """{name: (value, unit, samples)} of the traced rounds of a traced run."""
    import numpy as np

    from tracing import LAYERS

    tracers = [t for _, t in rounds if t is not None]
    traced_walls = [r.wall_s for r, t in rounds if t is not None]
    plain_walls = [r.wall_s for r, t in rounds if t is None]
    n = len(tracers)
    if not n:
        return {}
    per_round = [t.round_counts() for t in tracers]
    for counts in per_round[1:]:
        rec.tally("trace_counts_repeat", counts == per_round[0], "traced rounds differ")

    totals = {}
    counts = Counter()
    valences = Counter()
    for tracer in tracers:
        for name, (calls, seconds) in tracer.self_times().items():
            c, s = totals.get(name, (0, 0.0))
            totals[name] = (c + calls, s + seconds)
        counts.update(tracer.counts)
        valences.update(tracer.valences)
    wall = sum(traced_walls)
    metrics = {}
    for layer in LAYERS:
        calls, seconds = totals.get(layer, (0, 0.0))
        metrics[f"{layer}.ms"] = (seconds * 1e3 / calls if calls else 0.0, "ms", calls)
        metrics[f"{layer}.calls"] = (calls / n, "count", n)
        metrics[f"{layer}.share"] = (seconds / wall, "fraction", n)

    collapses = counts["pooling.collapses"]
    illegal = counts["pooling.illegal_pops"]
    if valences:
        spread = np.repeat(list(valences), list(valences.values()))
        max_valence, p99_valence = int(spread.max()), float(np.percentile(spread, 99))
    else:
        max_valence = p99_valence = 0
    values = {
        "pooling.collapses": collapses / n,
        "pooling.illegal_pops": illegal / n,
        "pooling.collapse_yield": collapses / (collapses + illegal) if collapses else 0.0,
        "pooling.queue_rebuilds": (counts["queues"] - counts["pool_calls"]) / n,
        "pooling.us_per_collapse": totals.get("pooling.fwd", (0, 0.0))[1] * 1e6 / collapses
        if collapses
        else 0.0,
        "pooling.max_valence": max_valence,
        "pooling.p99_valence": p99_valence,
        "autodiff.nodes_per_step": counts["values"] / max(counts["forwards"], 1),
        "trace.overhead": statistics.mean(traced_walls) / statistics.mean(plain_walls) - 1.0,
        "machine.spin_ms": spin,
        **sweep,
    }
    for name, unit in COUNTERS:
        if name in values:
            metrics[name] = (values[name], unit, n)
    return metrics


def declared_metrics(traced):
    """The metric names BENCHMARK.json declares for this mode, in its order."""
    from tracing import LAYERS

    if not traced:
        return list(END_TO_END)
    layers = [f"{layer}.{s}" for layer in LAYERS for s in ("ms", "calls", "share")]
    return layers + [name for name, _ in COUNTERS]


def run_workload(name, seed, seconds, traced):
    from tracing import Patches, Recorder
    from workloads import WORKLOADS, policy_sweep

    spin_before = spin_ms()
    rec = Recorder()
    RESULTS.mkdir(exist_ok=True)
    sweep = {}
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp, Patches() as patches:
        rec.install(patches)
        workload = WORKLOADS[name](seed, Path(tmp))
        rounds = run_rounds(workload, rec, seconds, traced)
        if traced and rounds:
            try:
                sweep = policy_sweep(rec, rounds[-1][0])
            except Exception:  # reported as a failed check, like a failed round
                traceback.print_exc()
                rec.tally("sweep", False, "policy sweep raised, traceback on stderr")
    spin_after = spin_ms()
    spin = (spin_before + spin_after) / 2.0
    if traced:
        metrics = per_layer_metrics(rec, rounds, sweep, spin)
    else:
        metrics = end_to_end_metrics(workload, rec, rounds)
    declared = declared_metrics(traced)
    facts = machine_facts()
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "rounds": len(rounds),
        "machine": {**facts, "spin_ms_before": spin_before, "spin_ms_after": spin_after},
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
        "checks": rec.tallies,
        "failures": rec.failures,
        "loss_digest": rounds[0][0].loss_digest if rounds else "",
        "output_digest": rounds[0][0].output_digest if rounds else "",
    }
    print_report(report)
    stem = RESULTS / f"{name}-seed{seed}-trace{int(traced)}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1, sort_keys=True))
    if traced:
        with open(f"{stem}-spans.jsonl", "w") as out:
            for index, (_, tracer) in enumerate(rounds):
                for span, start, end, parent in tracer.spans if tracer else ():
                    record = {"round": index, "name": span, "start": start, "end": end}
                    out.write(json.dumps({**record, "parent": parent}) + "\n")
    failed = rec.failed()
    line = {
        "correct": failed == 0 and all(k in metrics for k in declared),
        "attempted": rec.attempted(),
        "failed": failed,
        "metrics": {
            k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in declared if k in metrics
        },
    }
    print(json.dumps(line))
    return 0


def print_report(report):
    m = report["machine"]
    print(
        f"== {report['workload']}  seed={report['seed']}  seconds={report['seconds']}  "
        f"trace={report['trace']}  rounds={report['rounds']}"
    )
    print(
        f"machine  cpu_count={m['cpu_count']}  python={m['python']}  numpy={m['numpy']}  "
        f"blas={m['blas']!r}  blas_threads={m['blas_threads']}"
    )
    print(f"machine.spin_ms  before={m['spin_ms_before']:.3f}  after={m['spin_ms_after']:.3f}")
    rows = report["metrics"].items()
    if report["trace"]:
        rows = sorted(rows, key=lambda kv: (not kv[0].endswith(".share"), -kv[1]["value"]))
    for name, entry in rows:
        value, unit, samples = entry["value"], entry["unit"], entry["samples"]
        print(f"metric  {name:34s} {value:18.12g} {unit:9s} n={samples}")
    for name, (passed, failed) in sorted(report["checks"].items()):
        print(f"check   {name:34s} {passed}/{passed + failed} {'ok' if not failed else 'FAILED'}")
    for failure in report["failures"]:
        print(f"failure {failure}")
    if report["loss_digest"]:
        print(f"loss_digest    sha256:{report['loss_digest']}")
    print(f"output_digest  sha256:{report['output_digest']}")


def run_all(args):
    """Each workload in a child process of its own; one summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "meshforms" / "__init__.py").is_file():
        print(f"perfbench: no meshforms sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import meshforms

    if Path(meshforms.__file__).resolve().parent != SRC / "meshforms":
        print(f"perfbench: meshforms came from {meshforms.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

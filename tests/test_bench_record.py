"""tools/bench_record.py: pairing, medians, IQRs, wins and digest agreement."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def capture(path, seed, host_norm, setup_s, loss="aa", output="bb", failed=0):
    metrics = {
        "mesh_ms.host_norm": {"value": host_norm, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": 100.0, "unit": "MB"},
    }
    gate = {"correct": not failed, "attempted": 10, "failed": failed, "metrics": metrics}
    path.write_text(
        f"== segment-limbs  seed={seed}  seconds=50.0  trace=0  rounds=12\n"
        "machine  cpu_count=2  python=3.11.7  numpy=2.4.6  blas='open blas'  blas_threads=1\n"
        "machine.spin_ms  before=1.0  after=1.0\n"
        f"loss_digest    sha256:{loss}\n"
        f"output_digest  sha256:{output}\n" + json.dumps(gate) + "\n"
    )
    return path


def test_record_pairs_runs_by_seed(tmp_path):
    parents = [capture(tmp_path / f"p{s}.txt", s, 200.0 + s, 0.25) for s in (1, 2, 3, 4)]
    changes = [capture(tmp_path / f"c{s}.txt", s, 180.0 + 9 * s, 0.25) for s in (4, 3, 2, 1)]
    changes[0] = capture(tmp_path / "c4.txt", 4, 216.0, 0.25, loss="other")
    out = tmp_path / "BENCH.json"
    args = ["--pr", "7", "--out", out, "--parent", *parents, "--change", *changes]
    assert bench_record.main([str(a) for a in args]) == 0
    record = json.loads(out.read_text())
    assert record["machine"] == [
        {"cpu_count": "2", "python": "3.11.7", "numpy": "2.4.6", "blas": "open blas",
         "blas_threads": "1"}
    ]
    limbs = record["workloads"]["segment-limbs"]
    assert limbs["pairs"] == 4 and limbs["seeds"] == [1, 2, 3, 4]
    assert not limbs["digests_identical"]
    host = limbs["metrics"]["mesh_ms.host_norm"]
    assert host["parent"]["median"] == 202.5 and host["parent"]["iqr"] == 1.5
    assert host["change"]["values"] == [189.0, 198.0, 207.0, 216.0]
    assert host["change_wins"] == 2  # 207 loses to 203 and 216 to 204
    assert limbs["metrics"]["setup_s"]["change_wins"] == 0  # ties count for neither


def test_record_reports_failed_share(tmp_path, capsys):
    parents = [capture(tmp_path / f"p{s}.txt", s, 200.0, 0.25) for s in (1, 2)]
    changes = [capture(tmp_path / f"c{s}.txt", s, 190.0, 0.25, failed=s) for s in (1, 2)]
    out = tmp_path / "BENCH.json"
    args = ["--pr", "9", "--out", out, "--parent", *parents, "--change", *changes]
    assert bench_record.main([str(a) for a in args]) == 0
    limbs = json.loads(out.read_text())["workloads"]["segment-limbs"]
    assert limbs["failed_share"] == {
        "parent": {"share": 0.0, "failed": 0, "attempted": 20},
        "change": {"share": 0.15, "failed": 3, "attempted": 20},
    }
    assert not limbs["correct"]
    printed = capsys.readouterr().out
    assert "segment-limbs  failed operations: parent 0 (0/20)  change 0.15 (3/20)" in printed


def verdicts(tmp_path, parent_ms, change_ms, change_setup=0.25):
    """claim_met and within_bound of host_norm and setup_s over paired seeds."""
    seeds = range(len(parent_ms))
    parents = [capture(tmp_path / f"p{s}.txt", s, parent_ms[s], 0.25) for s in seeds]
    changes = [capture(tmp_path / f"c{s}.txt", s, change_ms[s], change_setup) for s in seeds]
    out = tmp_path / "BENCH.json"
    args = ["--pr", "3", "--out", out, "--parent", *parents, "--change", *changes]
    assert bench_record.main([str(a) for a in args]) == 0
    metrics = json.loads(out.read_text())["workloads"]["segment-limbs"]["metrics"]
    return {
        name: (metrics[name]["claim_met"], metrics[name]["within_bound"])
        for name in ("mesh_ms.host_norm", "setup_s")
    }


PARENT_MS = [100.0 + s for s in range(10)]  # median 104.5, IQR 4.5


def test_claim_met_needs_nine_of_ten_wins_and_a_gap_beyond_the_parent_iqr(tmp_path, capsys):
    # 10/10 wins, medians 10 ms apart
    got = verdicts(tmp_path, PARENT_MS, [p - 10.0 for p in PARENT_MS])
    assert got == {"mesh_ms.host_norm": (True, True), "setup_s": (False, True)}
    assert "claim met  within bound" in capsys.readouterr().out
    # 9/10 wins and a tie in the tenth pair still meet it
    change = [p - 10.0 for p in PARENT_MS[:9]] + [PARENT_MS[9]]
    assert verdicts(tmp_path, PARENT_MS, change)["mesh_ms.host_norm"] == (True, True)
    # 8/10: a tie and a loss
    change = [p - 10.0 for p in PARENT_MS[:8]] + [PARENT_MS[8], PARENT_MS[9] + 1.0]
    assert verdicts(tmp_path, PARENT_MS, change)["mesh_ms.host_norm"] == (False, True)
    # 10/10, but the medians differ by 3 ms, inside the parent's IQR of 4.5 ms
    change = [p - 3.0 for p in PARENT_MS]
    assert verdicts(tmp_path, PARENT_MS, change)["mesh_ms.host_norm"] == (False, True)


def test_within_bound_reads_the_declared_bound(tmp_path, capsys):
    # setup_s is bounded at 25% worse: +24% stays inside, +30% does not
    assert verdicts(tmp_path, PARENT_MS, PARENT_MS, change_setup=0.31)["setup_s"] == (False, True)
    assert verdicts(tmp_path, PARENT_MS, PARENT_MS, change_setup=0.325)["setup_s"] == (False, False)
    # host_norm bounded at 25%: +30% lies outside
    got = verdicts(tmp_path, PARENT_MS, [1.3 * p for p in PARENT_MS])["mesh_ms.host_norm"]
    assert got == (False, False)
    assert "claim not met  outside bound" in capsys.readouterr().out


def test_unresolved_when_the_parent_spreads_wider_than_the_bound(tmp_path, capsys):
    def unresolved(parent_ms, change_ms):
        seeds = range(len(parent_ms))
        parents = [capture(tmp_path / f"p{s}.txt", s, parent_ms[s], 0.25) for s in seeds]
        changes = [capture(tmp_path / f"c{s}.txt", s, change_ms[s], 0.25) for s in seeds]
        out = tmp_path / "BENCH.json"
        args = ["--pr", "5", "--out", out, "--parent", *parents, "--change", *changes]
        assert bench_record.main([str(a) for a in args]) == 0
        metrics = json.loads(out.read_text())["workloads"]["segment-limbs"]["metrics"]
        host = metrics["mesh_ms.host_norm"]
        assert not metrics["setup_s"]["unresolved"]  # identical runs, IQR 0
        return host["unresolved"], host["within_bound"]

    # parent median 190, IQR 90: wider than 25% of the median
    wide = [100.0 + 20 * s for s in range(10)]
    assert unresolved(wide, wide) == (True, True)
    assert "within bound  unresolved" in capsys.readouterr().out
    # a change that wins 9/10 pairs but overlaps the parent's runs stays unresolved
    assert unresolved(wide, [p - 15.0 for p in wide[:9]] + [wide[9]]) == (True, True)
    # every change run beats every parent run: resolved despite the spread
    assert unresolved(wide, [90.0 - s for s in range(10)]) == (False, True)
    # identical runs with the parent's IQR 4.5 inside 25% of its median 104.5
    capsys.readouterr()
    assert unresolved(PARENT_MS, PARENT_MS) == (False, True)
    assert "unresolved" not in capsys.readouterr().out

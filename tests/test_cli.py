"""CLI contracts: exit codes, determinism, file outputs."""

import ast
import contextlib
import io
import json
import math
import pathlib
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshforms import (
    ILLEGAL_REASONS,
    ChannelStats,
    Checkpoint,
    ConfigError,
    ExperimentConfig,
    GlobalAveragePool,
    ModelGraph,
    build_edge_topology,
    extract,
    load_dataset,
    parse_obj,
    pipelines,
    read_features,
    validate_manifold,
)
from meshforms.cli import main
from meshforms.datasets import GENERATORS, _random_rotation, in_test_split
from meshforms.features import FF, KIND_TOKENS, OUTPUT_TOKENS, XYZ
from meshforms.mesh import RigidMotion, apply_motion, normalize_unit_box, write_obj
from meshforms.optim import METHODS
from meshforms.pooling import ENHANCED, POLICIES

from conftest import dataset_files_and_hash, mutate_bytes

TETRA_OBJ = b"""v 1 1 1
v 1 -1 -1
v -1 1 -1
v -1 -1 1
f 1 2 3
f 1 4 2
f 1 3 4
f 2 4 3
"""

NON_MANIFOLD_OBJ = b"""v 0 0 0
v 1 0 0
v 0 1 0
v 0 0 1
v 0 -1 0
f 1 2 3
f 2 1 4
f 1 2 5
"""


@pytest.fixture
def tetra_path(tmp_path):
    p = tmp_path / "tetra.obj"
    p.write_bytes(TETRA_OBJ)
    return p


def run(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFeaturesCommand:
    def test_tetrahedron_ff_six_rows(self, tetra_path, tmp_path, capsys):
        out = tmp_path / "feat.bin"
        code, stdout, _ = run(
            ["features", "--mesh", tetra_path, "--kind", "ff", "--out", out], capsys
        )
        assert code == 0
        assert "edges = 6" in stdout
        ft = read_features(out.read_bytes())
        assert ft.values.shape == (6, 2)

    def test_rotated_input_same_feature_values(self, tetra_path, tmp_path, capsys):
        mesh = parse_obj(TETRA_OBJ)
        rotated = apply_motion(
            mesh, RigidMotion(_random_rotation(np.random.default_rng(3)))
        )
        rot_path = tmp_path / "rot.obj"
        rot_path.write_bytes(write_obj(rotated))
        out1 = tmp_path / "a.bin"
        out2 = tmp_path / "b.bin"
        assert run(["features", "--mesh", tetra_path, "--kind", "ff", "--out", out1], capsys)[0] == 0
        assert run(["features", "--mesh", rot_path, "--kind", "ff", "--out", out2], capsys)[0] == 0
        a = read_features(out1.read_bytes())
        b = read_features(out2.read_bytes())
        # 1e-9 invariance plus the 9-significant-digit OBJ quantization
        assert np.max(np.abs(a.values - b.values)) < 1e-8

    def test_identical_inputs_identical_bytes(self, tetra_path, tmp_path, capsys):
        out1 = tmp_path / "a.bin"
        out2 = tmp_path / "b.bin"
        run(["features", "--mesh", tetra_path, "--kind", "meshcnn5", "--out", out1], capsys)
        run(["features", "--mesh", tetra_path, "--kind", "meshcnn5", "--out", out2], capsys)
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            ["features", "--mesh", tmp_path / "nope.obj", "--kind", "ff"], capsys
        )
        assert code == 2
        assert "error" in err

    def test_non_manifold_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.obj"
        bad.write_bytes(NON_MANIFOLD_OBJ)
        code, _, err = run(["features", "--mesh", bad, "--kind", "ff"], capsys)
        assert code == 2

    def test_zero_area_face_exit_2(self, tmp_path, capsys):
        flat = tmp_path / "flat.obj"
        flat.write_bytes(b"v 0 0 0\nv 1 0 0\nv 2 0 0\nv 1 -1 0\nf 1 2 3\nf 2 1 4\n")
        code, _, err = run(["features", "--mesh", flat, "--kind", "ff"], capsys)
        assert code == 2
        assert "zero area" in err

    def test_heatmap_writes_sidecar(self, tetra_path, tmp_path, capsys):
        heat = tmp_path / "heat.obj"
        code, _, _ = run(
            ["features", "--mesh", tetra_path, "--kind", "ff", "--heatmap", heat],
            capsys,
        )
        assert code == 0
        sidecar = tmp_path / "heat.edges.txt"
        assert heat.exists() and sidecar.exists()
        lines = [l for l in sidecar.read_text().splitlines() if l]
        assert len(lines) == 6

    def test_unknown_flag_exit_1(self, tetra_path, capsys):
        code, _, _ = run(
            ["features", "--mesh", tetra_path, "--kind", "ff", "--bogus", "1"], capsys
        )
        assert code == 1


class TestValidateCommand:
    def test_clean_mesh(self, tetra_path, capsys):
        code, stdout, _ = run(["validate", "--mesh", tetra_path], capsys)
        assert code == 0
        assert "manifold" in stdout

    def test_non_manifold_names_edge(self, tmp_path, capsys):
        bad = tmp_path / "bad.obj"
        bad.write_bytes(NON_MANIFOLD_OBJ)
        code, stdout, _ = run(["validate", "--mesh", bad], capsys)
        assert code == 2
        assert "(0, 1)" in stdout

    def test_directory_mesh_exit_2(self, tmp_path, capsys):
        code, _, err = run(["validate", "--mesh", tmp_path], capsys)
        assert code == 2
        assert err.startswith("error: ")


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_validate_mutated_obj_exits_0_or_2(mutation_dir, data):
    path = mutation_dir / "mesh.obj"
    path.write_bytes(mutate_bytes(TETRA_OBJ, data.draw, max_edits=6))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["validate", "--mesh", str(path)]) in (0, 2)


class TestGenData:
    def test_determinism_byte_identical(self, tmp_path, capsys):
        args = [
            "gen-data", "--spec", "primitive-zoo", "--classes", "3",
            "--per-class", "3", "--train-per-class", "2", "--test-per-class", "1",
            "--edge-range", "150,300", "--seed", "7",
        ]
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        assert run(args + ["--out", d1], capsys)[0] == 0
        assert run(args + ["--out", d2], capsys)[0] == 0
        files1 = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes()

    def test_reports_hash(self, tmp_path, capsys):
        code, stdout, _ = run(
            [
                "gen-data", "--spec", "articulated-limbs", "--classes", "2",
                "--per-class", "2", "--train-per-class", "1", "--test-per-class", "1",
                "--edge-range", "250,500", "--seed", "1", "--out", tmp_path / "d",
            ],
            capsys,
        )
        assert code == 0
        assert "dataset_hash = " in stdout

    @pytest.mark.parametrize(
        "flag, value, code, message",
        [
            ("--classes", "0", 2, "error: classes and per_class must be positive"),
            ("--edge-range", "5,3", 2, "error: bad edge range (5, 3)"),
            ("--edge-range", "5", 1, "argument --edge-range: expected LO,HI"),
        ],
    )
    def test_bad_spec_writes_nothing(self, tmp_path, capsys, flag, value, code, message):
        args = {
            "--spec": "primitive-zoo", "--classes": "2", "--per-class": "2",
            "--train-per-class": "1", "--test-per-class": "1", "--out": tmp_path / "d",
        }
        args[flag] = value
        outcome = run(["gen-data", *(part for pair in args.items() for part in pair)], capsys)
        assert outcome[:2] == (code, "")
        assert message in outcome[2]
        assert not (tmp_path / "d").exists()

    def test_samples_beyond_the_split_are_dropped(self, tmp_path, capsys):
        """``--per-class`` above train + test generates every sample, and the
        split keeps only train + test of each class."""
        code, stdout, _ = run(
            [
                "gen-data", "--spec", "primitive-zoo", "--classes", "2",
                "--per-class", "4", "--train-per-class", "1", "--test-per-class", "2",
                "--edge-range", "150,300", "--seed", "3", "--out", tmp_path / "d",
            ],
            capsys,
        )
        assert code == 0
        assert "samples = 6" in stdout
        rows = [line.split("\t") for line in (tmp_path / "d" / "index.tsv").read_text().splitlines()[1:]]
        assert sorted(row[3] for row in rows) == ["test"] * 4 + ["train"] * 2
        assert len(list((tmp_path / "d" / "meshes").iterdir())) == 6


class TestPoolTrace:
    def _sphere_path(self, tmp_path):
        from conftest import fuzz_corpus

        mesh = fuzz_corpus(1, seed=2, edge_range=(200, 320))[0]
        p = tmp_path / "sphere.obj"
        p.write_bytes(write_obj(mesh))
        return p, mesh

    def test_stages_written_and_valid(self, tmp_path, capsys):
        path, mesh = self._sphere_path(tmp_path)
        out = tmp_path / "trace"
        code, stdout, _ = run(
            [
                "pool-trace", "--mesh", path, "--features", "ff",
                "--targets", "160,130,100", "--policy", "enhanced", "--out", out,
            ],
            capsys,
        )
        assert code == 0
        stage_files = sorted(out.glob("stage_*.obj"))
        assert len(stage_files) == 3
        for i, target in enumerate([160, 130, 100]):
            staged = parse_obj(stage_files[i].read_bytes())
            assert validate_manifold(staged).is_clean
            from meshforms import build_edge_topology

            assert build_edge_topology(staged).edge_count <= target
        order = (out / "collapse_order.txt").read_text().splitlines()
        from meshforms import build_edge_topology

        assert len(order) == build_edge_topology(parse_obj(path.read_bytes())).edge_count
        steps = [int(l.split()[2]) for l in order]
        assert max(steps) >= 0 and min(steps) == -1

    def test_written_journals_load(self, tmp_path, capsys):
        """``pool-trace`` writes each journal as ``to_json()`` and one newline,
        a form the journal reader accepts."""
        from meshforms import PoolHistory

        path, _ = self._sphere_path(tmp_path)
        out = tmp_path / "trace"
        args = ["pool-trace", "--mesh", path, "--features", "ff", "--targets", "160,100", "--out", out]
        assert run(args, capsys)[0] == 0
        journals = sorted(out.glob("stage_*.history.json"))
        assert len(journals) == 2
        for journal in journals:
            text = journal.read_text()
            assert PoolHistory.from_json(text).to_json() + "\n" == text

    def test_policies_produce_different_sidecars(self, tmp_path, capsys):
        # a generated zoo mesh whose ff journals diverge between the policies
        from meshforms import DatasetSpec, build_edge_topology, generate, pool
        from meshforms.features import FF, extract, fit_channel_stats, normalize
        from meshforms.mesh import normalize_unit_box

        mesh = generate(DatasetSpec("primitive-zoo", 1, 1, edge_range=(250, 400), seed=0))[0].mesh
        path = tmp_path / "zoo.obj"
        path.write_bytes(write_obj(mesh))
        sidecars = {}
        for policy in ("enhanced", "legacy"):
            out = tmp_path / policy
            code, _, _ = run(
                [
                    "pool-trace", "--mesh", path, "--features", "ff",
                    "--targets", "160", "--policy", policy, "--out", out,
                ],
                capsys,
            )
            assert code == 0
            sidecars[policy] = (out / "stage_0_160.history.json").read_text()
        assert sidecars["enhanced"] != sidecars["legacy"]
        # each sidecar is the journal of pool() on the features the command pools
        parsed = parse_obj(path.read_bytes())
        topology = build_edge_topology(parsed)
        unit = normalize_unit_box(parsed)
        feats = extract(topology, unit, FF)
        values = normalize(feats, fit_channel_stats([feats])).values
        for policy, text in sidecars.items():
            expected = pool(values, topology, 160, mesh=unit, policy=policy).history
            assert text == expected.to_json() + "\n"

    def test_unreachable_target_exit_3(self, tmp_path, capsys):
        path = tmp_path / "tetra.obj"
        path.write_bytes(TETRA_OBJ)
        code, _, err = run(
            [
                "pool-trace", "--mesh", path, "--features", "ff",
                "--targets", "3", "--out", tmp_path / "t",
            ],
            capsys,
        )
        assert code == 3
        assert "6" in err  # achieved count reported

    def test_stage_summaries_on_stderr(self, tmp_path, capsys):
        path, _ = self._sphere_path(tmp_path)
        code, stdout, err = run(
            [
                "pool-trace", "--mesh", path, "--features", "ff",
                "--targets", "160,130,100", "--out", tmp_path / "trace",
            ],
            capsys,
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "stages = 3" and lines[1].startswith("collapses = ") and len(lines) == 2
        summaries = err.splitlines()
        assert [line.split(":")[0] for line in summaries] == [
            "stage 0 (target 160)", "stage 1 (target 130)", "stage 2 (target 100)"
        ]
        collapses = [int(line.split("collapses=")[1].split()[0]) for line in summaries]
        assert sum(collapses) == int(lines[1].split(" = ")[1])
        # illegal pops are keyed by the full reason, one of pooling's six
        reasons = [ast.literal_eval(line.split("by_reason=")[1]) for line in summaries]
        assert any(reasons) and set().union(*reasons) <= set(ILLEGAL_REASONS)

    def test_policy_choices_are_pooling_policies(self, capsys):
        code, stdout, _ = run(["pool-trace", "--help"], capsys)
        assert code == 0
        assert "--policy {%s}" % ",".join(POLICIES) in stdout
        assert ExperimentConfig().pooling == ENHANCED
        assert [ExperimentConfig(pooling=name).pooling for name in POLICIES] == list(POLICIES)
        for name in ("Enhanced", "batch", ""):
            with pytest.raises(ConfigError, match="pooling must be one of enhanced, legacy"):
                ExperimentConfig(pooling=name)

    def test_non_integer_target_exit_1(self, tmp_path, capsys):
        path, _ = self._sphere_path(tmp_path)
        code, stdout, err = run(
            ["pool-trace", "--mesh", path, "--features", "ff", "--targets", "1,x",
             "--out", tmp_path / "t"],
            capsys,
        )
        assert (code, stdout) == (1, "")
        assert "expected a comma-separated integer list" in err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("targets", ["-5", "150,0"])
    def test_non_positive_target_refused_before_pooling(self, tmp_path, capsys, monkeypatch, targets):
        path, _ = self._sphere_path(tmp_path)

        def no_pooling(*args, **kwargs):
            raise AssertionError("pooled before refusing the target")

        monkeypatch.setattr("meshforms.cli.pool", no_pooling)
        out = tmp_path / "t"
        code, stdout, err = run(
            ["pool-trace", "--mesh", path, "--features", "ff", "--targets", targets, "--out", out],
            capsys,
        )
        assert code == 3
        assert "not a positive edge count" in err
        assert stdout == "" and not out.exists()

    def test_targets_closer_than_a_collapse_exit_1(self, tmp_path, capsys):
        """A stage may end 2 edges below its target, so a next target less than
        3 lower is refused before anything is written."""
        path, _ = self._sphere_path(tmp_path)
        out = tmp_path / "t"
        code, stdout, err = run(
            ["pool-trace", "--mesh", path, "--features", "ff", "--targets", "100,99", "--out", out],
            capsys,
        )
        assert (code, stdout) == (1, "")
        assert err == "error: targets must each be at least 3 below the previous\n"
        assert not out.exists()

    def test_non_decreasing_targets_exit_1(self, tmp_path, capsys):
        path = tmp_path / "tetra.obj"
        path.write_bytes(TETRA_OBJ)
        code, _, _ = run(
            [
                "pool-trace", "--mesh", path, "--features", "ff",
                "--targets", "100,200", "--out", tmp_path / "t",
            ],
            capsys,
        )
        assert code == 1


def test_choices_are_the_declared_vocabularies(capsys):
    """Each CLI choice list is the declaration of its module."""
    for command, flag, names in (
        ("gen-data", "--spec", GENERATORS),
        ("features", "--kind", KIND_TOKENS),
        ("pool-trace", "--features", KIND_TOKENS),
    ):
        code, stdout, _ = run([command, "--help"], capsys)
        assert code == 0
        assert "%s {%s}" % (flag, ",".join(names)) in stdout


def test_optimizer_is_one_of_the_methods():
    assert ExperimentConfig().optimizer == METHODS[0] == "adam"
    assert [ExperimentConfig(optimizer=m).optimizer for m in METHODS] == ["adam", "sgd"]
    for name in ("Adam", "rmsprop", ""):
        with pytest.raises(ConfigError, match="^optimizer must be adam or sgd$"):
            ExperimentConfig(optimizer=name)


def test_output_features_are_the_declared_output_kinds():
    assert OUTPUT_TOKENS == ("ff", "xyz")
    assert [KIND_TOKENS[token] for token in OUTPUT_TOKENS] == [FF, XYZ]
    for token in OUTPUT_TOKENS:
        assert ExperimentConfig(task="denoising", output_features=token).output_features == token
    for token in sorted(set(KIND_TOKENS) - set(OUTPUT_TOKENS)) + ["", "FF"]:
        with pytest.raises(ConfigError, match=f"^output_features must be ff or xyz, got '{token}'$"):
            ExperimentConfig(output_features=token)


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")

    class _Cap:
        def readouterr(self):
            return type("C", (), {"out": "", "err": ""})()

    code = main(
        [
            "gen-data", "--spec", "primitive-zoo", "--classes", "3",
            "--per-class", "4", "--train-per-class", "3", "--test-per-class", "1",
            "--edge-range", "150,300", "--seed", "5", "--out", str(root),
        ]
    )
    assert code == 0
    return root


def untrained_checkpoint(path, task):
    """An untrained one-stage ff model for ``task``, saved at ``path``."""
    config = ExperimentConfig(task=task, conv_channels=(4,), pool_targets=(100,))
    model = pipelines.build_model(config, config.input_channels(), 2)
    meta = {
        "task": task, "features": "ff", "channel_mask": [], "output_features": "ff",
        "noise_variance": 0.1, "config_hash": "x", "seed": 0,
    }
    Checkpoint(model, ChannelStats(np.zeros(2), np.ones(2)), meta).save(path)
    return path


# NaN, infinities, numbers that overflow once multiplied, and subnormals.
EXTREMES = [np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324, -5e-324, 2.2e-310]


@pytest.fixture(scope="module")
def small_checkpoints(tmp_path_factory):
    """(directory, {task: bytes of an untrained checkpoint}) for eval and denoise."""
    root = tmp_path_factory.mktemp("small_checkpoints")
    return root, {
        task: untrained_checkpoint(root / f"{task}.ckpt", task).read_bytes()
        for task in ("classification", "denoising")
    }


class TestNegativeSeeds:
    """A negative seed is a ConfigError (exit 2) before any work, not numpy's
    ValueError from deep inside generation, rotation or noise."""

    def test_gen_data(self, tmp_path, capsys):
        code, _, err = run(
            [
                "gen-data", "--spec", "primitive-zoo", "--classes", "2",
                "--per-class", "2", "--train-per-class", "1", "--test-per-class", "1",
                "--seed", "-1", "--out", tmp_path / "d",
            ],
            capsys,
        )
        assert code == 2
        assert "--seed must be a non-negative integer" in err
        assert not (tmp_path / "d").exists()

    def test_eval_rotate_seed(self, cli_dataset, tmp_path, capsys):
        ckpt = untrained_checkpoint(tmp_path / "m.ckpt", "classification")
        code, stdout, err = run(
            ["eval", "--checkpoint", ckpt, "--data", cli_dataset, "--rotate-seed", "-1"],
            capsys,
        )
        assert code == 2
        assert "--rotate-seed must be a non-negative integer" in err
        assert stdout == ""

    def test_denoise_seed(self, cli_dataset, tmp_path, capsys):
        ckpt = untrained_checkpoint(tmp_path / "m.ckpt", "denoising")
        code, _, err = run(
            ["denoise", "--checkpoint", ckpt, "--data", cli_dataset, "--seed", "-1"], capsys
        )
        assert code == 2
        assert "--seed must be a non-negative integer" in err

    @pytest.mark.parametrize(
        "setting",
        ["seed=-1", "conv_channels=-4,32", "conv_channels=0,32", "conv_channels=100000000000,32"],
    )
    def test_train_setting(self, cli_dataset, tmp_path, setting, capsys):
        code, _, err = run(
            [
                "train", "--data", cli_dataset, "--out", tmp_path / "m.ckpt",
                "--set", "epochs=1", "--set", "pool_targets=100,70", "--set", setting,
            ],
            capsys,
        )
        assert code == 2
        assert f"error: {setting.split('=')[0]} must be" in err
        assert not (tmp_path / "m.ckpt").exists()


class TestDenoise:
    @pytest.mark.parametrize(
        "extra, golden",
        [
            (
                ["--seed", "3"],
                "config_hash = x\nseed = 3\noutput_features = ff\n"
                "model_mse = 0.995615\nidentity_mse = 1.71573\n",
            ),
            (
                ["--seed", "3", "--variance", "0.05"],
                "config_hash = x\nseed = 3\noutput_features = ff\n"
                "model_mse = 0.995275\nidentity_mse = 1.48983\n",
            ),
        ],
    )
    def test_untrained_report_golden(self, cli_dataset, tmp_path, extra, golden, capsys):
        ckpt = untrained_checkpoint(tmp_path / "m.ckpt", "denoising")
        code, stdout, _ = run(
            ["denoise", "--checkpoint", ckpt, "--data", cli_dataset, *extra], capsys
        )
        assert code == 0
        assert stdout == golden

    @pytest.mark.parametrize("variance", ["nan", "inf", "-1"])
    def test_variance_follows_the_config_rule(self, cli_dataset, tmp_path, variance, capsys):
        ckpt = untrained_checkpoint(tmp_path / "m.ckpt", "denoising")
        code, stdout, err = run(
            ["denoise", "--checkpoint", ckpt, "--data", cli_dataset, "--variance", variance],
            capsys,
        )
        assert code == 2
        assert "noise_variance must be finite and non-negative" in err
        assert stdout == ""

    def test_unsplit_dataset_is_all_test(self, cli_dataset, tmp_path, capsys):
        """Rows without a split tag are test meshes, as under ``eval``."""
        ckpt = untrained_checkpoint(tmp_path / "m.ckpt", "denoising")
        stdouts = []
        for tag in ("", "test"):
            data = tmp_path / f"data-{tag or 'unsplit'}"
            shutil.copytree(cli_dataset, data)
            index = data / "index.tsv"
            header, *rows = index.read_text().splitlines()
            rows = ["\t".join([*r.split("\t")[:3], tag, r.split("\t")[4]]) for r in rows]
            index.write_text("\n".join([header, *rows]) + "\n")
            code, stdout, _ = run(
                ["denoise", "--checkpoint", ckpt, "--data", data, "--seed", "3"], capsys
            )
            assert code == 0
            stdouts.append(stdout)
        assert stdouts[0] == stdouts[1]
        assert "model_mse = " in stdouts[0]

    def test_checkpoint_without_output_features_exit_3(self, cli_dataset, tmp_path, capsys):
        config = ExperimentConfig(task="denoising", conv_channels=(4,), pool_targets=(100,))
        model = pipelines.build_model(config, config.input_channels(), 2)
        ckpt = tmp_path / "no-kind.ckpt"
        stats = ChannelStats(np.zeros(2), np.ones(2))
        Checkpoint(model, stats, {"task": "denoising", "features": "ff"}).save(ckpt)
        code, stdout, err = run(["denoise", "--checkpoint", ckpt, "--data", cli_dataset], capsys)
        assert code == 3
        assert "checkpoint meta has no 'output_features'" in err
        assert stdout == ""


def test_unreachable_pool_target_exit_3(cli_dataset, tmp_path, capsys):
    """A target at or above the edge count is a runtime failure, as is running
    out of legal collapses."""
    code, stdout, err = run(
        [
            "train", "--data", cli_dataset, "--out", tmp_path / "m.ckpt",
            "--set", "epochs=1", "--set", "conv_channels=4", "--set", "pool_targets=99999",
        ],
        capsys,
    )
    assert code == 3
    assert "pool target 99999" in err
    assert stdout == ""
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("train, test", [("-1", "2"), ("2", "-2")])
def test_gen_data_rejects_a_negative_split_count(tmp_path, capsys, train, test):
    """A negative per-class count is a DataError (exit 2) and writes nothing."""
    code, stdout, err = run(
        [
            "gen-data", "--spec", "primitive-zoo", "--classes", "2", "--per-class", "4",
            "--train-per-class", train, "--test-per-class", test, "--out", tmp_path / "d",
        ],
        capsys,
    )
    assert code == 2
    assert "per-class train and test counts must be non-negative" in err
    assert stdout == ""
    assert not (tmp_path / "d").exists()


class TestTrainEval:
    def test_train_eval_round_trip(self, cli_dataset, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        report = tmp_path / "report.jsonl"
        code, stdout, _ = run(
            [
                "train", "--data", cli_dataset, "--out", ckpt, "--report", report,
                "--set", "epochs=1", "--set", "conv_channels=6,8",
                "--set", "pool_targets=100,70", "--seed", "3",
            ],
            capsys,
        )
        assert code == 0
        assert "config_hash = " in stdout
        assert "seed = 3" in stdout
        assert ckpt.exists()
        records = [json.loads(l) for l in report.read_text().splitlines()]
        assert any(r["metric"] == "test_accuracy" for r in records)
        assert all("wall_clock" not in r.get("metric", "") for r in records)

        code2, stdout2, _ = run(
            ["eval", "--checkpoint", ckpt, "--data", cli_dataset], capsys
        )
        assert code2 == 0
        assert "test_accuracy = " in stdout2

    def test_channel_mask_keeps_the_masked_columns(self, cli_dataset, tmp_path, capsys, monkeypatch):
        """With ``channel_mask=1,0`` on ff the first conv takes one channel and
        the model reads feature column 0; ``eval`` re-applies the mask from the
        checkpoint meta. A de-noising run keeps column 1 with ``0,1``."""
        train = ["train", "--data", cli_dataset, "--set", "epochs=1",
                 "--set", "conv_channels=4", "--set", "pool_targets=100", "--seed", "3"]
        ckpt = tmp_path / "m.ckpt"
        code, stdout, _ = run([*train, "--out", ckpt, "--set", "channel_mask=1,0"], capsys)
        assert code == 0
        trained = Checkpoint.load(ckpt)
        assert trained.model.parameters()["layer0.weights"].data.shape == (5, 1, 4)
        assert trained.meta["channel_mask"] == [1, 0]
        inputs = []
        forward = ModelGraph.forward
        monkeypatch.setattr(
            ModelGraph, "forward", lambda model, x, t: inputs.append(x) or forward(model, x, t)
        )
        code, evaluated, _ = run(["eval", "--checkpoint", ckpt, "--data", cli_dataset], capsys)
        assert code == 0
        accuracy = evaluated.splitlines()[-1].split(" = ")[1]
        assert stdout.splitlines()[-1].split() == ["test_accuracy", accuracy]
        mesh = normalize_unit_box(load_dataset(cli_dataset, keep=in_test_split)[0].mesh)
        column = extract(build_edge_topology(mesh), mesh, FF).values[:, [0]]
        stats = trained.channel_stats
        assert np.array_equal(inputs[0], (column - stats.mean) / stats.std)

        ckpt = tmp_path / "d.ckpt"
        code, _, _ = run(
            [*train, "--out", ckpt, "--set", "task=denoising", "--set", "channel_mask=0,1"], capsys
        )
        assert code == 0
        assert Checkpoint.load(ckpt).model.parameters()["layer0.weights"].data.shape == (5, 1, 4)
        assert run(["denoise", "--checkpoint", ckpt, "--data", cli_dataset], capsys)[0] == 0

    def test_train_reads_each_dataset_file_once(self, cli_dataset, tmp_path, capsys, read_counts):
        files, expected = dataset_files_and_hash(cli_dataset)
        read_counts.clear()
        code, _, err = run(
            [
                "train", "--data", cli_dataset, "--out", tmp_path / "m.ckpt",
                "--set", "epochs=1", "--set", "conv_channels=6,8",
                "--set", "pool_targets=100,70", "--seed", "3",
            ],
            capsys,
        )
        assert code == 0
        assert f" on {expected}\n" in err
        assert read_counts == {path: 1 for path in files}

    def test_train_determinism_byte_identical_outputs(self, cli_dataset, tmp_path, capsys):
        outs = []
        reports = []
        for tag in ("x", "y"):
            ckpt = tmp_path / f"{tag}.ckpt"
            report = tmp_path / f"{tag}.jsonl"
            code, _, _ = run(
                [
                    "train", "--data", cli_dataset, "--out", ckpt, "--report", report,
                    "--set", "epochs=1", "--set", "conv_channels=6,8",
                    "--set", "pool_targets=100,70", "--seed", "11",
                ],
                capsys,
            )
            assert code == 0
            outs.append(ckpt.read_bytes())
            reports.append(report.read_bytes())
        assert outs[0] == outs[1]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command", ["eval", "denoise"])
    @pytest.mark.parametrize("cut", [3, 20, -8])
    def test_undecodable_checkpoint_exit_2(self, cli_dataset, tmp_path, command, cut, capsys):
        config = ExperimentConfig(conv_channels=(4,), pool_targets=(100,))
        model = pipelines.build_model(config, config.input_channels(), 3)
        ckpt = tmp_path / "cut.ckpt"
        stats = ChannelStats(np.zeros(2), np.ones(2))
        ckpt.write_bytes(Checkpoint(model, stats, {"task": "classification"}).to_bytes()[:cut])
        code, _, err = run([command, "--checkpoint", ckpt, "--data", cli_dataset], capsys)
        assert code == 2
        assert "error: checkpoint" in err

    @pytest.mark.parametrize("command", ["eval", "denoise"])
    def test_checkpoint_without_task_exit_3(self, cli_dataset, tmp_path, command, capsys):
        config = ExperimentConfig(conv_channels=(4,), pool_targets=(100,))
        model = pipelines.build_model(config, config.input_channels(), 3)
        ckpt = tmp_path / "no-task.ckpt"
        stats = ChannelStats(np.zeros(2), np.ones(2))
        Checkpoint(model, stats, {"features": "ff", "seed": 0}).save(ckpt)
        code, _, err = run([command, "--checkpoint", ckpt, "--data", cli_dataset], capsys)
        assert code == 3
        assert "checkpoint meta has no 'task'" in err

    def test_non_utf8_config_exit_2(self, cli_dataset, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"epochs = 1\n# caf\xe9\n")
        code, _, err = run(
            ["train", "--data", cli_dataset, "--out", tmp_path / "m.ckpt", "--config", config],
            capsys,
        )
        assert code == 2
        assert "not UTF-8" in err

    def test_misoriented_face_exit_2(self, cli_dataset, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(cli_dataset, data)
        obj = sorted((data / "meshes").glob("*.obj"))[0]
        lines = obj.read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("f "))
        _, a, b, c = lines[first].split()
        lines[first] = f"f {a} {c} {b}"
        obj.write_text("\n".join(lines) + "\n")
        code, _, err = run(
            ["train", "--data", data, "--out", tmp_path / "m.ckpt", "--set", "epochs=1"],
            capsys,
        )
        assert code == 2
        assert "not a valid manifold" in err

    def test_edge_label_beyond_int64_exit_2(self, tmp_path, capsys):
        data = tmp_path / "limbs"
        gen = [
            "gen-data", "--spec", "articulated-limbs", "--classes", "2", "--per-class", "1",
            "--train-per-class", "1", "--test-per-class", "0", "--edge-range", "250,500",
            "--out", data,
        ]
        assert run(gen, capsys)[0] == 0
        labels = sorted((data / "meshes").glob("*.edgelabels"))[1]
        rows = labels.read_text().splitlines()
        rows[5] = "0 1 99999999999999999999"
        labels.write_text("\n".join(rows) + "\n")
        code, _, err = run(
            ["train", "--data", data, "--out", tmp_path / "m.ckpt", "--set", "task=segmentation"],
            capsys,
        )
        assert code == 2
        assert err.endswith(
            f"meshes/{labels.name}: label in column 3 of '0 1 99999999999999999999' "
            "does not fit in int64\n"
        )

    def test_test_split_edge_label_count_exit_2(self, tmp_path, capsys):
        data = tmp_path / "limbs"
        gen = [
            "gen-data", "--spec", "articulated-limbs", "--classes", "2", "--per-class", "2",
            "--train-per-class", "1", "--test-per-class", "1", "--edge-range", "250,500",
            "--out", data,
        ]
        assert run(gen, capsys)[0] == 0
        rows = (data / "index.tsv").read_text().splitlines()
        test_id = next(row.split("\t")[0] for row in rows if "\ttest\t" in row)
        labels = data / "meshes" / f"{test_id}.edgelabels"
        kept = labels.read_text().splitlines()[:-5]
        labels.write_text("\n".join(kept) + "\n")
        code, _, err = run(
            [
                "train", "--data", data, "--out", tmp_path / "m.ckpt",
                "--set", "task=segmentation", "--set", "epochs=1",
                "--set", "conv_channels=4,6", "--set", "pool_targets=200,150",
            ],
            capsys,
        )
        assert code == 2
        assert f"sample {test_id}: {len(kept)} edge labels for {len(kept) + 5} edges" in err

    @pytest.mark.parametrize("label", ["-1", "12", "1000000000000", "99999999999999999999"])
    def test_class_label_out_of_range_exit_2(self, cli_dataset, tmp_path, label, capsys):
        data = tmp_path / "data"
        shutil.copytree(cli_dataset, data)
        rows = (data / "index.tsv").read_text().splitlines()
        fields = rows[1].split("\t")
        fields[2] = label
        rows[1] = "\t".join(fields)
        (data / "index.tsv").write_text("\n".join(rows) + "\n")
        code, _, err = run(
            ["train", "--data", data, "--out", tmp_path / "m.ckpt", "--set", "epochs=1"],
            capsys,
        )
        assert code == 2
        assert f"sample {fields[0]}: class label {label} is not in 0..11" in err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("label", ["99999999999", "-1"])
    def test_edge_label_out_of_range_exit_2(self, tmp_path, label, capsys):
        """A train mesh's edge label must lie in 0..(train edges - 1): a huge one
        would size the head, a negative one would fail inside the loss."""
        data = tmp_path / "limbs"
        gen = [
            "gen-data", "--spec", "articulated-limbs", "--classes", "2", "--per-class", "1",
            "--train-per-class", "1", "--test-per-class", "0", "--edge-range", "250,500",
            "--out", data,
        ]
        assert run(gen, capsys)[0] == 0
        files = sorted((data / "meshes").glob("*.edgelabels"))
        edges = sum(len(f.read_text().splitlines()) for f in files)
        rows = files[1].read_text().splitlines()
        rows[5] = " ".join(rows[5].split()[:2] + [label])
        files[1].write_text("\n".join(rows) + "\n")
        code, _, err = run(
            [
                "train", "--data", data, "--out", tmp_path / "m.ckpt",
                "--set", "task=segmentation", "--set", "epochs=1",
                "--set", "conv_channels=4,6", "--set", "pool_targets=200,150",
            ],
            capsys,
        )
        assert code == 2
        assert err.endswith(
            f"error: sample {files[1].stem}: edge label {label} is not in "
            f"0..{edges - 1} ({edges} labelled edges)\n"
        )
        assert not (tmp_path / "m.ckpt").exists()

    def test_edge_label_rows_out_of_edge_order_exit_2(self, tmp_path, capsys):
        """A sidecar's ``u v`` columns must list the mesh's edges in canonical
        order: with two rows swapped, two edges would train on each other's labels."""
        data = tmp_path / "limbs"
        gen = [
            "gen-data", "--spec", "articulated-limbs", "--classes", "2", "--per-class", "1",
            "--train-per-class", "1", "--test-per-class", "0", "--edge-range", "250,500",
            "--out", data,
        ]
        assert run(gen, capsys)[0] == 0
        sidecar = sorted((data / "meshes").glob("*.edgelabels"))[1]
        rows = sidecar.read_text().splitlines()
        rows[3], rows[4] = rows[4], rows[3]
        sidecar.write_text("\n".join(rows) + "\n")
        (u, v, _), (a, b, _) = rows[3].split(), rows[4].split()
        code, stdout, err = run(
            [
                "train", "--data", data, "--out", tmp_path / "m.ckpt",
                "--set", "task=segmentation", "--set", "epochs=1",
                "--set", "conv_channels=4,6", "--set", "pool_targets=200,150",
            ],
            capsys,
        )
        assert (code, stdout) == (2, "")
        assert err.endswith(f"error: sample {sidecar.stem}: edge-label row 4 is edge {u} {v}, "
                            f"not {a} {b}\n")
        assert not (tmp_path / "m.ckpt").exists()

    def test_eval_of_unlabelled_test_mesh_exit_2(self, cli_dataset, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(cli_dataset, data)
        rows = (data / "index.tsv").read_text().splitlines()
        row = next(i for i, line in enumerate(rows) if "\ttest\t" in line)
        fields = rows[row].split("\t")
        fields[2] = ""
        rows[row] = "\t".join(fields)
        (data / "index.tsv").write_text("\n".join(rows) + "\n")
        ckpt = untrained_checkpoint(tmp_path / "m.ckpt", "classification")
        code, _, err = run(["eval", "--checkpoint", ckpt, "--data", data], capsys)
        assert code == 2
        assert err == f"error: sample {fields[0]} has no class label\n"

    def test_checkpoint_without_channel_stats_exit_2(self, cli_dataset, tmp_path, capsys):
        """Every evaluator standardizes with the stats, so a header without them
        is corrupt, not a model that fails at its first mesh."""
        data = untrained_checkpoint(tmp_path / "m.ckpt", "classification").read_bytes()
        size = struct.unpack_from("<Q", data, 8)[0]
        header = json.loads(data[16 : 16 + size])
        tags = header["blob_order"][-2:]
        assert tags == ["channel_stats.mean", "channel_stats.std"]
        stats_bytes = 8 * sum(header["blob_shapes"].pop(tag)[0] for tag in tags)
        del header["blob_order"][-2:]
        header["has_channel_stats"] = False
        encoded = json.dumps(header).encode()
        ckpt = tmp_path / "no-stats.ckpt"
        ckpt.write_bytes(
            struct.pack("<4sIQ", b"MFCK", 1, len(encoded)) + encoded
            + data[16 + size : len(data) - stats_bytes]
        )
        code, stdout, err = run(["eval", "--checkpoint", ckpt, "--data", cli_dataset], capsys)
        assert code == 2
        assert (stdout, err) == ("", "error: checkpoint header corrupt\n")

    @pytest.mark.parametrize(
        "target", [99.5, "100", True, -5, 0], ids=["float", "string", "bool", "negative", "zero"]
    )
    @pytest.mark.parametrize(
        "command, task", [("eval", "classification"), ("denoise", "denoising")]
    )
    def test_pool_target_of_the_wrong_type_exit_2(
        self, cli_dataset, tmp_path, command, task, target, capsys
    ):
        """A pool target must be a JSON integer of at least 1: read as some other
        integer, it would evaluate a model whose checkpoint re-saves to other
        bytes, and a target below 1 would pool each mesh to exhaustion."""
        data = untrained_checkpoint(tmp_path / "m.ckpt", task).read_bytes()
        size = struct.unpack_from("<Q", data, 8)[0]
        header = json.loads(data[16 : 16 + size])
        (pool,) = [spec for spec in header["layers"] if spec["type"] == "pool"]
        assert pool["target"] == 100
        pool["target"] = target
        encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(struct.pack("<4sIQ", b"MFCK", 1, len(encoded)) + encoded + data[16 + size :])
        code, stdout, err = run([command, "--checkpoint", ckpt, "--data", cli_dataset], capsys)
        assert (code, stdout, err) == (2, "", "error: checkpoint header corrupt\n")

    @pytest.mark.parametrize(
        "layer, key, value", [("relu", "channels", 7), ("mesh_conv", "stride", 1)]
    )
    @pytest.mark.parametrize(
        "command, task", [("eval", "classification"), ("denoise", "denoising")]
    )
    def test_undeclared_spec_key_exit_2(
        self, cli_dataset, tmp_path, command, task, layer, key, value, capsys
    ):
        """A spec key that the layer type does not declare would be dropped on
        re-saving, so the header is corrupt, not a model that loads."""
        data = untrained_checkpoint(tmp_path / "m.ckpt", task).read_bytes()
        size = struct.unpack_from("<Q", data, 8)[0]
        header = json.loads(data[16 : 16 + size])
        spec = next(spec for spec in header["layers"] if spec["type"] == layer)
        spec[key] = value
        encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(struct.pack("<4sIQ", b"MFCK", 1, len(encoded)) + encoded + data[16 + size :])
        code, stdout, err = run([command, "--checkpoint", ckpt, "--data", cli_dataset], capsys)
        assert (code, stdout, err) == (2, "", "error: checkpoint header corrupt\n")

    @pytest.mark.parametrize(
        "edit",
        ["top-level key", "blob_shapes entry", "blob named twice", "blobs swapped", "re-spaced",
         "trailing bytes"],
    )
    @pytest.mark.parametrize(
        "command, task", [("eval", "classification"), ("denoise", "denoising")]
    )
    def test_checkpoint_the_writer_never_writes_exit_2(
        self, cli_dataset, tmp_path, command, task, edit, capsys
    ):
        """Each edit decodes to a model, but re-saves to other bytes: the loader
        accepts only what ``to_bytes`` writes. A blob named twice would
        otherwise evaluate its second copy."""
        data = untrained_checkpoint(tmp_path / "m.ckpt", task).read_bytes()
        end = 16 + struct.unpack_from("<Q", data, 8)[0]
        header = json.loads(data[16:end])
        order, blobs, offset = header["blob_order"], {}, end
        for name in order:
            blobs[name] = data[offset : offset + 8 * math.prod(header["blob_shapes"][name])]
            offset += len(blobs[name])

        def encode(**layout):
            encoded = json.dumps(header, **layout).encode()
            prefix = struct.pack("<4sIQ", b"MFCK", 1, len(encoded))
            return prefix + encoded + b"".join(blobs[name] for name in order)

        canonical = {"sort_keys": True, "separators": (",", ":")}
        assert encode(**canonical) == data
        if edit == "top-level key":
            header["note"] = 1
        elif edit == "blob_shapes entry":
            header["blob_shapes"]["spare"] = [1]
        elif edit == "blob named twice":
            order.append(order[0])
        elif edit == "blobs swapped":
            order[0], order[1] = order[1], order[0]
        edited = encode() if edit == "re-spaced" else encode(**canonical)
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(edited + b"\0" * 8 * (edit == "trailing bytes"))
        code, stdout, err = run([command, "--checkpoint", ckpt, "--data", cli_dataset], capsys)
        assert (code, stdout, err) == (2, "", "error: checkpoint header corrupt\n")

    @pytest.mark.parametrize(
        "key", ["task", "features", "channel_mask", "output_features", "noise_variance", "seed"]
    )
    @pytest.mark.parametrize("value", ["a", ["a"], {"a": 1}, True, None])
    @pytest.mark.parametrize(
        "command, task", [("eval", "classification"), ("denoise", "denoising")]
    )
    def test_meta_of_the_wrong_type_exit_2(
        self, cli_dataset, tmp_path, command, task, key, value, capsys
    ):
        """Each config value a checkpoint's meta carries goes through the config's
        type rule, so a wrong type is a ConfigError, not a raw TypeError."""
        ckpt = Checkpoint.load(untrained_checkpoint(tmp_path / "m.ckpt", task))
        ckpt.meta[key] = value
        ckpt.save(tmp_path / "bad.ckpt")
        code, stdout, err = run(
            [command, "--checkpoint", tmp_path / "bad.ckpt", "--data", cli_dataset], capsys
        )
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("value", [["x"], {"x": 1}, True, None, 1, 1.5])
    @pytest.mark.parametrize(
        "command, task", [("eval", "classification"), ("denoise", "denoising")]
    )
    def test_config_hash_not_a_string_exit_2(
        self, cli_dataset, tmp_path, command, task, value, capsys
    ):
        """Both reports print the meta's config hash, which must be a string."""
        ckpt = Checkpoint.load(untrained_checkpoint(tmp_path / "m.ckpt", task))
        ckpt.meta["config_hash"] = value
        ckpt.save(tmp_path / "bad.ckpt")
        code, stdout, err = run(
            [command, "--checkpoint", tmp_path / "bad.ckpt", "--data", cli_dataset], capsys
        )
        assert (code, stdout) == (2, "")
        assert err == f"error: bad value {value!r} for key 'config_hash'\n"

    @pytest.mark.parametrize(
        "blob, value",
        [("weight", np.nan), ("weight", np.inf), ("std", np.nan), ("mean", np.nan)],
    )
    @pytest.mark.parametrize(
        "command, task", [("eval", "classification"), ("denoise", "denoising")]
    )
    def test_non_finite_checkpoint_exit_2(
        self, cli_dataset, tmp_path, command, task, blob, value, capsys
    ):
        """Training never writes a NaN or an infinity, so a checkpoint holding
        one is corrupt, not a model that evaluates to a number."""
        ckpt = Checkpoint.load(untrained_checkpoint(tmp_path / "m.ckpt", task))
        name, weights = next(iter(ckpt.model.parameters().items()))
        name, array = {
            "weight": (name, weights.data),
            "std": ("channel_stats.std", ckpt.channel_stats.std),
            "mean": ("channel_stats.mean", ckpt.channel_stats.mean),
        }[blob]
        array.reshape(-1)[0] = value
        ckpt.save(tmp_path / "bad.ckpt")
        code, stdout, err = run(
            [command, "--checkpoint", tmp_path / "bad.ckpt", "--data", cli_dataset], capsys
        )
        assert (code, stdout) == (2, "")
        assert err == f"error: checkpoint blob {name} holds a non-finite number\n"

    def test_segmentation_without_edge_labels_exit_2(self, cli_dataset, tmp_path, capsys):
        code, stdout, err = run(
            [
                "train", "--data", cli_dataset, "--out", tmp_path / "m.ckpt",
                "--set", "task=segmentation", "--set", "epochs=1",
                "--set", "conv_channels=4", "--set", "pool_targets=100",
            ],
            capsys,
        )
        assert (code, stdout) == (2, "")
        assert err.endswith("\nerror: sample c00_s000 has no edge labels\n")
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--set", "foo"], "--set expects key=value, got 'foo'"),
            (["--set", "bogus=1"], "unknown config key 'bogus'"),
            (["--set", "epochs=0"], "epochs and batch_size must be positive"),
            (["--config", "nofile"], "no such config file: nofile"),
        ],
    )
    def test_bad_config_exit_2(self, cli_dataset, tmp_path, monkeypatch, args, message, capsys):
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(
            ["train", "--data", cli_dataset, "--out", tmp_path / "m.ckpt", *args], capsys
        )
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("targets", ["110,109", "110,108", "100,99"])
    def test_pool_targets_closer_than_a_collapse_exit_2(self, cli_dataset, tmp_path, targets, capsys):
        """Targets fewer than 3 apart could crash mid-run on a mesh whose
        first stage ends at or below the second target; nothing is trained."""
        code, stdout, err = run(
            [
                "train", "--data", cli_dataset, "--out", tmp_path / "m.ckpt",
                "--set", "conv_channels=4,6", "--set", f"pool_targets={targets}",
            ],
            capsys,
        )
        message = "pool_targets must be positive, each at least 3 below the previous"
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "m.ckpt").exists()
        assert ExperimentConfig(pool_targets=(110, 107)).pool_targets == (110, 107)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_weights_exit_2(self, cli_dataset, tmp_path, capsys):
        """Finite weights whose prediction overflows give no report."""
        ckpt = Checkpoint.load(untrained_checkpoint(tmp_path / "m.ckpt", "denoising"))
        name, weights = list(ckpt.model.parameters().items())[-2]
        weights.data[:] = 1e308
        ckpt.save(tmp_path / "big.ckpt")
        code, stdout, err = run(
            ["denoise", "--checkpoint", tmp_path / "big.ckpt", "--data", cli_dataset], capsys
        )
        assert (code, stdout, err) == (2, "", "error: evaluation gives a non-finite test_mse\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_extreme_blob_values_exit_0_finite_or_2_empty(
        self, cli_dataset, small_checkpoints, data
    ):
        """NaN, infinities, huge and subnormal numbers written at drawn blob
        values: ``eval`` and ``denoise`` print only finite numbers and exit 0,
        or print nothing and exit 2."""
        root, valid = small_checkpoints
        command, task = data.draw(
            st.sampled_from([("eval", "classification"), ("denoise", "denoising")])
        )
        start = 16 + struct.unpack_from("<Q", valid[task], 8)[0]
        mutated = bytearray(valid[task])
        for _ in range(data.draw(st.integers(1, 3))):
            index = data.draw(st.integers(0, (len(mutated) - start) // 8 - 1))
            struct.pack_into("<d", mutated, start + 8 * index, data.draw(st.sampled_from(EXTREMES)))
        path = root / "mutated.ckpt"
        path.write_bytes(bytes(mutated))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--checkpoint", str(path), "--data", str(cli_dataset)])
        if code == 2:
            assert stdout.getvalue() == ""
            return
        assert code == 0
        report = dict(line.split(" = ") for line in stdout.getvalue().splitlines())
        del report["config_hash"]
        report.pop("output_features", None)
        assert all(math.isfinite(float(value)) for value in report.values())

    def test_eval_prints_nothing_on_an_error_exit(self, cli_dataset, tmp_path, capsys):
        """A meta without a seed, or of another task, ends with an empty stdout."""
        ckpt = Checkpoint.load(untrained_checkpoint(tmp_path / "m.ckpt", "classification"))
        del ckpt.meta["seed"]
        ckpt.save(tmp_path / "no-seed.ckpt")
        code, stdout, err = run(
            ["eval", "--checkpoint", tmp_path / "no-seed.ckpt", "--data", cli_dataset], capsys
        )
        assert (code, stdout, err) == (3, "", "error: checkpoint meta has no 'seed'\n")
        ckpt = untrained_checkpoint(tmp_path / "d.ckpt", "denoising")
        code, stdout, err = run(["eval", "--checkpoint", ckpt, "--data", cli_dataset], capsys)
        assert (code, stdout) == (2, "")
        assert err == (
            "error: checkpoint task is denoising, not classification or segmentation\n"
        )

    @pytest.mark.parametrize(
        "command, task", [("eval", "classification"), ("denoise", "denoising")]
    )
    def test_evaluators_read_only_test_meshes(self, cli_dataset, tmp_path, command, task, capsys):
        """A corrupt train-split mesh is never read; a corrupt test mesh still exits 2."""
        data = tmp_path / "data"
        shutil.copytree(cli_dataset, data)
        ckpt = untrained_checkpoint(tmp_path / "m.ckpt", task)
        clean = run([command, "--checkpoint", ckpt, "--data", data], capsys)
        assert clean[0] == 0
        rows = [line.split("\t") for line in (data / "index.tsv").read_text().splitlines()[1:]]
        for split in ("train", "test"):
            for row in rows:
                if row[3] == split:
                    (data / row[1]).write_bytes(b"\xff not an OBJ\n")
            outcome = run([command, "--checkpoint", ckpt, "--data", data], capsys)
            if split == "train":
                assert outcome == clean
            else:
                assert outcome[0] == 2 and outcome[2].startswith("error: ")

    def test_ablate_prints_four_rows(self, cli_dataset, capsys):
        code, stdout, _ = run(
            [
                "ablate", "--data", cli_dataset,
                "--set", "epochs=1", "--set", "conv_channels=4,6",
                "--set", "pool_targets=100,70", "--seed", "2",
            ],
            capsys,
        )
        assert code == 0
        lines = [l for l in stdout.splitlines() if l and not l.startswith(("config", "seed", "dataset"))]
        assert len(lines) == 5  # header + 4 grid rows
        grid = [tuple(l.split()[:2]) for l in lines[1:]]
        assert grid == [
            ("legacy", "meshcnn5"), ("legacy", "ff"),
            ("enhanced", "meshcnn5"), ("enhanced", "ff"),
        ]

    def test_ablate_report_has_each_rows_metrics(self, cli_dataset, tmp_path, capsys):
        """One record per metric of each grid row, tagged with the row's pooling
        and features; the test metric is the one the table prints."""
        report = tmp_path / "ablate.jsonl"
        code, stdout, _ = run(
            [
                "ablate", "--data", cli_dataset, "--report", report,
                "--set", "epochs=1", "--set", "conv_channels=4,6",
                "--set", "pool_targets=100,70", "--seed", "2",
            ],
            capsys,
        )
        assert code == 0
        table = {tuple(l.split()[:2]): l.split()[2] for l in stdout.splitlines()[4:]}
        rows = {}
        for record in map(json.loads, report.read_text().splitlines()):
            rows.setdefault((record.pop("pooling"), record.pop("features")), []).append(record)
        assert list(rows) == list(table)
        for row, records in rows.items():
            metrics = [r["metric"] for r in records]
            assert metrics == ["final_train_loss", "test_accuracy", "train_loss"]
            assert f"{records[1]['value']:.6g}" == table[row]
            assert {r["seed"] for r in records} == {2}


# A 1-epoch segmentation model on xyz inputs, whose accuracy a rotation moves.
SEGMENTATION_EVAL_STDOUT = "config_hash = cf2fc075223a\nseed = 3\nsoft_edge_accuracy = 0.414521\n"


@pytest.fixture(scope="module")
def xyz_segmentation(tmp_path_factory):
    """(dataset, checkpoint) of a 1-epoch xyz segmentation model on limbs."""
    root = tmp_path_factory.mktemp("segmentation")
    data, ckpt = root / "data", root / "m.ckpt"
    assert main(
        [
            "gen-data", "--spec", "articulated-limbs", "--classes", "2",
            "--per-class", "2", "--train-per-class", "1", "--test-per-class", "1",
            "--edge-range", "300,600", "--seed", "3", "--out", str(data),
        ]
    ) == 0
    assert main(
        [
            "train", "--data", str(data), "--out", str(ckpt),
            "--set", "task=segmentation", "--set", "features=xyz", "--set", "epochs=1",
            "--set", "conv_channels=6,8", "--set", "pool_targets=250,200", "--seed", "3",
        ]
    ) == 0
    return data, ckpt


def test_eval_rotate_seed_probes_segmentation(xyz_segmentation, capsys):
    """Without a seed the report is the pinned one; each seed rotates the xyz
    inputs and moves the accuracy."""
    data, ckpt = xyz_segmentation
    outs = [
        run(["eval", "--checkpoint", ckpt, "--data", data, *seed], capsys)
        for seed in ([], ["--rotate-seed", "7"], ["--rotate-seed", "8"])
    ]
    assert outs[0] == (0, SEGMENTATION_EVAL_STDOUT, "")
    assert all(code == 0 for code, _, _ in outs)
    accuracies = {out.splitlines()[-1] for _, out, _ in outs}
    assert len(accuracies) == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("task", ["classification", "segmentation"])
def test_overflow_inside_the_network_exit_2(task, cli_dataset, xyz_segmentation, tmp_path, capsys):
    """With every first-layer weight at 1e308 the InstanceNorm output is NaN,
    which ReLU would pass on as zeros and ``eval`` would score as a finite
    accuracy; the norm refuses it, so there is no report."""
    if task == "classification":
        data, path = cli_dataset, untrained_checkpoint(tmp_path / "m.ckpt", task)
    else:
        data, path = xyz_segmentation
    ckpt = Checkpoint.load(path)
    ckpt.model.parameters()["layer0.weights"].data[:] = 1e308
    ckpt.save(tmp_path / "big.ckpt")
    code, stdout, err = run(["eval", "--checkpoint", tmp_path / "big.ckpt", "--data", data], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: evaluation overflows: layer 1 (instance_norm): non-finite")
    assert err.count("\n") == 1


# Parameters no InstanceNorm scale check sees: the last norm's gamma and beta,
# and the weights of the Dense layer after it. The segmentation model's beta
# at 1e308 leaves its logits finite, so it has no case here.
AFTER_THE_LAST_NORM = {
    "classification": ("layer1.gamma", "layer1.beta", "layer5.weights"),
    "segmentation": ("layer14.gamma", "layer16.weights"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "task, name", [(task, name) for task, names in AFTER_THE_LAST_NORM.items() for name in names]
)
def test_overflow_after_the_last_norm_exit_2(
    task, name, cli_dataset, xyz_segmentation, tmp_path, capsys
):
    """With every value of ``name`` at 1e308 the logits are not finite, and an
    argmax would still score them; ``eval`` prints no report."""
    if task == "classification":
        data, path = cli_dataset, untrained_checkpoint(tmp_path / "m.ckpt", task)
    else:
        data, path = xyz_segmentation
    ckpt = Checkpoint.load(path)
    ckpt.model.parameters()[name].data[:] = 1e308
    ckpt.save(tmp_path / "big.ckpt")
    code, stdout, err = run(["eval", "--checkpoint", tmp_path / "big.ckpt", "--data", data], capsys)
    assert (code, stdout, err) == (
        2, "", "error: evaluation overflows: the model output is not finite\n"
    )


@pytest.mark.parametrize(
    "command, task, layers, shape",
    [
        ("eval", "classification", [], "(252, 2)"),
        ("denoise", "denoising", [GlobalAveragePool()], "(1, 2)"),
    ],
    ids=["no-layers", "gap-only"],
)
def test_output_that_does_not_fit_the_task_exit_2(
    command, task, layers, shape, cli_dataset, tmp_path, capsys
):
    """A class label scores one output row and every other target one row per
    edge; a model of another output shape used to score a finite metric, as an
    argmax over every edge row or a mean broadcast over every edge."""
    meta = {
        "task": task, "features": "ff", "output_features": "ff", "config_hash": "x", "seed": 0,
    }
    ckpt = tmp_path / "m.ckpt"
    Checkpoint(ModelGraph(layers), ChannelStats(np.zeros(2), np.ones(2)), meta).save(ckpt)
    code, stdout, err = run([command, "--checkpoint", ckpt, "--data", cli_dataset], capsys)
    assert (code, stdout) == (2, "")
    assert err == f"error: model output of shape {shape} does not fit a {task} target\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_inside_the_network_while_training_exit_3(cli_dataset, tmp_path, capsys):
    """A step that overflows the next forward is a diverged run, not bad data."""
    code, stdout, err = run(
        [
            "train", "--data", cli_dataset, "--out", tmp_path / "m.ckpt", "--set", "epochs=2",
            "--set", "conv_channels=4", "--set", "pool_targets=100",
            "--set", "learning_rate=1e300",
        ],
        capsys,
    )
    assert (code, stdout) == (3, "")
    assert "layer 1 (instance_norm): non-finite channel scale" in err
    assert not (tmp_path / "m.ckpt").exists()


def test_eval_unreachable_pool_target_exit_3(cli_dataset, tmp_path, capsys):
    """Only an overflow turns a model error in ``eval`` into exit 2."""
    config = ExperimentConfig(conv_channels=(4,), pool_targets=(99999,))
    model = pipelines.build_model(config, config.input_channels(), 2)
    meta = {"task": "classification", "features": "ff", "config_hash": "x", "seed": 0}
    Checkpoint(model, ChannelStats(np.zeros(2), np.ones(2)), meta).save(tmp_path / "m.ckpt")
    code, stdout, err = run(
        ["eval", "--checkpoint", tmp_path / "m.ckpt", "--data", cli_dataset], capsys
    )
    assert (code, stdout) == (3, "")
    assert "layer 3 (pool): pool target 99999 is not below the current edge count" in err

"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable/invalid
inputs), 3 runtime error (diverged training, unreachable pool target, ...).
stdout carries only the documented report of each subcommand; diagnostics and
progress go to stderr.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import numpy as np

from . import datasets as ds
from . import pipelines
from .checkpoint import Checkpoint
from .config import CLASSIFICATION, DENOISING, SEGMENTATION, check_seed, config_hash, parse_config
from .errors import ConfigError, DataError, GraphError, MeshError, MeshFormsError
from .features import (KIND_TOKENS, extract, feature_norms, fit_channel_stats, normalize,
                       write_features)
from .mesh import normalize_unit_box, parse_obj, save_obj
from .pooling import ENHANCED, MIN_TARGET_GAP, POLICIES, pool
from .topology import build_edge_topology, validate_manifold


class _Parser(argparse.ArgumentParser):
    """argparse with the documented exit code for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_mesh(path):
    p = pathlib.Path(path)
    if not p.exists():
        raise DataError(f"no such file: {p}")
    return parse_obj(p.read_bytes())


def _load_topology(path):
    mesh = _load_mesh(path)
    return mesh, build_edge_topology(mesh)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args):
    check_seed(args.seed, "--seed")
    spec = ds.DatasetSpec(
        generator=args.spec,
        classes=args.classes,
        per_class=args.per_class,
        edge_range=tuple(args.edge_range),
        seed=args.seed,
    )
    samples = ds.generate(spec)
    samples = ds.split(samples, args.train_per_class, args.test_per_class, seed=args.seed)
    ds.save_dataset(args.out, samples)
    print(f"seed = {args.seed}")
    print(f"dataset_hash = {ds.dataset_hash(args.out)}")
    print(f"samples = {len(samples)}")
    return 0


def cmd_features(args):
    mesh, topology = _load_topology(args.mesh)
    feats = extract(topology, mesh, KIND_TOKENS[args.kind])
    if args.out:
        pathlib.Path(args.out).write_bytes(write_features(feats))
    if args.heatmap:
        stats = fit_channel_stats([feats])
        norms = feature_norms(normalize(feats, stats))
        save_obj(args.heatmap, mesh, edges=topology.edges, edge_field=norms)
    print(f"edges = {feats.edge_count}")
    print(f"channels = {feats.channels}")
    print(f"kind = {args.kind}")
    return 0


def cmd_pool_trace(args):
    targets = args.targets
    if not targets or any(a - b < MIN_TARGET_GAP for a, b in zip(targets, targets[1:])):
        print(f"error: targets must each be at least {MIN_TARGET_GAP} below the previous",
              file=sys.stderr)
        return 1
    mesh, topology = _load_topology(args.mesh)
    mesh = normalize_unit_box(mesh)
    if targets[0] >= topology.edge_count:
        raise GraphError(
            f"first target {targets[0]} is not below the edge count "
            f"{topology.edge_count}"
        )
    if targets[-1] < 1:
        raise GraphError(f"last target {targets[-1]} is not a positive edge count")
    feats = extract(topology, mesh, KIND_TOKENS[args.features])
    stats = fit_channel_stats([feats])
    values = normalize(feats, stats).values
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    collapse_step = np.full(topology.edge_count, -1, dtype=np.int64)
    original_edges = topology.edges.copy()
    id_map = np.arange(topology.edge_count)  # current edge id -> original id
    step = 0
    current_mesh, current_topology, current_values = mesh, topology, values
    for stage, target in enumerate(targets):
        result = pool(
            current_values, current_topology, target, mesh=current_mesh, policy=args.policy
        )
        for rec in result.history.records:
            for old in rec.removed_edges:
                collapse_step[id_map[old]] = step
            step += 1
        id_map = id_map[result.history.surviving_ids()]
        print(f"stage {stage} (target {target}): {result.stats.summary()}", file=sys.stderr)
        staged = result.state.export_mesh()
        save_obj(out_dir / f"stage_{stage}_{target}.obj", staged)
        (out_dir / f"stage_{stage}_{target}.history.json").write_text(
            result.history.to_json() + "\n"
        )
        current_mesh = staged
        current_topology = result.topology
        current_values = result.features
    order_lines = [
        "%d %d %d" % (u, v, s)
        for (u, v), s in zip(original_edges, collapse_step)
    ]
    (out_dir / "collapse_order.txt").write_text("\n".join(order_lines) + "\n")
    print(f"stages = {len(targets)}")
    print(f"collapses = {step}")
    return 0


def _config_from_args(args):
    text = ""
    if args.config:
        p = pathlib.Path(args.config)
        if not p.exists():
            raise DataError(f"no such config file: {p}")
        text = ds.read_text(p)
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    return parse_config(text, overrides)


def _print_report(report, path=None):
    print(f"config_hash = {report.config_hash}")
    print(f"seed = {report.seed}")
    print(report.human_table())
    if path:
        lines = [json.dumps(r, sort_keys=True) for r in report.to_records()]
        pathlib.Path(path).write_text("\n".join(lines) + "\n")
    print(f"elapsed: {report.wall_clock_s:.1f}s", file=sys.stderr)


def cmd_train(args):
    config = _config_from_args(args)
    samples, dhash = ds.load_dataset_with_hash(args.data)
    print(f"training: hash {config_hash(config)} on {dhash}", file=sys.stderr)
    checkpoint, report = pipelines.train(config, samples, dataset_hash=dhash)
    checkpoint.save(args.out)
    _print_report(report, args.report)
    return 0


def cmd_eval(args):
    if args.rotate_seed is not None:
        check_seed(args.rotate_seed, "--rotate-seed")
    checkpoint = Checkpoint.load(args.checkpoint)
    samples = ds.load_dataset(args.data, keep=ds.in_test_split)
    task, seed = checkpoint.meta_value("task"), checkpoint.meta_value("seed")
    if task not in (CLASSIFICATION, SEGMENTATION):
        raise ConfigError(f"checkpoint task is {task}, not classification or segmentation")
    metrics = pipelines.evaluate(checkpoint, task, samples, rotation_seed=args.rotate_seed)
    print(f"config_hash = {checkpoint.meta_value('config_hash')}")
    print(f"seed = {seed}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g}")
    return 0


def cmd_denoise(args):
    if args.seed is not None:
        check_seed(args.seed, "--seed")
    checkpoint = Checkpoint.load(args.checkpoint)
    samples = ds.load_dataset(args.data, keep=ds.in_test_split)
    metrics = pipelines.evaluate(
        checkpoint, DENOISING, samples, seed=args.seed or 0, variance=args.variance
    )
    print(f"config_hash = {checkpoint.meta_value('config_hash')}")
    print(f"seed = {args.seed or 0}")
    print(f"output_features = {checkpoint.meta_value('output_features')}")
    print(f"model_mse = {metrics['test_mse']:.6g}")
    print(f"identity_mse = {metrics['identity_mse']:.6g}")
    return 0


def cmd_ablate(args):
    config = _config_from_args(args)
    samples, dhash = ds.load_dataset_with_hash(args.data)
    print(f"config_hash = {config_hash(config)}")
    print(f"seed = {config.seed}")
    print(f"dataset_hash = {dhash}")
    rows, table = pipelines.run_ablation(config, samples, dataset_hash=dhash)
    print(table)
    if args.report:
        records = []
        for pooling, feats, report in rows:
            for record in report.to_records():
                records.append({**record, "pooling": pooling, "features": feats})
        pathlib.Path(args.report).write_text(
            "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
        )
    return 0


def cmd_validate(args):
    mesh = _load_mesh(args.mesh)
    report = validate_manifold(mesh)
    print(report.summary())
    return 0 if report.is_clean else 2


def build_parser():
    parser = _Parser(prog="meshforms", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, choices=tuple(ds.GENERATORS))
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--edge-range", type=_int_pair, default=(400, 700), metavar="LO,HI")
    p.add_argument("--train-per-class", type=int, default=16)
    p.add_argument("--test-per-class", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("features", help="extract per-edge features")
    p.add_argument("--mesh", required=True)
    p.add_argument("--kind", required=True, choices=tuple(KIND_TOKENS))
    p.add_argument("--out", help="binary feature container output path")
    p.add_argument("--heatmap", help="OBJ output path; writes a normalized feature-norm sidecar next to it")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("pool-trace", help="export pooled meshes per stage")
    p.add_argument("--mesh", required=True)
    p.add_argument("--features", required=True, choices=tuple(KIND_TOKENS))
    p.add_argument("--targets", type=_int_list, required=True, metavar="N1,N2,...")
    p.add_argument("--policy", choices=POLICIES, default=ENHANCED)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pool_trace)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", help="config file; flags win over file values")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--seed", type=int)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write line-delimited metric records here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--rotate-seed", type=int, help="rotate test meshes first")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("denoise", help="evaluate a denoising checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--variance", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("ablate", help="run the pooling x features grid")
    p.add_argument("--config", help="base config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--seed", type=int)
    p.add_argument("--data", required=True)
    p.add_argument("--report", help="write line-delimited metric records here")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("validate", help="manifold validation report")
    p.add_argument("--mesh", required=True)
    p.set_defaults(func=cmd_validate)

    return parser


def _int_pair(text):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected LO,HI")
    return (int(parts[0]), int(parts[1]))


def _int_list(text):
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        with np.errstate(all="ignore"):  # no warnings: finiteness is checked where it matters
            return args.func(args)
    except (DataError, MeshError, OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MeshFormsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

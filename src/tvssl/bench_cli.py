"""Benchmark harness and command line: run label-scarcity experiments over
the classifier grid and emit error tables.

The work grid is (algorithm x labels-per-class x seed); cells run
independently over shared read-only kernel and graph and results are merged
by grid index, so output is deterministic for a given config regardless of
``--jobs``. Emitted JSON/CSV contain no wall-clock fields and are therefore
byte-stable across reruns.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from importlib import resources

import numpy as np

from . import binary, multiclass
from .data_io import Dataset, SplitSpec, load_csv, make_split, make_two_moons, save_csv
from .errors import InvalidParameterError, TvsslError, check_int, check_real
from .graph import SimilarityGraph, _check_knn_params, build_knn_graph, save_edge_list
from .kernel import KernelMatrix, median_bandwidth, rbf_gram
from .opt_core import HyperParams

_SUPERVISED = {"rls": binary.rls_train, "svm": binary.svm_train}
_SEMI_BINARY = {
    "lap_rls": binary.lap_rls_train,
    "lap_svm": binary.lap_svm_train,
    "tv_rls": binary.tv_rls_train,
    "tv_svm": binary.tv_svm_train,
    "cheeger_rls": binary.cheeger_rls_train,
    "cheeger_svm": binary.cheeger_svm_train,
}
_SEMI_MULTI = {
    "lap_rls_mc": multiclass.lap_rls_mc_train,
    "lap_svm_mc": multiclass.lap_svm_mc_train,
    "tv_rls_mc": multiclass.tv_rls_mc_train,
    "tv_svm_mc": multiclass.tv_svm_mc_train,
    "cheeger_rls_mc": multiclass.cheeger_rls_mc_train,
    "cheeger_svm_mc": multiclass.cheeger_svm_mc_train,
}
ALGORITHMS = tuple(_SUPERVISED) + tuple(_SEMI_BINARY) + tuple(_SEMI_MULTI)


def default_hyperparams(algorithm: str, overrides: dict | None = None) -> HyperParams:
    """Per-algorithm defaults from the shipped config file, plus overrides."""
    text = resources.files("tvssl").joinpath("configs/defaults.json").read_text()
    table = json.loads(text)
    merged = dict(table.get("default", {}))
    merged.update(table.get(algorithm, {}))
    if overrides:
        merged.update(overrides)
    return HyperParams.from_dict(merged, algorithm)


def _section(name: str, spec, keys=None) -> Mapping:
    """``spec`` checked as a mapping, whose keys are all in ``keys`` if given."""
    if not isinstance(spec, Mapping):
        raise InvalidParameterError(f"{name} must be a mapping, got {spec!r}")
    unknown = sorted(set(spec) - set(keys)) if keys is not None else []
    if unknown:
        raise InvalidParameterError(f"unknown {name} key(s): {', '.join(map(repr, unknown))}")
    return spec


# One reader per config section. Each checks its section, so that a bad
# value fails before any fit and not inside a conversion or a solver, and
# returns what run_experiment uses of it, so each default is written once.


def _read_dataset(spec):
    """The dataset section as a call that loads the dataset."""
    kind = _section("dataset", spec).get("type")
    if kind == "two_moons":
        _section("dataset", spec, ("type", "n", "noise", "seed"))
        n, noise, seed = spec.get("n"), spec.get("noise", 0.0), spec.get("seed", 0)
        check_int("dataset n", n, 2)
        check_real("dataset noise", noise, 0.0)
        check_int("dataset seed", seed, 0)
        return functools.partial(make_two_moons, n, float(noise), seed)
    if kind == "csv":
        _section("dataset", spec, ("type", "path", "label_column", "header", "keep_labels"))
        path, column = spec.get("path"), spec.get("label_column", 0)
        header, keep = spec.get("header", False), spec.get("keep_labels")
        if not isinstance(path, str):
            raise InvalidParameterError(f"dataset path must be a string, got {path!r}")
        check_int("dataset label_column", column, None)
        if not isinstance(header, bool):
            raise InvalidParameterError(f"dataset header must be true or false, got {header!r}")
        if keep is not None and not (isinstance(keep, (list, tuple)) and keep):
            raise InvalidParameterError(
                f"dataset keep_labels must be a non-empty list, got {keep!r}"
            )
        for code in keep or ():
            check_real("dataset keep_labels entry", code)
        return functools.partial(
            load_csv, path, label_column=column, header=header, keep_labels=keep
        )
    raise InvalidParameterError(f"unknown dataset type {kind!r}")


def _read_graph(spec) -> dict:
    """The graph section as keyword arguments of :func:`build_knn_graph`,
    checked by the graph module's own rule."""
    _section("graph", spec, ("k", "sigma_mode", "sigma", "m"))
    kwargs = {
        "k": spec.get("k", 10),
        "sigma_mode": spec.get("sigma_mode", "self_tuning"),
        "sigma": spec.get("sigma"),
        "m": spec.get("m"),
    }
    try:
        _check_knn_params(**kwargs)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"graph {exc}") from None
    return kwargs


def _read_kernel(spec):
    """The kernel section as its bandwidth rule: points -> RBF bandwidth, a
    fixed ``bandwidth`` or ``median_factor`` times the median distance."""
    _section("kernel", spec, ("bandwidth", "median_factor"))
    bandwidth, factor = spec.get("bandwidth"), spec.get("median_factor", 1.0)
    check_real("kernel median_factor", factor, 0.0, strict=True)
    if bandwidth is not None:
        check_real("kernel bandwidth", bandwidth, 0.0, strict=True)
        return lambda data: float(bandwidth)
    return lambda data: float(factor * median_bandwidth(data))


@dataclass
class ExperimentConfig:
    """Everything one benchmark run needs; mirrors the JSON config file."""

    dataset: dict
    algorithms: list
    labels_per_class: list
    run_count: int = 10
    seed: int = 0
    graph: dict = field(default_factory=lambda: {"k": 10, "sigma_mode": "self_tuning"})
    kernel: dict = field(default_factory=dict)
    hyperparams: dict = field(default_factory=dict)
    holdout_fraction: float = 0.0

    def __post_init__(self):
        if not self.algorithms:
            raise InvalidParameterError("algorithm list is empty")
        if not isinstance(self.labels_per_class, (list, tuple)) or not self.labels_per_class:
            raise InvalidParameterError("labels_per_class must be a non-empty list")
        for count in self.labels_per_class:
            check_int("labels_per_class entry", count, 1)
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise InvalidParameterError(f"unknown algorithm {a!r}")
        if not isinstance(self.hyperparams, Mapping):
            raise InvalidParameterError("hyperparams must be a mapping of algorithm to overrides")
        unknown = sorted(set(self.hyperparams) - set(ALGORITHMS))
        if unknown:
            raise InvalidParameterError(
                f"unknown algorithm(s) under hyperparams: {', '.join(map(repr, unknown))}"
            )
        for algo, overrides in self.hyperparams.items():
            _section(f"hyperparams[{algo!r}]", overrides)
        check_int("run_count", self.run_count, 1)
        check_int("seed", self.seed, 0)
        _read_dataset(self.dataset)
        _read_graph(self.graph)
        _read_kernel(self.kernel)
        check_real("holdout_fraction", self.holdout_fraction, 0.0)
        if self.holdout_fraction >= 1.0:
            raise InvalidParameterError("holdout_fraction must be < 1")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        """Read a config file; an unreadable file, malformed JSON or a bad
        field raises :class:`InvalidParameterError` naming the file."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise InvalidParameterError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:
            raise InvalidParameterError(f"{path} is not a JSON config: {exc}") from exc
        if not isinstance(doc, dict):
            raise InvalidParameterError(f"{path} is not a JSON config object")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise InvalidParameterError(f"bad experiment config {path}: {exc}") from exc

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CellResult:
    algorithm: str
    labels_per_class: int
    run_errors: list  # float per run, None where a run failed
    failures: list
    wall_time: float = 0.0

    @property
    def failed(self) -> bool:
        return any(e is None for e in self.run_errors)

    @property
    def mean_error(self):
        ok = [e for e in self.run_errors if e is not None]
        return float(np.mean(ok)) if ok else None

    @property
    def std_error(self):
        ok = [e for e in self.run_errors if e is not None]
        return float(np.std(ok)) if ok else None


@dataclass
class ResultTable:
    config: ExperimentConfig
    dataset_name: str
    cells: list


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------


def _fit_once(ds, graph, K, algorithm, hp, split):
    """Train one model; returns (predict(points) callable, transductive labels)."""
    if algorithm in _SEMI_MULTI:
        model = _SEMI_MULTI[algorithm](K, graph, split, hp)
        predict = functools.partial(multiclass.predict_multiclass, model)
        return predict, multiclass.transductive_classes(model)
    if algorithm in _SUPERVISED:
        lab_idx = np.flatnonzero(split.labeled_mask)
        K_sub = KernelMatrix(
            K.values[np.ix_(lab_idx, lab_idx)], K.bandwidth, data=ds.data[lab_idx]
        )
        model = _SUPERVISED[algorithm](K_sub, split.labels[lab_idx], hp)
        trans = binary.predict_binary(model, ds.data)
    else:
        model = _SEMI_BINARY[algorithm](K, graph, split, hp)
        trans = binary.transductive_labels(model)
    return functools.partial(binary.predict_binary, model), trans


def _run_cell(
    ds: Dataset,
    graph: SimilarityGraph,
    K: KernelMatrix,
    algorithm: str,
    hp: HyperParams,
    labels_per_class: int,
    base_seed: int,
    run_count: int,
    holdout: tuple | None,
) -> CellResult:
    """All runs of one (algorithm, labels_per_class) grid cell.

    Transductive mode scores the unlabeled training nodes; when ``holdout``
    carries (points, truth), those are scored inductively instead.
    """
    is_multi = algorithm in _SEMI_MULTI
    if not is_multi and ds.class_count != 2:
        raise InvalidParameterError(
            f"{algorithm} is a binary method, dataset has {ds.class_count} classes"
        )
    errors: list = []
    failures: list = []
    t0 = time.perf_counter()
    for run in range(run_count):
        try:
            split = make_split(
                ds, SplitSpec(labels_per_class, base_seed + run), multiclass=is_multi
            )
            predict, trans = _fit_once(ds, graph, K, algorithm, hp, split)
            if holdout is not None:
                pts, truth = holdout
                pred = predict(pts)
            else:
                eval_idx = np.flatnonzero(~split.labeled_mask)
                pred, truth = trans[eval_idx], ds.true_labels[eval_idx]
            if not is_multi:
                truth = np.where(truth == 1, 1, -1)
            errors.append(
                0.0 if truth.size == 0 else float(100.0 * np.mean(pred != truth))
            )
        except TvsslError as exc:
            errors.append(None)
            failures.append(f"run {run}: {type(exc).__name__}: {exc}")
    return CellResult(
        algorithm,
        labels_per_class,
        errors,
        failures,
        wall_time=time.perf_counter() - t0,
    )


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ResultTable:
    """Run the configured grid and aggregate transductive (or held-out)
    errors. Deterministic for a fixed config: run ``i`` of every cell uses
    split seed ``cfg.seed + i``, and cells merge by grid position. ``jobs``
    worker processes run the cells, at most one per cell."""
    check_int("jobs", jobs, 1)
    full = _read_dataset(cfg.dataset)()
    ds = full
    holdout = None
    if cfg.holdout_fraction > 0.0:
        rng = np.random.default_rng(cfg.seed)
        n_hold = int(round(cfg.holdout_fraction * full.n_points))
        hold_idx = np.sort(rng.choice(full.n_points, size=n_hold, replace=False))
        keep = np.setdiff1d(np.arange(full.n_points), hold_idx)
        ds = Dataset(full.data[keep], full.true_labels[keep], name=full.name)
        holdout = (full.data[hold_idx], full.true_labels[hold_idx])

    needs_graph = any(a not in _SUPERVISED for a in cfg.algorithms)
    graph = build_knn_graph(ds.data, **_read_graph(cfg.graph)) if needs_graph else None
    K = rbf_gram(ds.data, _read_kernel(cfg.kernel)(ds.data))

    payloads = []
    for algo in cfg.algorithms:
        hp = default_hyperparams(algo, cfg.hyperparams.get(algo))
        for lpc in sorted(cfg.labels_per_class):
            payloads.append(
                (ds, graph, K, algo, hp, int(lpc), cfg.seed, cfg.run_count, holdout)
            )
    workers = min(jobs, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_run_cell, *zip(*payloads)))
    else:
        cells = [_run_cell(*p) for p in payloads]
    return ResultTable(cfg, full.name, cells)


# ---------------------------------------------------------------------------
# table emission
# ---------------------------------------------------------------------------


def emit_table(rt: ResultTable, fmt: str = "markdown") -> str:
    """Render the result table. JSON and CSV are byte-stable (no timings);
    markdown is for humans and carries total wall time."""
    if fmt == "json":
        doc = {
            "dataset": rt.dataset_name,
            "config": rt.config.to_dict(),
            "cells": [
                {
                    "algorithm": c.algorithm,
                    "labels_per_class": c.labels_per_class,
                    "mean_error": c.mean_error,
                    "std_error": c.std_error,
                    "run_errors": c.run_errors,
                    "failed": c.failed,
                    "failures": c.failures,
                }
                for c in rt.cells
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        runs = max(len(c.run_errors) for c in rt.cells)
        head = ["algorithm", "labels_per_class", "mean_error", "std_error"]
        head += [f"run_{i}" for i in range(runs)]
        lines = [",".join(head)]
        for c in rt.cells:
            row = [
                c.algorithm,
                str(c.labels_per_class),
                repr(c.mean_error) if c.mean_error is not None else "FAIL",
                repr(c.std_error) if c.std_error is not None else "FAIL",
            ]
            row += [repr(e) if e is not None else "FAIL" for e in c.run_errors]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        label_counts = sorted({c.labels_per_class for c in rt.cells})
        algos = list(dict.fromkeys(c.algorithm for c in rt.cells))
        by_key = {(c.algorithm, c.labels_per_class): c for c in rt.cells}
        header = "| labels per class | " + " | ".join(str(l) for l in label_counts) + " |"
        sep = "|---" * (len(label_counts) + 1) + "|"
        lines = [header, sep]
        for a in algos:
            row = [a]
            for l in label_counts:
                c = by_key.get((a, l))
                if c is None or c.failed or c.mean_error is None:
                    row.append("FAIL")
                else:
                    row.append(f"{c.mean_error:.2f} ± {c.std_error:.2f}")
            lines.append("| " + " | ".join(row) + " |")
        total = sum(c.wall_time for c in rt.cells)
        lines.append("")
        lines.append(f"total wall time: {total:.1f} s")
        return "\n".join(lines) + "\n"
    raise InvalidParameterError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    os.makedirs(args.out, exist_ok=True)  # before fitting: a bad --out fails at once
    rt = run_experiment(cfg, jobs=args.jobs)
    ext = {"markdown": "md", "json": "json", "csv": "csv"}[args.format]
    path = os.path.join(args.out, f"results.{ext}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_table(rt, args.format))
    print(emit_table(rt, "markdown"))
    print(f"wrote {path}")
    return 2 if any(c.failed for c in rt.cells) else 0


def _cmd_gen_moons(args) -> int:
    ds = make_two_moons(args.n, args.noise, args.seed)
    save_csv(ds, args.out)
    print(f"wrote {args.out} ({ds.n_points} points, label column 0)")
    return 0


def _cmd_graph(args) -> int:
    ds = load_csv(args.data, label_column=args.label_column, header=args.header)
    g = build_knn_graph(
        ds.data, args.k, sigma_mode=args.sigma_mode, sigma=args.sigma, m=args.m
    )
    save_edge_list(g, args.out)
    print(f"wrote {args.out} ({g.n_nodes} nodes, {g.n_edges} edges)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tvssl-bench",
        description="Label-scarcity benchmark over kernel/graph classifiers.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a benchmark config")
    run.add_argument("--config", required=True, help="JSON experiment config")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument(
        "--format", choices=("markdown", "json", "csv"), default="json"
    )
    run.add_argument("--jobs", type=int, default=1, help="parallel cell workers")
    run.set_defaults(func=_cmd_run)

    moons = sub.add_parser("gen-moons", help="write a two-moons CSV dataset")
    moons.add_argument("--n", type=int, required=True)
    moons.add_argument("--noise", type=float, default=0.0)
    moons.add_argument("--seed", type=int, default=0)
    moons.add_argument("--out", required=True)
    moons.set_defaults(func=_cmd_gen_moons)

    gr = sub.add_parser("graph", help="build and export a k-NN graph")
    gr.add_argument("--data", required=True, help="input CSV dataset")
    gr.add_argument("--label-column", type=int, default=0)
    gr.add_argument("--header", action="store_true")
    gr.add_argument("--k", type=int, required=True)
    gr.add_argument(
        "--sigma-mode", choices=("self_tuning", "fixed"), default="self_tuning"
    )
    gr.add_argument("--sigma", type=float, default=None)
    gr.add_argument("--m", type=int, default=None)
    gr.add_argument("--out", required=True)
    gr.set_defaults(func=_cmd_graph)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TvsslError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

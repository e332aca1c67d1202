import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from tvssl import bench_cli
from tvssl.bench_cli import (
    ALGORITHMS,
    ExperimentConfig,
    default_hyperparams,
    emit_table,
    main,
    run_experiment,
)
from tvssl.data_io import load_csv
from tvssl.errors import InvalidParameterError
from tvssl.graph import load_edge_list
from tvssl.opt_core import HyperParams


def moons_config(**overrides):
    base = dict(
        dataset={"type": "two_moons", "n": 40, "noise": 0.05, "seed": 1},
        algorithms=["rls", "lap_rls"],
        labels_per_class=[2],
        run_count=2,
        seed=0,
        graph={"k": 5, "sigma_mode": "self_tuning"},
        kernel={"bandwidth": 0.5},
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_to_dict_round_trips_and_writes_tuples_as_lists():
    cfg = moons_config(hyperparams={"lap_rls": {"gamma": 0.5}}, holdout_fraction=0.2)
    assert ExperimentConfig(**cfg.to_dict()) == cfg
    as_tuples = moons_config(algorithms=("rls", "lap_rls"), labels_per_class=(2,))
    assert json.dumps(as_tuples.to_dict()) == json.dumps(moons_config().to_dict())


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        moons_config(algorithms=[])
    with pytest.raises(InvalidParameterError):
        moons_config(algorithms=["nope"])
    with pytest.raises(InvalidParameterError):
        moons_config(labels_per_class=[])
    with pytest.raises(InvalidParameterError):
        moons_config(run_count=0)


def test_default_hyperparams_known_for_all_algorithms():
    for algo in ALGORITHMS:
        hp = default_hyperparams(algo)
        assert hp.tol > 0
    hp = default_hyperparams("tv_rls", {"gamma": 9.5})
    assert hp.gamma == 9.5


# The shipped configuration of every algorithm, written out in full, so that
# a change to HyperParams' defaults or to defaults.json that moves any of it
# fails here.
SHIPPED_FIELDS = (
    "eta", "lam", "gamma", "mu", "r", "r1", "r2", "c", "outer_iters", "inner_iters",
    "tol", "normalize",
)
SHIPPED = {
    "rls":            (1.0, 1e-4, 1.0,  1.0, 1.0, 5.0, 5.0, 1.0, 200, 150, 1e-05, True),
    "svm":            (1.0, 0.01, 1.0, 10.0, 1.0, 5.0, 5.0, 1.0, 200, 150, 1e-05, True),
    "lap_rls":        (1.0, 1e-4, 1.0,  1.0, 1.0, 5.0, 5.0, 1.0, 200, 150, 1e-05, True),
    "lap_svm":        (1.0, 0.01, 1.0,  1.0, 1.0, 5.0, 5.0, 1.0, 200, 150, 1e-05, True),
    "tv_rls":         (1.0, 1e-4, 1.0,  1.0, 1.0, 5.0, 5.0, 1.0, 200, 150, 1e-05, True),
    "tv_svm":         (1.0, 1e-4, 1.0,  0.1, 1.0, 5.0, 5.0, 1.0, 200, 150, 1e-05, True),
    "cheeger_rls":    (1.0, 1e-4, 1.0,  1.0, 1.0, 5.0, 5.0, 1.0, 100, 150, 1e-05, True),
    "cheeger_svm":    (1.0, 1e-4, 1.0,  0.1, 1.0, 5.0, 5.0, 1.0, 100, 150, 1e-05, True),
    "lap_rls_mc":     (1.0, 1e-4, 1.0,  1.0, 1.0, 5.0, 5.0, 1.0,  60, 150, 1e-05, True),
    "lap_svm_mc":     (1.0, 0.01, 1.0,  0.1, 1.0, 5.0, 5.0, 1.0,  30, 150, 1e-05, True),
    "tv_rls_mc":      (1.0, 1e-4, 1.0,  1.0, 5.0, 5.0, 5.0, 1.0, 150, 150, 1e-05, True),
    "tv_svm_mc":      (1.0, 1e-4, 1.0,  0.1, 5.0, 5.0, 5.0, 1.0, 150, 150, 1e-05, True),
    "cheeger_rls_mc": (1.0, 1e-4, 1.0,  1.0, 1.0, 5.0, 5.0, 1.0, 100, 150, 1e-05, True),
    "cheeger_svm_mc": (1.0, 1e-4, 1.0,  0.1, 1.0, 5.0, 5.0, 1.0, 100, 150, 1e-05, True),
}


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_default_hyperparams_are_the_shipped_configuration(algo):
    shipped = dict(zip(SHIPPED_FIELDS, SHIPPED[algo]))
    assert asdict(default_hyperparams(algo)) == shipped
    overrides = {"lam": 0.5, "outer_iters": 7, "normalize": False}
    assert asdict(default_hyperparams(algo, overrides)) == {**shipped, **overrides}


@pytest.mark.parametrize("algo", ["rls", "lap_rls", "tv_rls"])
def test_hyperparams_defaults_are_the_shipped_ones(algo):
    assert HyperParams() == default_hyperparams(algo)


def test_default_hyperparams_reads_the_shipped_file_once_and_returns_fresh_objects(monkeypatch):
    reads = []
    real_files = bench_cli.resources.files

    def counting_files(package):
        reads.append(package)
        return real_files(package)

    bench_cli._shipped_departures.cache_clear()
    monkeypatch.setattr(bench_cli.resources, "files", counting_files)
    first = default_hyperparams("svm")
    first.lam, first.mu = 7.0, 3.0  # changing one result ...
    assert default_hyperparams("svm", {"mu": 2.0}).mu == 2.0
    again = default_hyperparams("svm")
    assert (again.lam, again.mu) == (0.01, 10.0)  # ... leaves the next one unchanged
    assert again is not default_hyperparams("svm")
    assert len(reads) == 1
    with pytest.raises(InvalidParameterError, match="'bogus'"):
        default_hyperparams("svm", {"bogus": 1.0})
    assert asdict(default_hyperparams("svm")) == asdict(again)


def test_default_hyperparams_rejects_an_unknown_algorithm():
    with pytest.raises(InvalidParameterError, match="'lap_svmm'"):
        default_hyperparams("lap_svmm")
    with pytest.raises(InvalidParameterError, match="'default'"):
        default_hyperparams("default")


def test_readme_quick_start_runs_with_the_shipped_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(code, "README.md quick start", "exec"), scope)
    assert scope["hp"] == default_hyperparams("tv_rls")
    assert scope["pred"].shape == (200,) and scope["new"].shape == (5,)


def test_fully_labeled_separable_gives_zero_error():
    cfg = moons_config(
        algorithms=["rls"], labels_per_class=[20], run_count=1
    )  # every point labeled: transductive set empty
    rt = run_experiment(cfg)
    assert rt.cells[0].mean_error == 0.0


def test_rerun_identical_and_json_deterministic():
    cfg = moons_config()
    rt1 = run_experiment(cfg)
    rt2 = run_experiment(cfg)
    assert emit_table(rt1, "json") == emit_table(rt2, "json")
    assert emit_table(rt1, "csv") == emit_table(rt2, "csv")


def test_harness_matches_hand_counted_error(tmp_path):
    import tvssl

    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 2)) * 0.2
    b = rng.normal(size=(5, 2)) * 0.2 + np.array([5.0, 0.0])
    X = np.vstack([a, b])
    ds = tvssl.Dataset(X, np.repeat([1, 2], 5))
    path = tmp_path / "ten.csv"
    tvssl.save_csv(ds, path)

    cfg = ExperimentConfig(
        dataset={"type": "csv", "path": str(path)},
        algorithms=["rls"],
        labels_per_class=[1],
        run_count=1,
        seed=0,
        graph={"k": 3},
        kernel={"bandwidth": 1.0},
    )
    rt = run_experiment(cfg)

    from tvssl.data_io import SplitSpec, make_split
    from tvssl.binary import rls_train, predict_binary
    from tvssl.kernel import KernelMatrix, rbf_gram

    split = make_split(ds, SplitSpec(1, 0))
    lab = np.flatnonzero(split.labeled_mask)
    K = rbf_gram(X, 1.0)
    K_sub = KernelMatrix(K.values[np.ix_(lab, lab)], 1.0, data=X[lab])
    model = rls_train(K_sub, split.labels[lab], default_hyperparams("rls"))
    un = np.flatnonzero(~split.labeled_mask)
    pred = predict_binary(model, X[un])
    truth = np.where(ds.true_labels == 1, 1, -1)[un]
    by_hand = 100.0 * sum(int(p != t) for p, t in zip(pred, truth)) / len(un)
    assert rt.cells[0].run_errors[0] == pytest.approx(by_hand, abs=1e-12)


def test_failed_cell_marked_and_rendered(tmp_path):
    # labels_per_class exceeding the class size fails inside each run
    cfg = moons_config(labels_per_class=[2, 1000], run_count=1)
    rt = run_experiment(cfg)
    failed = [c for c in rt.cells if c.labels_per_class == 1000]
    good = [c for c in rt.cells if c.labels_per_class == 2]
    assert all(c.failed for c in failed) and all(not c.failed for c in good)
    md = emit_table(rt, "markdown")
    assert "FAIL" in md
    doc = json.loads(emit_table(rt, "json"))
    bad_cells = [c for c in doc["cells"] if c["labels_per_class"] == 1000]
    assert all(c["failed"] for c in bad_cells)
    assert all(c["run_errors"] == [None] for c in bad_cells)


def test_json_and_csv_agree_on_means():
    rt = run_experiment(moons_config())
    doc = json.loads(emit_table(rt, "json"))
    csv_lines = emit_table(rt, "csv").strip().splitlines()
    header = csv_lines[0].split(",")
    mi = header.index("mean_error")
    for cell, line in zip(doc["cells"], csv_lines[1:]):
        assert float(line.split(",")[mi]) == cell["mean_error"]


def test_markdown_layout_algorithms_by_label_counts():
    cfg = moons_config(labels_per_class=[4, 2], run_count=1)
    md = emit_table(run_experiment(cfg), "markdown")
    lines = md.splitlines()
    assert lines[0].startswith("| labels per class | 2 | 4 |")  # ascending
    assert lines[2].startswith("| rls |")
    assert lines[3].startswith("| lap_rls |")


def test_jobs_parallel_matches_serial():
    cfg = moons_config()
    a = emit_table(run_experiment(cfg, jobs=1), "json")
    b = emit_table(run_experiment(cfg, jobs=2), "json")
    assert a == b


def test_jobs_capped_at_cell_count_and_below_one_rejected(monkeypatch):
    workers = []

    class InProcessPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(bench_cli, "ProcessPoolExecutor", InProcessPool)
    cfg = moons_config()  # two cells
    serial = emit_table(run_experiment(cfg), "json")
    assert emit_table(run_experiment(cfg, jobs=32), "json") == serial
    assert workers == [2]
    for jobs in (0, -3):
        with pytest.raises(InvalidParameterError, match="jobs"):
            run_experiment(cfg, jobs=jobs)


def test_shipped_configs_construct():
    paths = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
    assert paths
    for path in paths:
        ExperimentConfig.from_json(path)


def test_holdout_inductive_mode():
    cfg = moons_config(holdout_fraction=0.2, algorithms=["rls", "tv_rls"])
    rt = run_experiment(cfg)
    assert all(not c.failed for c in rt.cells)
    for c in rt.cells:
        assert 0.0 <= c.mean_error <= 100.0


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_gen_moons_and_graph_and_run(tmp_path, capsys):
    moons = tmp_path / "moons.csv"
    assert main(["gen-moons", "--n", "40", "--noise", "0.05", "--seed", "1",
                 "--out", str(moons)]) == 0
    ds = load_csv(moons)
    assert ds.n_points == 40 and ds.class_count == 2

    gpath = tmp_path / "graph.txt"
    assert main(["graph", "--data", str(moons), "--k", "5",
                 "--out", str(gpath)]) == 0
    g = load_edge_list(gpath)
    assert g.n_nodes == 40

    cfg = {
        "dataset": {"type": "csv", "path": str(moons)},
        "algorithms": ["rls", "lap_rls"],
        "labels_per_class": [2],
        "run_count": 2,
        "seed": 0,
        "graph": {"k": 5},
        "kernel": {"bandwidth": 0.5},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_dir),
                 "--format", "json"]) == 0
    doc = json.loads((out_dir / "results.json").read_text())
    assert len(doc["cells"]) == 2
    capsys.readouterr()


def test_cli_exit_code_two_on_failure(tmp_path, capsys):
    cfg = {
        "dataset": {"type": "two_moons", "n": 20, "noise": 0.05, "seed": 1},
        "algorithms": ["rls"],
        "labels_per_class": [500],
        "run_count": 1,
        "seed": 0,
        "kernel": {"bandwidth": 0.5},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_misspelled_hyperparameter_is_a_clean_error():
    with pytest.raises(InvalidParameterError, match="'gama'"):
        default_hyperparams("tv_rls", {"gama": 0.5})


def test_cli_misspelled_hyperparameter_exits_one(tmp_path, capsys):
    cfg = {
        "dataset": {"type": "two_moons", "n": 20, "noise": 0.05, "seed": 1},
        "algorithms": ["lap_rls"],
        "labels_per_class": [2],
        "run_count": 1,
        "seed": 0,
        "kernel": {"bandwidth": 0.5},
        "hyperparams": {"lap_rls": {"gama": 0.5}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'gama'" in err[0]


@pytest.mark.parametrize(
    "field, value", [("outer_iters", 2.5), ("lam", float("nan"))]
)
def test_cli_bad_hyperparameter_value_exits_one_before_fitting(
    tmp_path, capsys, monkeypatch, field, value
):
    cfg = moons_config().to_dict()
    cfg["hyperparams"] = {"lap_rls": {field: value}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))  # NaN is written as the bare token

    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before the hyperparameters were checked")

    monkeypatch.setattr(bench_cli, "_fit_once", no_fit)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and field in err[0]


@pytest.mark.parametrize(
    "key, value",
    [
        ("run_count", 1.5),
        ("run_count", True),
        ("run_count", 0),
        ("seed", 1.5),
        ("seed", False),
        ("seed", -1),
        ("labels_per_class", [0]),
        ("labels_per_class", [1.5]),
        ("labels_per_class", [2, True]),
        ("labels_per_class", 2),
        ("hyperparams", {"lap_rls": 5}),
        ("hyperparams", ["lap_rls"]),
        ("holdout_fraction", False),
        ("holdout_fraction", "0.2"),
    ],
)
def test_cli_bad_config_value_exits_one_before_fitting(
    tmp_path, capsys, monkeypatch, key, value
):
    cfg = moons_config().to_dict()
    cfg[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before the config was checked")

    monkeypatch.setattr(bench_cli, "_fit_once", no_fit)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and key in err[0]


def _two_moons_without_n(cfg):
    del cfg["dataset"]["n"]
    return json.dumps(cfg)


def _graph_k_not_int(cfg):
    cfg["graph"] = {"k": "x"}
    return json.dumps(cfg)


def _with(section, spec):
    """Config text with one section replaced by ``spec``."""
    return lambda cfg: json.dumps({**cfg, section: spec})


_CSV = {"type": "csv", "path": "data.csv"}


@pytest.mark.parametrize(
    "config_text, message",
    [
        (lambda cfg: "{not json", "not a JSON config"),
        (None, "cannot read config"),
        (_two_moons_without_n, "dataset n"),
        (_graph_k_not_int, "graph k"),
        (_with("dataset", {"type": "two_moons", "n": 40, "nosie": 0.1}), "'nosie'"),
        (_with("dataset", {**_CSV, "label_col": 1}), "'label_col'"),
        (_with("graph", {"K": 3}), "'K'"),
        (_with("kernel", {"median_factr": 0.5}), "'median_factr'"),
        (_with("dataset", {**_CSV, "header": "no"}), "dataset header"),
        (_with("dataset", {**_CSV, "keep_labels": 4}), "dataset keep_labels"),
        (_with("dataset", {**_CSV, "keep_labels": ["4", 9]}), "dataset keep_labels entry"),
        (_with("kernel", {"bandwidth": 0.0}), "kernel bandwidth"),
        (_with("kernel", {"median_factor": 0.0}), "kernel median_factor"),
        (_with("graph", {"k": 5, "sigma_mode": "fixed", "sigma": 0.0}), "graph sigma"),
        (_with("graph", {"k": 5, "sigma": 0.5}), "graph sigma"),
        (_with("graph", {"k": 5, "sigma_mode": "fixed", "sigma": 0.5, "m": 3}), "graph m"),
    ],
    ids=[
        "not_json",
        "missing_file",
        "two_moons_without_n",
        "graph_k_not_int",
        "two_moons_unknown_key",
        "csv_unknown_key",
        "graph_unknown_key",
        "kernel_unknown_key",
        "csv_header_not_bool",
        "csv_keep_labels_not_list",
        "csv_keep_labels_not_numbers",
        "kernel_bandwidth_zero",
        "kernel_median_factor_zero",
        "graph_fixed_sigma_zero",
        "graph_sigma_without_fixed_mode",
        "graph_m_with_fixed_mode",
    ],
)
def test_cli_bad_config_file_exits_one_before_fitting(
    tmp_path, capsys, monkeypatch, config_text, message
):
    cfg_path = tmp_path / "cfg.json"
    if config_text is not None:
        cfg_path.write_text(config_text(moons_config().to_dict()))

    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before the config was checked")

    monkeypatch.setattr(bench_cli, "run_experiment", no_fit)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]


def test_misspelled_algorithm_under_hyperparams_is_rejected(tmp_path, capsys):
    with pytest.raises(InvalidParameterError, match="'rsl'"):
        moons_config(hyperparams={"rsl": {"lam": 5.0}})
    cfg = moons_config().to_dict()
    cfg["hyperparams"] = {"lap_rls": {"gamma": 0.5}, "rsl": {"lam": 5.0}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'rsl'" in err[0]


@pytest.mark.parametrize(
    "overrides",
    [{"svm": {"lamb": 1}}, {"svm": {"use_bias": True}}, {"lap_rls": {"lam": -1.0}}],
    ids=["misspelled", "retired", "out_of_range"],
)
def test_cli_bad_hyperparameters_fail_at_load_and_leave_no_out_directory(
    tmp_path, capsys, monkeypatch, overrides
):
    with pytest.raises(InvalidParameterError):
        moons_config(hyperparams=overrides)
    cfg = moons_config().to_dict()
    cfg["hyperparams"] = overrides
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    def no_setup(*args, **kwargs):
        raise AssertionError("set up the run before the hyperparameters were checked")

    monkeypatch.setattr(bench_cli, "run_experiment", no_setup)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_cli_out_path_is_checked_before_fitting(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(moons_config().to_dict()))
    out = tmp_path / "taken"
    out.write_text("a file, not a directory")

    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before the output directory was checked")

    monkeypatch.setattr(bench_cli, "run_experiment", no_fit)
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(out) in err[0]


@pytest.mark.parametrize(
    "options, message",
    [
        (["--sigma", "0.3"], "sigma applies only"),
        (["--sigma-mode", "fixed", "--sigma", "0.3", "--m", "2"], "m applies only"),
    ],
    ids=["sigma_self_tuning", "m_fixed"],
)
def test_cli_graph_rejects_a_parameter_its_mode_ignores(tmp_path, capsys, options, message):
    moons = tmp_path / "moons.csv"
    assert main(["gen-moons", "--n", "40", "--noise", "0.05", "--out", str(moons)]) == 0
    out = tmp_path / "g.txt"
    assert main(["graph", "--data", str(moons), "--k", "5", *options, "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "graph", "gen-moons"])
def test_cli_file_error_prints_one_line_and_exits_one(tmp_path, capsys, command):
    missing = tmp_path / "missing_dir" / "x.csv"
    if command == "run":
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(_with("dataset", {"type": "csv", "path": str(missing)})(
            moons_config().to_dict()
        ))
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    elif command == "graph":
        argv = ["graph", "--data", str(missing), "--k", "5", "--out", str(tmp_path / "g.txt")]
    else:
        argv = ["gen-moons", "--n", "20", "--out", str(missing)]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(missing) in err[0]


def test_cli_run_byte_identical_outputs(tmp_path, capsys):
    cfg = {
        "dataset": {"type": "two_moons", "n": 30, "noise": 0.05, "seed": 3},
        "algorithms": ["rls", "lap_rls"],
        "labels_per_class": [2],
        "run_count": 2,
        "seed": 0,
        "graph": {"k": 4},
        "kernel": {"bandwidth": 0.5},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("o1", "o2"):
        assert main(["run", "--config", str(cfg_path), "--out",
                     str(tmp_path / name), "--format", "json"]) == 0
        outs.append((tmp_path / name / "results.json").read_bytes())
    assert outs[0] == outs[1]
    capsys.readouterr()

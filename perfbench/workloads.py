"""The benchmark's workloads and the checks on what each fit returns.

Every workload draws its inputs from the ``--seed`` it is given; the library
only ever sees the generated points, splits and configs. ``setup`` builds
the inputs once and makes a warm-up fit; ``run_pass`` draws fresh inputs
and runs them through every trainer of the workload, so every pass does the
same kind of work.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# Library functions are looked up on their modules at call time, so that
# the tracer's wrappers see the benchmark's own calls too.
from tvssl import bench_cli, binary, data_io, graph, kernel, multiclass
from tvssl.data_io import Dataset, SplitSpec
from tvssl.errors import TvsslError

CELLS = ("lap_rls", "lap_svm", "tv_rls", "tv_svm", "cheeger_rls", "cheeger_svm")


@dataclass
class Fit:
    """One top-level trainer call: its cell, wall time and outcome."""

    cell: str
    seconds: float
    failed: bool
    error_pct: float | None = None


class FitRecorder:
    """Times every top-level trainer call and checks that what it returns is
    finite. Nested trainer calls (``lap_svm_train`` warm-starting from
    ``lap_rls_train``) belong to the outer fit and are not recorded.

    While ``repeat_share`` is above zero, every top-level fit is followed by
    repeats of the last lap_rls fit on its own inputs, once and then until
    that share of the fit's time has passed. The repeats spread many small
    lap_rls timings over a run, are not recorded as fits, and their wall
    times go to ``repeats`` and their total to ``repeat_s``.
    """

    def __init__(self, patches):
        self.fits: list[Fit] = []
        self.repeats: list[float] = []
        self.repeat_s = 0.0
        self.repeat_share = 0.0
        self._lap_rls_call = None
        self._depth = 0
        for module, suffix in ((binary, "_train"), (multiclass, "_mc_train")):
            for cell in CELLS:
                fn = getattr(module, cell + suffix)
                patches.replace_everywhere(fn, self._wrap(cell, fn))

    def _wrap(self, cell, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            t0 = clock()
            try:
                model = fn(*args, **kwargs)
            except TvsslError:
                self.fits.append(Fit(cell, clock() - t0, failed=True))
                raise
            finally:
                self._depth -= 1
            seconds = clock() - t0
            arrays = (getattr(model, a, None) for a in ("alpha", "alphas", "node_values"))
            finite = all(np.all(np.isfinite(a)) for a in arrays if a is not None)
            self.fits.append(Fit(cell, seconds, failed=not finite))
            if cell == "lap_rls":
                self._lap_rls_call = (fn, args, kwargs)
            if self.repeat_share and self._lap_rls_call:
                self._repeat_lap_rls(self.repeat_share * seconds)
            return model

        return wrapper

    def _repeat_lap_rls(self, seconds: float) -> None:
        clock = time.perf_counter
        fn, args, kwargs = self._lap_rls_call
        spent = 0.0
        while not spent or spent < seconds:
            t0 = clock()
            fn(*args, **kwargs)
            self.repeats.append(clock() - t0)
            spent += self.repeats[-1]
        self.repeat_s += spent


def _error_pct(pred, truth) -> float:
    return 0.0 if truth.size == 0 else float(100.0 * np.mean(pred != truth))


def _split_seed(rng) -> int:
    return int(rng.integers(2**31))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    """A named input family: how to set it up and how to run one pass.

    ``ceilings`` is the largest error (percent) each cell may reach on its
    typical split, the median over a run's splits; ``layers`` are the spans
    that must record calls in a traced run, so that a refactor which
    reroutes a call cannot silently zero a layer.
    """

    name: str
    cells: tuple
    ceilings: dict
    layers: tuple
    hyperparams: dict = field(default_factory=dict)

    def hp(self, cell: str, trainer: str):
        return bench_cli.default_hyperparams(trainer, self.hyperparams.get(cell))

    def failed(self, fit: Fit) -> bool:
        """A fit fails if it raised a ``TvsslError`` or returned non-finite
        values."""
        return fit.failed or fit.error_pct is None

    def above_ceiling(self, fit: Fit) -> bool:
        """The fit ran but scored above its cell's ceiling on its split."""
        return not self.failed(fit) and fit.error_pct > self.ceilings[fit.cell]

    def cells_above_ceiling(self, fits) -> dict:
        """Cells whose median error over the run's splits is above their
        ceiling, with that median.

        Acceptance criterion 6 bounds the mean error over ten splits, not
        the error of each split: at one label per class, a split whose two
        labels sit on the interleaved moon tips can leave the Cheeger
        descent at a local minimum and the lap_svm pseudo-labels on the
        wrong moon (about 64% error on such a split). A run holds about
        five splits, so its median is the typical error a broken trainer
        would still move, and ``above_ceiling_frac`` counts the hard splits.
        """
        out = {}
        for cell in self.cells:
            errors = [f.error_pct for f in fits if f.cell == cell and not self.failed(f)]
            if errors and statistics.median(errors) > self.ceilings[cell]:
                out[cell] = statistics.median(errors)
        return out


class MoonsGrid(Workload):
    """``run_experiment`` on the shape of ``configs/two_moons.json``: two moons
    at n = 200, the six binary semi-supervised trainers, one label per
    class. Each pass is one grid on a fresh dataset and split seed."""

    N, NOISE, KNN = 200, 0.08, 10

    def setup(self, seed: int):
        ds = data_io.make_two_moons(self.N, self.NOISE, seed)
        g = graph.build_knn_graph(ds.data, self.KNN)
        K = kernel.rbf_gram(ds.data, 0.5 * kernel.median_bandwidth(ds.data))
        split = data_io.make_split(ds, SplitSpec(1, seed))
        binary.lap_rls_train(K, g, split, self.hp("lap_rls", "lap_rls"))

    def run_pass(self, pass_seed: int, recorder) -> list:
        rng = np.random.default_rng(pass_seed)
        data_seed, split_seed = _split_seed(rng), _split_seed(rng)
        cfg = bench_cli.ExperimentConfig(
            dataset={"type": "two_moons", "n": self.N, "noise": self.NOISE, "seed": data_seed},
            algorithms=list(self.cells),
            labels_per_class=[1],
            run_count=1,
            seed=split_seed,
            graph={"k": self.KNN, "sigma_mode": "self_tuning"},
            kernel={"bandwidth": None, "median_factor": 0.5},
        )
        start = len(recorder.fits)
        table = bench_cli.run_experiment(cfg, jobs=1)
        timed = {f.cell: f for f in recorder.fits[start:]}
        out = []
        for cell in table.cells:
            # a run that failed before reaching its trainer has no timing
            fit = timed.get(cell.algorithm) or Fit(cell.algorithm, 0.0, failed=True)
            fit.error_pct = cell.run_errors[0]
            out.append(fit)
        return out


class _DirectWorkload(Workload):
    """Fits scored the way ``bench_cli`` scores one run of a cell. Setup
    builds the inputs for ``--seed`` and fits once; each pass builds a fresh
    dataset, graph and Gram matrix and fits every cell on one fresh split."""

    multi = False
    labels_per_class = 1

    def setup(self, seed: int):
        self._score(self._inputs(seed), self.cells[0], 0)  # warm-up fit

    def _trainer(self, cell):
        if self.multi:
            return getattr(multiclass, cell + "_mc_train"), cell + "_mc"
        return getattr(binary, cell + "_train"), cell

    def _prepare(self, train: Dataset, holdout):
        g = graph.build_knn_graph(train.data, self.KNN)
        K = kernel.rbf_gram(train.data, 0.5 * kernel.median_bandwidth(train.data))
        return train, g, K, holdout

    def _score(self, state, cell, split_seed):
        """Fit one cell on one split; its error in percent, None on failure."""
        train, g, K, holdout = state
        fn, trainer = self._trainer(cell)
        try:
            split = data_io.make_split(
                train, SplitSpec(self.labels_per_class, split_seed), multiclass=self.multi
            )
            model = fn(K, g, split, self.hp(cell, trainer))
            unlabeled = ~split.labeled_mask
            if holdout is not None:
                pts, truth = holdout
                pred, truth = binary.predict_binary(model, pts), np.where(truth == 1, 1, -1)
            elif self.multi:
                pred = multiclass.transductive_classes(model)[unlabeled]
                truth = train.true_labels[unlabeled]
            else:
                pred = binary.transductive_labels(model)[unlabeled]
                truth = np.where(train.true_labels[unlabeled] == 1, 1, -1)
            return _error_pct(pred, truth)
        except TvsslError:
            return None

    def run_pass(self, pass_seed: int, recorder) -> list:
        rng = np.random.default_rng(pass_seed)
        state = self._inputs(_split_seed(rng))
        split_seed = _split_seed(rng)
        out = []
        for cell in self.cells:
            start = len(recorder.fits)
            error = self._score(state, cell, split_seed)
            timed = recorder.fits[start:]
            fit = timed[0] if timed else Fit(cell, 0.0, failed=True)
            fit.error_pct = error
            out.append(fit)
        return out


class MoonsLarge(_DirectWorkload):
    """Two moons at n = 2000 with a held-out fifth; lap_rls and lap_svm,
    scored inductively through ``kernel_expand``. Five labels per class, so
    that one split's held-out error can be held to a ceiling."""

    N, NOISE, KNN, HOLDOUT = 2000, 0.08, 10, 0.2
    labels_per_class = 5

    def _inputs(self, seed: int):
        full = data_io.make_two_moons(self.N, self.NOISE, seed)
        rng = np.random.default_rng(seed)
        hold = np.sort(rng.choice(self.N, size=int(self.HOLDOUT * self.N), replace=False))
        keep = np.setdiff1d(np.arange(self.N), hold)
        train = Dataset(full.data[keep], full.true_labels[keep], name=full.name)
        return self._prepare(train, (full.data[hold], full.true_labels[hold]))


def make_classes(n: int, c: int, spread: float, seed: int) -> Dataset:
    """``c`` Gaussian clusters of ``n // c`` points each with standard
    deviation ``spread``, centred on a circle of radius 2; cluster ``k`` is
    class ``k``."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % c + 1
    angle = 2.0 * np.pi * (labels - 1) / c
    centres = 2.0 * np.column_stack([np.cos(angle), np.sin(angle)])
    points = centres + rng.normal(scale=spread, size=(n, 2))
    return Dataset(points, labels, name=f"classes(n={n},c={c},seed={seed})")


class ClassesMc(_DirectWorkload):
    """A generated 3-class set through the six ``*_mc`` trainers, ten
    labels per class, with a fresh dataset and split in every pass. The
    outer iteration caps are a twentieth of the shipped defaults so that
    several passes fit one run; each outer iteration does the same work as
    with the defaults."""

    N, C, SPREAD, KNN = 150, 3, 0.45, 10
    multi = True
    labels_per_class = 10

    def _inputs(self, seed: int):
        return self._prepare(make_classes(self.N, self.C, self.SPREAD, seed), None)


_LAYERS_ALWAYS = (
    "opt_core.LuFactor.factor",
    "opt_core.LuFactor.solve",
    "opt_core.qp_box_eq",
    "opt_core.project_box_eq",
    "graph.build_knn_graph",
    "kernel.rbf_gram",
    "kernel.median_bandwidth",
    "data_io.make_split",
)
_TV_LAYERS = ("opt_core.tv_prox", "opt_core.SpdFactor.factor", "opt_core.SpdFactor.solve")


def _mc_iters(divisor: int) -> dict:
    out = {}
    for cell in CELLS:
        default = bench_cli.default_hyperparams(cell + "_mc").outer_iters
        out[cell] = {"outer_iters": max(1, default // divisor)}
    return out


WORKLOADS = {w.name: w for w in (
    MoonsGrid(
        "moons_grid",
        CELLS,
        # criterion 6's 10% for TV/Cheeger. Criterion 6 sets no ceiling for
        # the Laplacian baselines; one label per class can leave them at a
        # constant prediction, which scores 50% on the balanced moons.
        {c: (50.0 if c.startswith("lap") else 10.0) for c in CELLS},
        _LAYERS_ALWAYS + _TV_LAYERS + ("bench_cli.run_experiment",)
        + tuple(f"binary.{c}_train" for c in CELLS),
    ),
    MoonsLarge(
        "moons_large",
        ("lap_rls", "lap_svm"),
        {"lap_rls": 40.0, "lap_svm": 40.0},
        _LAYERS_ALWAYS + ("kernel.kernel_expand", "binary.lap_rls_train", "binary.lap_svm_train"),
    ),
    ClassesMc(
        "classes_mc",
        CELLS,
        {c: 20.0 for c in CELLS},
        _LAYERS_ALWAYS + _TV_LAYERS + ("opt_core.project_simplex_rows",)
        + tuple(f"multiclass.{c}_mc_train" for c in CELLS),
        hyperparams=_mc_iters(20),
    ),
)}

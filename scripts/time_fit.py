#!/usr/bin/env python3
"""Time one trainer on a synthetic set, with one BLAS thread.

A binary trainer fits two moons of ``--n`` points (noise 0.08); a ``*_mc``
trainer fits three Gaussian clusters of ``n // 3`` points each (standard
deviation 0.45, centres on a circle of radius 2). Either builds the k = 10
self-tuning graph, the RBF Gram matrix at half the median bandwidth and a
split with one label per class, then fits the trainer with its shipped
default hyperparameters ``--repeats`` times. Prints one JSON line: every
fit's wall time, the transductive error, a hash of the fitted coefficients
and the margin duals' work in one fit (``qp_solves``, ``qp_iters``, the
projected-gradient iterations, and ``qp_face_steps``, the Newton steps on a
settled face; all 0 for the least-squares trainers), so that two versions
of the library can be compared on equal inputs:

    PYTHONPATH=src python3 scripts/time_fit.py --algorithm cheeger_svm --n 1200
    PYTHONPATH=src python3 scripts/time_fit.py --algorithm lap_svm_mc --n 1200
"""

import argparse
import hashlib
import json
import os
import sys
import time

SEMI_SUPERVISED = ("lap_rls", "lap_svm", "tv_rls", "tv_svm", "cheeger_rls", "cheeger_svm")
ALGORITHMS = SEMI_SUPERVISED + tuple(a + "_mc" for a in SEMI_SUPERVISED)


def three_classes(n: int, seed: int):
    """``n // 3`` points per class in three Gaussian clusters of standard
    deviation 0.45, centred on a circle of radius 2; point i is in class
    ``i % 3 + 1``."""
    import numpy as np

    from tvssl.data_io import Dataset

    rng = np.random.default_rng(seed)
    labels = np.arange(3 * (n // 3)) % 3 + 1
    angle = 2.0 * np.pi * (labels - 1) / 3
    centres = 2.0 * np.column_stack([np.cos(angle), np.sin(angle)])
    points = centres + rng.normal(scale=0.45, size=(labels.size, 2))
    return Dataset(points, labels, name=f"three_classes(n={labels.size},seed={seed})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--algorithm", default="cheeger_svm", choices=ALGORITHMS)
    ap.add_argument("--n", type=int, default=1200)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=1)
    args = ap.parse_args(argv)

    # BLAS reads its thread count when numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import numpy as np

    from tvssl import binary, multiclass
    from tvssl.bench_cli import default_hyperparams
    from tvssl.data_io import SplitSpec, make_split, make_two_moons
    from tvssl.graph import build_knn_graph
    from tvssl.kernel import median_bandwidth, rbf_gram

    multi = args.algorithm.endswith("_mc")
    ds = three_classes(args.n, args.seed) if multi else make_two_moons(args.n, 0.08, args.seed)
    g = build_knn_graph(ds.data, 10)
    K = rbf_gram(ds.data, 0.5 * median_bandwidth(ds.data))
    split = make_split(ds, SplitSpec(1, args.seed), multiclass=multi)
    hp = default_hyperparams(args.algorithm)
    train = getattr(multiclass if multi else binary, f"{args.algorithm}_train")

    qp = {}
    solve_qp = binary.qp_box_eq

    def counted_qp(*a, **kw):  # every margin dual goes through SvmProxSolver.solve
        sol = solve_qp(*a, **kw)
        qp["qp_solves"] += 1
        qp["qp_iters"] += sol.iterations
        qp["qp_face_steps"] += sol.face_steps
        return sol

    binary.qp_box_eq = counted_qp
    seconds = []
    for _ in range(args.repeats):
        qp.update(qp_solves=0, qp_iters=0, qp_face_steps=0)  # one fit's work
        t0 = time.perf_counter()
        model = train(K, g, split, hp)
        seconds.append(time.perf_counter() - t0)
    unlabeled = ~split.labeled_mask
    if multi:
        pred = multiclass.transductive_classes(model)[unlabeled]
        truth = ds.true_labels[unlabeled]
        coefficients = model.alphas
    else:
        pred = binary.transductive_labels(model)[unlabeled]
        truth = np.where(ds.true_labels[unlabeled] == 1, 1, -1)
        coefficients = model.alpha
    print(json.dumps({
        "algorithm": args.algorithm,
        "n": ds.true_labels.size,
        "seed": args.seed,
        "fit_s": seconds,
        "error_pct": float(100.0 * np.mean(pred != truth)),
        "alpha_sha256": hashlib.sha256(coefficients.tobytes()).hexdigest(),
        **qp,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time one binary trainer on synthetic two moons, with one BLAS thread.

Builds two moons of ``--n`` points (noise 0.08), the k = 10 self-tuning
graph, the RBF Gram matrix at half the median bandwidth and a split with one
label per class, then fits the trainer with its shipped default
hyperparameters ``--repeats`` times. Prints one JSON line: every fit's wall
time, the transductive error and a hash of the fitted coefficients, so that
two versions of the library can be compared on equal inputs:

    PYTHONPATH=src python3 scripts/time_fit.py --algorithm cheeger_svm --n 1200
"""

import argparse
import hashlib
import json
import os
import sys
import time

SEMI_SUPERVISED = ("lap_rls", "lap_svm", "tv_rls", "tv_svm", "cheeger_rls", "cheeger_svm")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--algorithm", default="cheeger_svm", choices=SEMI_SUPERVISED)
    ap.add_argument("--n", type=int, default=1200)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=1)
    args = ap.parse_args(argv)

    # BLAS reads its thread count when numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import numpy as np

    from tvssl import binary
    from tvssl.bench_cli import default_hyperparams
    from tvssl.data_io import SplitSpec, make_split, make_two_moons
    from tvssl.graph import build_knn_graph
    from tvssl.kernel import median_bandwidth, rbf_gram

    ds = make_two_moons(args.n, 0.08, args.seed)
    g = build_knn_graph(ds.data, 10)
    K = rbf_gram(ds.data, 0.5 * median_bandwidth(ds.data))
    split = make_split(ds, SplitSpec(1, args.seed))
    hp = default_hyperparams(args.algorithm)
    train = getattr(binary, f"{args.algorithm}_train")
    seconds = []
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        model = train(K, g, split, hp)
        seconds.append(time.perf_counter() - t0)
    unlabeled = ~split.labeled_mask
    pred = binary.transductive_labels(model)[unlabeled]
    truth = np.where(ds.true_labels[unlabeled] == 1, 1, -1)
    print(json.dumps({
        "algorithm": args.algorithm,
        "n": args.n,
        "seed": args.seed,
        "fit_s": seconds,
        "error_pct": float(100.0 * np.mean(pred != truth)),
        "alpha_sha256": hashlib.sha256(model.alpha.tobytes()).hexdigest(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Dataset ingestion, synthetic generators and semi-supervised splits.

Randomness everywhere comes from numpy's default PCG64 generator seeded
explicitly, so splits and synthetic data reproduce bit-exactly across
platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binary import LabeledSet
from .errors import CsvParseError, InvalidParameterError, check_int, check_real, whole_numbers
from .multiclass import MultiLabelSet


@dataclass(eq=False)
class Dataset:
    """Points plus ground-truth class indices in 1..c."""

    data: np.ndarray
    true_labels: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.data = np.atleast_2d(np.asarray(self.data, dtype=np.float64))
        self.true_labels = whole_numbers(self.true_labels, "class indices")
        if self.data.shape[0] != self.true_labels.size:
            raise InvalidParameterError("row count and label count differ")
        if self.true_labels.size and self.true_labels.min() < 1:
            raise InvalidParameterError("class indices start at 1")

    @property
    def n_points(self) -> int:
        return self.data.shape[0]

    @property
    def class_count(self) -> int:
        return int(self.true_labels.max()) if self.true_labels.size else 0


@dataclass(frozen=True)
class SplitSpec:
    """How to draw a labeled subset: exactly ``labels_per_class`` per class,
    drawn by numpy's generator seeded with the nonnegative ``seed``."""

    labels_per_class: int
    seed: int = 0

    def __post_init__(self):
        check_int("labels_per_class", self.labels_per_class, 1)
        check_int("seed", self.seed, 0)


def load_csv(
    path, label_column: int = 0, header: bool = False, keep_labels=None
) -> Dataset:
    """Parse a rectangular numeric CSV into a dataset.

    The label column may hold arbitrary numeric codes. The codes are
    ``keep_labels`` if given, else the labels in order of first appearance;
    rows with other labels are dropped, and the i-th code becomes class i
    (e.g. ``keep_labels=[4, 9]`` makes the 4s class 1 and the 9s class 2).
    A code that is not a finite number, or is listed twice, raises
    :class:`InvalidParameterError` before the file is opened.
    """
    if keep_labels is not None:
        seen = set()
        for code in keep_labels:
            check_real("keep_labels entry", code)
            if float(code) in seen:
                raise InvalidParameterError(f"keep_labels lists the code {code!r} twice")
            seen.add(float(code))
    rows = []
    raw_labels = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if header and lineno == 1:
                continue
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if width is None:
                width = len(parts)
                if not -width <= label_column < width:
                    raise CsvParseError(
                        f"label column {label_column} out of range for width {width}"
                    )
            elif len(parts) != width:
                raise CsvParseError(
                    f"line {lineno}: expected {width} fields, got {len(parts)}"
                )
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise CsvParseError(f"line {lineno}: non-numeric cell ({exc})") from exc
            lab = vals.pop(label_column if label_column >= 0 else label_column + width)
            raw_labels.append(lab)
            rows.append(vals)
    if not rows:
        raise CsvParseError(f"{path}: no data rows")
    codes = list(dict.fromkeys(raw_labels)) if keep_labels is None else keep_labels
    mapping = {float(lab): i + 1 for i, lab in enumerate(codes)}
    kept = [i for i, lab in enumerate(raw_labels) if lab in mapping]
    if not kept:
        raise CsvParseError(f"{path}: no rows with labels {keep_labels}")
    labels = np.array([mapping[raw_labels[i]] for i in kept], dtype=np.int64)
    if np.unique(labels).size < len(codes):
        raise CsvParseError(f"{path}: some of {keep_labels} are absent")
    return Dataset(np.array([rows[i] for i in kept], dtype=np.float64), labels, name=str(path))


def save_csv(ds: Dataset, path, label_column: int = 0) -> None:
    """Write a dataset in the format :func:`load_csv` reads (full precision)."""
    n_cols = ds.data.shape[1] + 1
    if not -n_cols <= label_column < n_cols:
        raise InvalidParameterError("label column out of range")
    col = label_column if label_column >= 0 else label_column + n_cols
    with open(path, "w", encoding="utf-8") as fh:
        for x, lab in zip(ds.data, ds.true_labels):
            cells = [repr(float(v)) for v in x]
            cells.insert(col, repr(int(lab)))
            fh.write(",".join(cells) + "\n")


def make_two_moons(n: int, noise: float, seed: int = 0) -> Dataset:
    """Two interleaved half circles with isotropic Gaussian noise.

    The first n/2 points trace the upper unit half circle, the rest the
    lower one shifted to interleave; classes are 1 and 2. Deterministic per
    seed (PCG64). ``n`` is an even integer >= 2, ``noise`` a finite number
    >= 0 and ``seed`` an integer >= 0.
    """
    check_int("n", n, 2)
    if n % 2 != 0:
        raise InvalidParameterError("n must be even")
    check_real("noise", noise, 0.0)
    check_int("seed", seed, 0)
    half = n // 2
    t = np.linspace(0.0, np.pi, half)
    upper = np.column_stack([np.cos(t), np.sin(t)])
    lower = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    pts = np.vstack([upper, lower])
    if noise > 0:
        rng = np.random.default_rng(seed)
        pts = pts + rng.normal(scale=noise, size=pts.shape)
    labels = np.concatenate([np.ones(half, dtype=np.int64), np.full(half, 2)])
    return Dataset(pts, labels, name=f"two_moons(n={n},noise={noise},seed={seed})")


def make_split(ds: Dataset, spec: SplitSpec, multiclass: bool | None = None):
    """Stratified labeled subset: ``labels_per_class`` uniform draws per class
    without replacement, seeded by ``spec.seed``.

    Returns a :class:`LabeledSet` for two-class data (class 1 -> +1,
    class 2 -> -1) or a :class:`MultiLabelSet` otherwise; pass ``multiclass``
    to force a representation.
    """
    c = ds.class_count
    if multiclass is None:
        multiclass = c > 2
    rng = np.random.default_rng(spec.seed)
    mask = np.zeros(ds.n_points, dtype=bool)
    for k in range(1, c + 1):
        members = np.flatnonzero(ds.true_labels == k)
        if members.size < spec.labels_per_class:
            raise InvalidParameterError(
                f"class {k} has {members.size} members, "
                f"needs {spec.labels_per_class}"
            )
        chosen = rng.choice(members, size=spec.labels_per_class, replace=False)
        mask[chosen] = True
    if multiclass:
        labels = np.where(mask, ds.true_labels, 0)
        return MultiLabelSet(labels, c)
    if c != 2:
        raise InvalidParameterError("binary split needs exactly two classes")
    pm = np.where(ds.true_labels == 1, 1.0, -1.0)
    return LabeledSet(np.where(mask, pm, 0.0), mask)

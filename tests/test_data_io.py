import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

from tvssl.binary import LabeledSet
from tvssl.data_io import (
    Dataset,
    SplitSpec,
    load_csv,
    make_split,
    make_two_moons,
    save_csv,
)
from tvssl.errors import CsvParseError, InvalidParameterError
from tvssl.graph import build_knn_graph
from tvssl.multiclass import MultiLabelSet


# ---------------------------------------------------------------------------
# csv
# ---------------------------------------------------------------------------


def test_load_csv_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,0.5,0.2\n1,0.1,0.9\n2,0.7,0.3\n")
    ds = load_csv(p)
    assert ds.n_points == 3 and ds.data.shape == (3, 2)
    assert np.array_equal(ds.true_labels, [1, 1, 2])


def test_load_csv_maps_labels_by_first_appearance(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("4,0.0\n9,1.0\n4,2.0\n9,3.0\n")
    ds = load_csv(p)
    assert np.array_equal(ds.true_labels, [1, 2, 1, 2])
    assert ds.class_count == 2


def test_csv_round_trip_full_precision(tmp_path):
    rng = np.random.default_rng(3)
    # labels already in first-appearance order, as load_csv produces them
    labels = np.array([1, 2, 1, 3, 2, 1, 3])
    ds = Dataset(rng.normal(size=(7, 3)), labels, "t")
    p = tmp_path / "rt.csv"
    save_csv(ds, p)
    ds2 = load_csv(p)
    assert np.array_equal(ds.data, ds2.data)
    assert np.array_equal(ds.true_labels, ds2.true_labels)


def test_load_csv_errors_with_line_numbers(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,0.5,0.2\n1,0.1\n")
    with pytest.raises(CsvParseError, match="line 2"):
        load_csv(ragged)
    bad = tmp_path / "bad.csv"
    bad.write_text("1,0.5\n1,abc\n")
    with pytest.raises(CsvParseError, match="line 2"):
        load_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(CsvParseError):
        load_csv(empty)


def test_load_csv_rejects_a_repeated_keep_labels_code(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,0.0\n2,1.0\n1,2.0\n")
    # every listed code is present; the repeat once read as "some are absent"
    for keep in ([1, 1], [2, 1, 2.0]):
        with pytest.raises(InvalidParameterError, match=r"code (1|2\.0) twice"):
            load_csv(p, keep_labels=keep)
    assert np.array_equal(load_csv(p, keep_labels=[2, 1]).true_labels, [2, 1, 2])


@pytest.mark.parametrize("keep", [["a"], [None], [True, 2], [1, float("nan")]])
def test_load_csv_rejects_a_keep_labels_entry_that_is_not_a_number(tmp_path, keep):
    # checked before the file is opened: the path does not exist
    with pytest.raises(InvalidParameterError, match="keep_labels"):
        load_csv(tmp_path / "missing.csv", keep_labels=keep)


def test_load_csv_header_and_label_column(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("x,y,label\n0.5,0.2,1\n0.1,0.9,2\n")
    ds = load_csv(p, label_column=-1, header=True)
    assert ds.n_points == 2
    assert np.array_equal(ds.true_labels, [1, 2])


# ---------------------------------------------------------------------------
# two moons
# ---------------------------------------------------------------------------


def test_two_moons_noise_free_on_circles():
    ds = make_two_moons(40, 0.0)
    upper = ds.data[:20]
    lower = ds.data[20:]
    assert np.allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-12)
    assert np.all(upper[:, 1] >= -1e-12)
    shifted = lower - np.array([1.0, 0.5])
    assert np.allclose(np.linalg.norm(shifted, axis=1), 1.0, atol=1e-12)


def test_two_moons_deterministic_per_seed():
    a = make_two_moons(30, 0.1, seed=5)
    b = make_two_moons(30, 0.1, seed=5)
    c = make_two_moons(30, 0.1, seed=6)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


@pytest.mark.parametrize(
    "args",
    # a NaN noise gave noiseless moons, and a float n or seed raised a raw
    # TypeError
    [(20, float("nan")), (20, float("inf")), (20.0, 0.1), (True, 0.1), (20, "0.1"),
     (20, 0.1, 1.5), (20, 0.1, -1)],
    ids=["noise-nan", "noise-inf", "n-float", "n-bool", "noise-string", "seed-float",
         "seed-negative"],
)
def test_two_moons_rejects_non_numbers(args):
    with pytest.raises(InvalidParameterError):
        make_two_moons(*args)


def test_two_moons_rejects_odd_or_negative():
    with pytest.raises(InvalidParameterError):
        make_two_moons(31, 0.1)
    with pytest.raises(InvalidParameterError):
        make_two_moons(30, -0.1)


def test_two_moons_graph_connected_within_each_moon():
    ds = make_two_moons(200, 0.08, seed=1)
    g = build_knn_graph(ds.data, 10)
    adj = g.adjacency
    for cls in (1, 2):
        idx = np.flatnonzero(ds.true_labels == cls)
        sub = adj[np.ix_(idx, idx)]
        ncomp, _ = csgraph.connected_components(sub)
        assert ncomp == 1


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_split_saturation_gives_full_mask():
    ds = make_two_moons(20, 0.1, seed=2)
    ls = make_split(ds, SplitSpec(10, 0))
    assert isinstance(ls, LabeledSet)
    assert ls.labeled_mask.all()
    assert np.array_equal(ls.y_ext, np.where(ds.true_labels == 1, 1.0, -1.0))


def test_split_deterministic():
    ds = make_two_moons(30, 0.1, seed=2)
    a = make_split(ds, SplitSpec(3, 7))
    b = make_split(ds, SplitSpec(3, 7))
    assert np.array_equal(a.labeled_mask, b.labeled_mask)


def test_split_stratified_over_seeds():
    ds = make_two_moons(40, 0.1, seed=2)
    masks = []
    for seed in range(10):
        ls = make_split(ds, SplitSpec(1, seed))
        for cls, sign in ((1, 1.0), (2, -1.0)):
            chosen = ls.labeled_mask & (ds.true_labels == cls)
            assert chosen.sum() == 1
            assert np.all(ls.y_ext[chosen] == sign)
        masks.append(tuple(np.flatnonzero(ls.labeled_mask)))
    assert len(set(masks)) > 1  # seeds actually vary the draw


def test_split_multiclass_representation():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(30, 2)), np.repeat([1, 2, 3], 10))
    mls = make_split(ds, SplitSpec(2, 1))
    assert isinstance(mls, MultiLabelSet)
    assert mls.class_count == 3
    for k in (1, 2, 3):
        assert np.sum(mls.labels == k) == 2
    forced = make_split(make_two_moons(10, 0.0), SplitSpec(1, 0), multiclass=True)
    assert isinstance(forced, MultiLabelSet)


def test_split_insufficient_members():
    ds = make_two_moons(10, 0.1, seed=0)
    with pytest.raises(InvalidParameterError):
        make_split(ds, SplitSpec(6, 0))


def test_split_spec_validation():
    with pytest.raises(InvalidParameterError):
        SplitSpec(0)


@pytest.mark.parametrize(
    "args", [(1.5,), (1, 0.5), (1, -1), (True,), (1, False), ("1",)]
)
def test_split_spec_rejects_non_integer_counts_and_negative_seeds(args):
    with pytest.raises(InvalidParameterError):
        SplitSpec(*args)


@pytest.mark.parametrize(
    "labels", [[1, 1.7], [1.0, np.nan], [1.0, np.inf], [True, False], ["1", "2"]]
)
def test_dataset_rejects_labels_that_are_not_whole_numbers(labels):
    with pytest.raises(InvalidParameterError):
        Dataset(np.zeros((2, 1)), labels)


def test_dataset_accepts_whole_float_labels():
    ds = Dataset(np.zeros((3, 1)), [1.0, 2.0, 1.0])
    assert ds.true_labels.dtype == np.int64 and ds.true_labels.tolist() == [1, 2, 1]

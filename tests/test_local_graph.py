"""Tests for the local EdgeArrays mirror."""
import numpy as np
import pytest

from repro.graph.local import EdgeArrays, dedup, empty_edges, relabel


def _e(pairs):
    a = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return EdgeArrays(a[:, 0].copy(), a[:, 1].copy())


def test_m_and_side_counts():
    e = _e([(0, 1), (0, 2), (3, 1)])
    assert e.m == 3
    assert e.n_src == 2
    assert e.n_dst == 2


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        EdgeArrays(np.array([1, 2]), np.array([1]))


@pytest.mark.parametrize("dtype", [np.float64, np.bool_, object, np.uint64])
def test_non_integer_labels_rejected(dtype):
    # uint64 beside int64 labels has no common integer type
    bad, good = np.array([0, 1], dtype=dtype), np.array([1, 0])
    with pytest.raises(TypeError):
        EdgeArrays(bad, good)
    with pytest.raises(TypeError):
        EdgeArrays(good, bad)


def test_relabel_dense_shared_order_preserving():
    e = _e([(5, -3), (7, 5), (2**40, 5)])
    ids, labels = relabel(e)
    assert labels.tolist() == [-3, 5, 7, 2**40]
    assert ids.src.tolist() == [1, 2, 3] and ids.dst.tolist() == [0, 1, 1]
    assert relabel(empty_edges())[0].m == 0


def test_degree_maxima():
    e = _e([(0, 1), (0, 2), (0, 3), (1, 3)])
    assert e.out_degree_max() == 3
    assert e.in_degree_max() == 2


def test_degree_maxima_empty():
    e = empty_edges()
    assert e.out_degree_max() == 0
    assert e.in_degree_max() == 0
    assert e.m == 0


def test_edges_between():
    e = _e([(0, 1), (0, 2), (3, 1), (3, 4)])
    assert e.edges_between(np.array([0]), np.array([1, 2])) == 2
    assert e.edges_between(np.array([0, 3]), np.array([1])) == 2
    assert e.edges_between(np.array([9]), np.array([1])) == 0
    assert e.edges_between(np.array([]), np.array([1])) == 0


def test_dedup():
    e = _e([(0, 1), (0, 1), (1, 0)])
    d = dedup(e)
    assert d.m == 2
    assert set(zip(d.src.tolist(), d.dst.tolist())) == {(0, 1), (1, 0)}


def test_dedup_empty():
    assert dedup(empty_edges()).m == 0


def test_self_loops_are_legal_edges():
    e = _e([(5, 5)])
    assert e.m == 1
    assert e.edges_between(np.array([5]), np.array([5])) == 1

"""Vector and induced matrix norms, one at a time and over stacks."""

import numpy as np
import pytest

from fixedslope.norms import matrix_norm, matrix_norms, vector_norm, vector_norms

KINDS = ["max", "one", "two"]


def rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def test_spectral_norm_exact_with_close_top_singular_values():
    # singular values 1 and 0.99: a 50-step power iteration stops ~0.5% short
    a = rotation(0.3) @ np.diag([1.0, 0.99]) @ rotation(1.1).T
    assert matrix_norm(a, "two") == pytest.approx(1.0, rel=1e-14, abs=0.0)


def test_closed_forms():
    a = np.array([[1.0, -2.0], [3.0, 0.5]])
    assert matrix_norm(a, "max") == 3.5
    assert matrix_norm(a, "one") == 4.0
    x = np.array([3.0, -4.0])
    assert [vector_norm(x, k) for k in KINDS] == [4.0, 7.0, 5.0]


@pytest.mark.parametrize("kind", KINDS)
def test_stacks_equal_one_at_a_time(kind):
    rng = np.random.default_rng(7)
    mats = rng.standard_normal((9, 13, 13))
    vecs = rng.standard_normal((9, 13))
    assert list(matrix_norms(mats, kind)) == [matrix_norm(m, kind) for m in mats]
    assert list(vector_norms(vecs, kind)) == [vector_norm(v, kind) for v in vecs]


def test_unknown_kind():
    with pytest.raises(ValueError):
        matrix_norm(np.eye(2), "frobenius")
    with pytest.raises(ValueError):
        vector_norms(np.ones((2, 2)), "frobenius")

"""Vector and induced matrix norms, one at a time and over stacks."""

import itertools
import math

import numpy as np
import pytest

from fixedslope.norms import (
    _ROW_NORMS,
    _abs_sums,
    _max_norm_in_place,
    matrix_norm,
    matrix_norms,
    vector_norm,
    vector_norms,
)

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


@pytest.mark.parametrize("kind", KINDS)
def test_vector_norms_go_through_the_row_norm_table(kind):
    x = np.random.default_rng(8).standard_normal((6, 11))
    row = _ROW_NORMS[kind]
    assert vector_norms(x, kind).tobytes() == row(x).tobytes()
    assert vector_norms(x[2], kind).tobytes() == row(x[2]).tobytes()
    reference = {"max": np.abs(x).max(axis=-1), "one": np.abs(x).sum(axis=-1),
                 "two": np.sqrt(np.vecdot(x, x))}[kind]
    assert row(x).tobytes() == reference.tobytes()


@pytest.mark.parametrize("shape", [(0, 3, 3), (5, 1, 1), (7, 4, 4), (3, 13, 13), (6, 6)])
def test_spectral_norms_equal_numpy_norm_bit_for_bit(shape):
    a = np.random.default_rng(9).standard_normal(shape) * np.logspace(-3, 3, shape[-1])
    expected = np.linalg.norm(a, 2, axis=(-2, -1))
    assert matrix_norms(a, "two").tobytes() == expected.tobytes()
    if a.ndim == 2:
        assert matrix_norm(a, "two") == float(expected)


def test_one_norm_column_sums_equal_add_reduce_bit_for_bit():
    # einsum adds each column in row order, as add.reduce over axis -2 does;
    # magnitudes from 1e-16 to 1e16 make any other order round differently
    rng = np.random.default_rng(17)
    for i in range(400):
        shape = (int(rng.integers(1, 41)),) + (int(rng.integers(1, 71)),) * 2
        a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-16.0, 16.0, shape)
        if i % 4 == 1:
            a.flat[rng.integers(0, a.size, size=3)] = rng.choice([math.nan, math.inf, -math.inf])
        expected = np.add.reduce(np.abs(a), axis=-2)
        assert _abs_sums(np.abs(a), "one").tobytes() == expected.tobytes()
        assert matrix_norms(a, "one").tobytes() == expected.max(axis=-1).tobytes()


@pytest.mark.parametrize("kind", ["max", "one"])
def test_closed_forms_do_not_depend_on_the_memory_layout(kind):
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        a = rng.standard_normal((5, n, n)) * 10.0 ** rng.uniform(-16.0, 16.0, (5, n, n))
        expected = matrix_norms(a, kind).tobytes()
        assert matrix_norms(np.asfortranarray(a), kind).tobytes() == expected
        t = np.ascontiguousarray(np.swapaxes(a, -1, -2))
        assert matrix_norms(np.swapaxes(t, -1, -2), kind).tobytes() == expected


def test_unknown_kind():
    with pytest.raises(ValueError):
        matrix_norm(np.eye(2), "frobenius")
    with pytest.raises(ValueError):
        vector_norms(np.ones((2, 2)), "frobenius")


def fuzzed_stacks(rng, count):
    """Seeded stacks that stress the spectral bounds: ties, rank one, zeros, extreme scales."""
    for i in range(count):
        size, n = int(rng.integers(1, 9)), int(rng.integers(1, 8))
        a = rng.standard_normal((size, n, n))
        shape = i % 6
        if shape == 1:  # rank one
            a = rng.standard_normal((size, n, 1)) * rng.standard_normal((size, 1, n))
        elif shape == 2:  # partly zero
            a[rng.random(size) < 0.5] = 0.0
        elif shape == 3:
            a = np.zeros((size, n, n))
        elif shape == 4:  # orthogonal, every norm equal to 3
            a = 3.0 * np.linalg.qr(a)[0]
        elif shape == 5:  # one dominant entry
            a[:, 0, 0] += 10.0 * rng.standard_normal(size)
        scale = (i // 6) % 4
        if scale == 1:
            a *= 1e-150
        elif scale == 2:
            a *= 1e150
        elif scale == 3:  # each matrix its own scale
            a *= 10.0 ** rng.uniform(-150.0, 150.0, size=(size, 1, 1))
        yield a


def max_norm(a, kind, floor=0.0, size=None):
    """The estimator's _max_norm_in_place, run on a copy of a with a Gram buffer of its shape.

    One segment of the whole stack gives a float, segments of size matrices a list.
    """
    a = np.array(a, dtype=float)
    tops = _max_norm_in_place(a, kind, floor, np.empty((2,) + a.shape), size or len(a))
    return float(tops[0]) if size is None else tops.tolist()


@pytest.mark.parametrize("kind", KINDS)
def test_max_norm_in_place_equals_max_of_all_norms(kind):
    # exact equality, also for floors at, between and above the norms; an
    # overflow or underflow warning would fail the test
    rng = np.random.default_rng(41)
    for a in fuzzed_stacks(rng, 240):
        norms = matrix_norms(a, kind)
        top = float(norms.max())
        for floor in (0.0, top * rng.random(), float(rng.choice(norms)), top, 1.5 * top + 1.0):
            assert max_norm(a, kind, floor) == max(floor, top)


@pytest.mark.parametrize("kind", KINDS)
def test_max_norm_in_place_running_max_over_segments(kind):
    # each segment's entry is the max of the floor and every norm so far, so
    # a segment below the running max repeats it; the Gram screen of a later
    # segment runs against the lower bounds of the earlier ones
    rng = np.random.default_rng(43)
    for a in fuzzed_stacks(rng, 240):
        segments = int(rng.integers(1, 5))
        a = np.concatenate([a * rng.uniform(0.25, 4.0) for _ in range(segments)])
        norms = matrix_norms(a, kind).reshape(segments, -1).max(axis=-1)
        for floor in (0.0, float(rng.choice(norms)), 1.5 * float(norms.max()) + 1.0):
            expected = list(itertools.accumulate(norms.tolist(), max, initial=floor))[1:]
            assert max_norm(a, kind, floor, len(a) // segments) == expected


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("segment", [0, 1, 2])
def test_max_norm_in_place_non_finite_from_its_segment_on(kind, segment):
    a = np.ones((6, 2, 2))
    a[2 * segment + 1] = math.nan
    tops = max_norm(a, kind, 1.0, 2)
    assert not any(math.isfinite(t) for t in tops[segment:])
    if kind != "two":  # "two" returns before any norm
        assert tops[:segment] == [2.0] * segment


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
def test_max_norm_in_place_is_not_finite_for_a_non_finite_stack(kind, bad):
    # never the floor, and no SVD of a nan; 1e308 overflows every norm of the
    # 2 x 2 matrix, not its entries
    a = np.ones((3, 2, 2))
    a[2] = bad
    with np.errstate(over="ignore"):
        assert not math.isfinite(max_norm(a, kind, 5.0))


@pytest.mark.parametrize("kind", KINDS)
def test_max_norm_in_place_small_stacks(kind):
    a = np.array([[[1.0, -2.0], [3.0, 0.5]]])
    assert max_norm(a, kind) == matrix_norm(a[0], kind)
    assert max_norm(a, kind, 1e3) == 1e3
    scalars = np.array([[[-2.0]], [[0.5]], [[0.0]]])
    assert max_norm(scalars, kind) == 2.0
    assert max_norm(scalars, kind, 2.5) == 2.5

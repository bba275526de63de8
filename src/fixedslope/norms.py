"""Vector norms and the matrix norms they induce.

Three choices are supported everywhere in the package:

    "max"  sup norm        induced matrix norm = max absolute row sum
    "one"  sum norm        induced matrix norm = max absolute column sum
    "two"  Euclidean norm  induced matrix norm = spectral norm

All three matrix norms are exact: "max" and "one" in closed form, the
spectral norm as the largest singular value from LAPACK's SVD.  Each norm
is defined once, over a stack of vectors or matrices; vector_norm and
matrix_norm are the one-element cases.
"""

import numpy as np

NORM_KINDS = ("max", "one", "two")


def _check_kind(kind):
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


def vector_norms(x, kind="max"):
    """Norms over the last axis: a stack (S, n) gives (S,), a vector (n,) a scalar."""
    _check_kind(kind)
    x = np.asarray(x, dtype=float)
    # ndarray methods skip np.max's Python-level dispatch, which costs more
    # than the reduction on the one-row stacks of fsi_solve.
    if kind == "max":
        return np.abs(x).max(axis=-1)
    if kind == "one":
        return np.abs(x).sum(axis=-1)
    return np.sqrt(np.vecdot(x, x))


def vector_norm(x, kind="max"):
    return float(vector_norms(x, kind))


def matrix_norms(a, kind="max"):
    """Induced norms over the last two axes: a stack (S, n, n) gives (S,)."""
    _check_kind(kind)
    a = np.asarray(a, dtype=float)
    if kind == "max":
        return np.max(np.sum(np.abs(a), axis=-1), axis=-1)
    if kind == "one":
        return np.max(np.sum(np.abs(a), axis=-2), axis=-1)
    return np.linalg.norm(a, 2, axis=(-2, -1))


def matrix_norm(a, kind="max"):
    """Operator norm of a dense matrix, induced by the chosen vector norm."""
    return float(matrix_norms(a, kind))

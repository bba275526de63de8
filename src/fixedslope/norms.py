"""Vector norms and the matrix norms they induce.

Three choices are supported everywhere in the package:

    "max"  sup norm        induced matrix norm = max absolute row sum
    "one"  sum norm        induced matrix norm = max absolute column sum
    "two"  Euclidean norm  induced matrix norm = spectral norm

All three matrix norms are exact: "max" and "one" in closed form, the
spectral norm as the largest singular value from LAPACK's SVD.  The
closed forms sum |a| taken in C order, so no norm depends on the layout.
Each norm is defined once, over a stack of vectors or matrices;
vector_norm and matrix_norm are the one-element cases.  The vector norms
live in one private row-norm table, _ROW_NORMS: vector_norms checks the
kind and dispatches through it, and the iteration kernel resolves its
norm there once per call, so no step pays the kind check.  The measure
estimator's _max_norm_in_place reduces a stack made of equal segments,
one per radius, to the running max of their norms above a floor, equal
bit for bit to the running max of matrix_norms: for the spectral norm it
bounds every matrix from above and below through its Gram matrix and
decomposes, in one SVD call, only those whose upper bound can reach the
running max of their segment, so most of a stack never goes to the SVD.
It works in place, on a workspace the estimator reuses for every stack:
|a| for "max" and "one" overwrites the stack, and the spectral bounds
write their scaled copy, G and G^2 into two Gram buffers, so no
reduction allocates a temporary the size of the stack.
"""

import numpy as np

NORM_KINDS = ("max", "one", "two")

# Relative margin between a matrix's upper bound and the largest lower bound
# before the matrix is dropped unseen.  Both bounds come from entries scaled
# to at most 1 and err by a small multiple of n^3 u relative (u = 2^-53;
# Higham, Accuracy and Stability of Numerical Algorithms, section 3.5), as does
# LAPACK's largest singular value: under 1e-10 at n = 64 and still below 1e-6
# near n = 2000.  So a dropped matrix's computed norm stays strictly below
# that of the matrix holding the largest lower bound, which is decomposed.
_BOUND_MARGIN = 1e-6


def _check_kind(kind):
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


# Each vector norm over the last axis of a float array, written once.  Ufunc
# reductions skip np.max's Python-level dispatch, which costs more than the
# reduction on the one-row stacks of fsi_solve; the iteration kernel looks
# its norm up here once per call instead of going through vector_norms.
_ROW_NORMS = {
    "max": lambda a: np.maximum.reduce(np.abs(a), -1),
    "one": lambda a: np.add.reduce(np.abs(a), -1),
    "two": lambda a: np.sqrt(np.vecdot(a, a)),
}


def vector_norms(x, kind="max"):
    """Norms over the last axis: a stack (S, n) gives (S,), a vector (n,) a scalar."""
    _check_kind(kind)
    return _ROW_NORMS[kind](np.asarray(x, dtype=float))


def vector_norm(x, kind="max"):
    return float(vector_norms(x, kind))


def _abs_sums(a, kind):
    """Row ("max") or column ("one") sums of a C-ordered stack of absolute values.

    einsum adds each column in row order, as add.reduce over axis -2 does, at half its cost.
    """
    return np.add.reduce(a, axis=-1) if kind == "max" else np.einsum("...ij->...j", a)


def matrix_norms(a, kind="max"):
    """Induced norms over the last two axes: a stack (S, n, n) gives (S,)."""
    _check_kind(kind)
    a = np.asarray(a, dtype=float)
    if kind == "two":
        return np.linalg.svd(a, compute_uv=False).max(axis=-1)
    return np.maximum.reduce(_abs_sums(np.abs(a, order="C"), kind), axis=-1)


def matrix_norm(a, kind="max"):
    """Operator norm of a dense matrix, induced by the chosen vector norm."""
    return float(matrix_norms(a, kind))


def _spectral_candidates(a, peak, floor, grams, size):
    """Mask of the matrices whose spectral norm can reach the running max of their segment.

    a is made of consecutive segments of size matrices, and the running max
    of segment j is the max of floor and every norm in segments 0 to j.
    With G = a^T a, ||a||_2^4 = lambda_max(G^2), which lies between the
    Rayleigh quotient of G^2 at its largest column x, ||G x||^2 / ||x||^2,
    and ||G^2||_F.  So the running max of floor and the lower bounds is a
    threshold below every segment's running max, and a matrix whose upper
    bound stays under its segment's threshold by the margin never holds
    it: the matrix with the largest lower bound so far is kept.  Each matrix
    is first scaled exactly, by the power of two just above its largest
    entry (peak, finite), so that the bounds neither overflow nor
    underflow.  Every matrix of a segment is kept when its threshold is inf
    or below the normal floats, where the unscaled bounds could round by
    more than the margin.  a is only read: the scaled copy and G^2 go to
    grams[0], G to grams[1].
    """
    e = np.frexp(peak)[1]
    grams = grams[:, :len(a)]
    s = np.ldexp(a, -e[:, None, None], out=grams[0])
    g = np.matmul(np.swapaxes(s, -1, -2), s, out=grams[1])
    g2 = np.matmul(g, g, out=grams[0])
    cols = np.einsum("...ij,...ij->...j", g2, g2)
    x = g2[np.arange(len(a)), :, np.argmax(cols, axis=-1)]
    gx = np.matmul(g, x[..., None])[..., 0]
    xx = cols.max(axis=-1)
    quotient = np.vecdot(gx, gx) / np.where(xx > 0.0, xx, 1.0)  # x = 0 only for a = 0
    with np.errstate(over="ignore"):
        upper = np.ldexp(cols.sum(axis=-1) ** 0.125, e).reshape(-1, size)
        lower = np.ldexp(quotient ** 0.25, e).reshape(-1, size).max(axis=-1)
        threshold = np.maximum.accumulate(np.maximum(lower, floor))[:, None]
        unsure = (threshold < np.finfo(float).tiny) | (threshold == np.inf)
        return (unsure | (upper * (1.0 + _BOUND_MARGIN) > threshold)).ravel()


def _max_norm_in_place(a, kind, floor, grams, size):
    """Running max of floor and matrix_norms(a, kind), per segment, bit for bit.

    a is a float stack (S, n, n) of S / size consecutive segments of size
    matrices; entry j of the result is the max of floor and every norm in
    segments 0 to j.  A segment with an entry or a norm that is not finite
    makes its entry and every later one nan or inf, never floor: "two"
    tests each matrix's largest |entry| before any SVD and, if one is not
    finite, returns the running max of those entries in place of norms;
    "max" and "one" reduce norms whose sums carry the nan or inf entry.
    a may be overwritten: "max" and "one" replace a by |a| and reduce that,
    and ignore grams.
    "two" only reads a and writes its Gram matrices into grams, scratch of
    shape (2, k, n, n) with k >= S, so a workspace sized once serves every
    stack.  Its matrices that survive the Gram screen of every segment go
    to one SVD call.
    """
    if kind == "two":
        norms = np.maximum(a.max(axis=(-2, -1)), -a.min(axis=(-2, -1)))  # the peaks
        if np.isfinite(norms).all():
            keep = _spectral_candidates(a, norms, floor, grams, size)
            norms = np.full(len(a), -np.inf)
            norms[keep] = matrix_norms(a[keep], kind)
    else:
        norms = np.maximum.reduce(_abs_sums(np.abs(a, out=a), kind), axis=-1)
    # np.maximum and its running max pass a nan through
    return np.maximum.accumulate(np.maximum(norms.reshape(-1, size).max(axis=-1), floor))

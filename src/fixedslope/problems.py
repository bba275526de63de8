"""Bundled nonlinear test problems with analytically known measures.

Each fixture packages an operator, its fixed slope and a starting point,
and where a closed form exists also the growth l0 v^alpha of the exact
Hoelder measure nu + l0 v^alpha of the iteration map.  eta = ||B F(x0)||
and nu = ||B F'(x0) - I|| come from the problem (solver.eta_at_start and
nu_at_start), as in the estimator.  That makes certificates, traces and
the measure estimator checkable against hand-computable values.

Operators act on the last axis, so they take a point or a stack alike.
They run once per iteration step, so each is a few whole-stack numpy
calls, with scalar coefficients kept as Python floats (a numpy scalar
operand costs more per call and gives the same bits).
Fixture builders may invert a small dense matrix to construct the slope
(the classic choice B = F'(x0)^{-1}); the solver never inverts anything.
"""

import math
import numbers
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import BadParameters, UnknownFixture
from .majorant import HoelderOmega, MajorantModel
from .norms import NORM_KINDS, matrix_norm
from .solver import Problem, eta_at_start, nu_at_start


@dataclass(frozen=True)
class Fixture:
    """A bundled problem plus whatever analytic metadata it supports.

    analytic: the exact growth l0 v^alpha of the measure past nu (None when
    no closed form is known); its nu stays 0, as nu comes from the problem.
    """

    name: str
    problem: Problem
    analytic: HoelderOmega | None = None
    known_solution: np.ndarray | None = None


def analytic_model(fixture):
    """Majorant model nu + l0 v^alpha from the fixture's growth and the problem's eta and nu."""
    if fixture.analytic is None:
        raise BadParameters(f"fixture {fixture.name!r} has no analytic majorant data")
    problem, eta = fixture.problem, eta_at_start(fixture.problem)
    omega = HoelderOmega(fixture.analytic.l0, fixture.analytic.alpha, nu_at_start(problem)[0])
    return MajorantModel(eta, problem.R, omega)


def _scalar_quadratic(norm, c=2.0, x0=2.0, b=0.25, R=10.0):
    """F(x) = x^2 - c with constant slope b.

    B (F'(x) - F'(x0)) = 2b (x - x0), so the measure is exactly nu + 2|b| v
    with nu = |2b x0 - 1|.  With 2b x0 = 1 (the bundled default) nu = 0 and
    the majorization bound is tight: ||x_k - x0|| converges to nu_star.
    """
    c, x0, b, R = float(c), float(x0), float(b), float(R)
    if c <= 0.0:
        raise BadParameters("c must be > 0 so the equation has real roots")
    if b == 0.0:
        raise BadParameters("slope b must be invertible (nonzero)")

    problem = Problem(
        f=lambda x: x * x - c,
        jacobian=lambda x: 2.0 * x[..., None],
        slope=np.array([[b]]),
        x0=np.array([x0]),
        R=R,
        norm=norm,
    )
    if not math.isfinite(2.0 * b):
        raise BadParameters(f"scalar_quadratic: b={b!r} overflows its measure's l0 = 2|b|")
    analytic = HoelderOmega(2.0 * abs(b), 1.0)
    solution = math.sqrt(c) if x0 >= 0.0 else -math.sqrt(c)
    return Fixture("scalar_quadratic", problem, analytic, np.array([solution]))


def _pow_or_inf(base, exponent):
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def _float_power(base, exponent):
    """Python's float base ** exponent for every entry of base >= 0, inf where it overflows.

    numpy's SIMD power can differ from it in the last bit, on some CPUs.
    Python raises OverflowError where numpy returns inf, so a stack with
    an overflowing entry is redone element by element, with inf there.
    """
    values = base.ravel().tolist()
    try:
        out = np.fromiter(map(pow, values, repeat(exponent)), float, len(values))
    except OverflowError:
        out = np.fromiter(map(_pow_or_inf, values, repeat(exponent)), float, len(values))
    return out.reshape(base.shape)


def _scalar_holder(norm, a=0.0, alpha=0.5, c=-0.4, x0=1.0, b=1.0, R=2.0):
    """F(x) = sign(x-a) |x-a|^(1+alpha) / (1+alpha) + c with slope b.

    F'(x) = |x-a|^alpha is Hoelder with exponent alpha and not Lipschitz
    at a.  The center-Hoelder constant of B(F'(x) - F'(x0)) is exactly
    |b| (attained at x = a), so the measure is nu + |b| v^alpha.
    """
    a, alpha, c, x0, b, R = map(float, (a, alpha, c, x0, b, R))
    if not (0.0 < alpha < 1.0):
        raise BadParameters("alpha must be in (0, 1); use scalar_quadratic for alpha=1")
    if b <= 0.0:
        raise BadParameters("slope b must be > 0")
    d = abs(x0 - a)
    if d == 0.0:
        raise BadParameters("x0 = a makes F'(x0) = 0 and the map non-contractive")

    def f(x):
        t = x - a
        return np.copysign(_float_power(np.abs(t), 1.0 + alpha), t) / (1.0 + alpha) + c

    problem = Problem(
        f=f,
        jacobian=lambda x: _float_power(np.abs(x - a), alpha)[..., None],
        slope=np.array([[b]]),
        x0=np.array([x0]),
        R=R,
        norm=norm,
    )
    analytic = HoelderOmega(abs(b), alpha)
    solution = a - math.copysign(((1.0 + alpha) * abs(c)) ** (1.0 / (1.0 + alpha)), c)
    return Fixture("scalar_holder", problem, analytic, np.array([solution]))


def _diag_quadratic_l0(slope, norm):
    # Exact sup of ||B * 2 diag(h)|| over the unit ball of the vector norm:
    # the induced norm of B in the max and one norms, its largest column in the two norm.
    if norm != "two":
        return 2.0 * matrix_norm(slope, norm)
    return 2.0 * float(np.max(np.sqrt(np.sum(slope * slope, axis=0))))


def _poly2d(norm, x0=(1.1, 0.9), root=(1.0, 1.0), lin=(3.0, 4.0),
            coupling=(1.0, -1.0), R=2.0):
    """Two quadratic equations with a dense non-symmetric Jacobian.

        F1 = x^2 + lin1 x + coup1 y - c1
        F2 = coup2 x + y^2 + lin2 y - c2

    with c chosen so that `root` solves the system and B the float inverse
    Jacobian at x0 (nu = 0 up to rounding).  F' is affine, so the measure
    is exactly nu + l0 v with l0 = sup ||B 2 diag(h)|| over unit h,
    computable in closed form for each norm.
    """
    x0 = np.asarray(x0, dtype=float)
    root = np.asarray(root, dtype=float)
    lin = np.asarray(lin, dtype=float)
    coupling = np.asarray(coupling, dtype=float)
    R = float(R)
    if x0.shape != (2,) or root.shape != (2,) or lin.shape != (2,) or coupling.shape != (2,):
        raise BadParameters("x0, root, lin and coupling must be pairs")
    if coupling[0] == 0.0 or coupling[1] == 0.0:
        raise BadParameters("coupling terms must be nonzero to keep the Jacobian dense")

    (r0, r1), (l0, l1), (k0, k1) = root.tolist(), lin.tolist(), coupling.tolist()
    c0 = r0 * r0 + l0 * r0 + k0 * r1
    c1 = k1 * r0 + r1 * r1 + l1 * r1

    # F1 = (u*u + u*l0) + v*k0 - c0 and F2 = (v*v + u*k1) + v*l1 - c1: the roundings
    # of the formulas above, with only commutative operands swapped
    by_u, by_v, c = np.array([l0, k1]), np.array([k0, l1]), np.array([c0, c1])

    def f(x):
        return x * x + x[..., :1] * by_u + x[..., 1:] * by_v - c

    constant = np.array([[l0, k0], [k1, l1]])
    eye = np.eye(2)

    def jac(x):
        return constant + 2.0 * x[..., None, :] * eye

    try:
        slope = np.linalg.inv(jac(x0))
    except np.linalg.LinAlgError:
        raise BadParameters(f"x0 must make F'(x0) invertible, got x0={x0.tolist()}") from None
    problem = Problem(f=f, jacobian=jac, slope=slope, x0=x0, R=R, norm=norm)
    analytic = HoelderOmega(_diag_quadratic_l0(slope, norm), 1.0)
    return Fixture("poly2d", problem, analytic, root.copy())


def _linear(norm, A=((2.0, 1.0), (1.0, 3.0)), b_vec=(3.0, 4.0),
            x0=(0.0, 0.0), R=10.0):
    """F(x) = A x - b with the slope B = A^{-1}: one-step convergence.

    The measure is the constant ||B A - I||, zero for an exact inverse.
    """
    A = np.asarray(A, dtype=float)
    b_vec = np.asarray(b_vec, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    R = float(R)
    if x0.ndim != 1:
        raise BadParameters(f"x0 must be a vector, got shape {x0.shape}")
    n = x0.shape[0]
    if A.shape != (n, n) or b_vec.shape != (n,):
        raise BadParameters("A must be n x n and b_vec length n")
    try:
        slope = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        raise BadParameters("A must be invertible") from None
    solution = slope @ b_vec
    problem = Problem(
        f=lambda x: np.matmul(A, x[..., None])[..., 0] - b_vec,
        jacobian=lambda x: np.broadcast_to(A, x.shape + (n,)),
        slope=slope,
        x0=x0,
        R=R,
        norm=norm,
    )
    return Fixture("linear", problem, HoelderOmega(0.0, 1.0), solution)


def _chandrasekhar(norm, c=0.9, n=16, R=None):
    """Discretized H-equation H_i = 1 + H_i sum_j K_ij H_j on n midpoints.

    Kernel K_ij = (c/2) w mu_i / (mu_i + mu_j) with the composite midpoint
    rule (weights w = 1/n, nodes strictly inside (0, 1])), starting from
    the all-ones vector with B the inverse Jacobian there.  F is quadratic
    in H, so the true measure is exactly linear in the radius, which a
    tabulated estimate interpolates without bias.

    Whether the run certifies depends on the norm: near c = 1 the
    sup-norm measure climbs too steeply (2 l0 eta > 1) while the one-norm
    condition still holds with margin, and there the estimator is exact
    because the one-ball extreme points are enumerated.  The default
    trust radius is sized per norm to contain the solution.
    """
    c = float(c)
    if n != int(n):
        raise BadParameters(f"fixture parameter 'n' must be finite and whole, got {n!r}")
    n = int(n)
    if R is None:
        R = {"max": 2.0, "one": 24.0, "two": 6.0}[norm]
    R = float(R)
    if not (0.0 < c < 1.0):
        raise BadParameters("c must be in (0, 1)")
    if not (1 <= n <= 64):
        raise BadParameters("n must be between 1 and 64 at desk scale")
    mu = (np.arange(n) + 0.5) / n
    kernel = (c / 2.0) * (1.0 / n) * mu[:, None] / (mu[:, None] + mu[None, :])
    negated = -kernel

    def f(h):
        return h - 1.0 - h * np.matmul(kernel, h[..., None])[..., 0]

    def jac(h):
        j = np.einsum("...i,ij->...ij", h, negated)  # one pass, no broadcast buffer
        np.einsum("...ii->...i", j)[...] += 1.0 - np.matmul(kernel, h[..., None])[..., 0]
        return j

    x0 = np.ones(n)
    slope = np.linalg.inv(jac(x0))
    problem = Problem(f=f, jacobian=jac, slope=slope, x0=x0, R=R, norm=norm)
    return Fixture("chandrasekhar", problem)


_BUILDERS = {
    "scalar_quadratic": (
        _scalar_quadratic,
        "c=2.0 x0=2.0 b=0.25 R=10.0 -- F(x) = x^2 - c, slope b; "
        "exact measure nu + 2|b| v",
    ),
    "scalar_holder": (
        _scalar_holder,
        "a=0.0 alpha=0.5 c=-0.4 x0=1.0 b=1.0 R=2.0 -- F'(x) = |x-a|^alpha, "
        "Hoelder but not Lipschitz at a; exact growth |b| v^alpha",
    ),
    "poly2d": (
        _poly2d,
        "x0=1.1,0.9 root=1.0,1.0 lin=3.0,4.0 coupling=1.0,-1.0 R=2.0 -- "
        "dense non-symmetric 2d quadratic system, B = F'(x0)^{-1}, growth l0 v",
    ),
    "linear": (
        _linear,
        "A and b_vec via problem-spec file; x0=0.0,0.0 R=10.0 -- "
        "F(x) = A x - b, slope A^{-1}, constant measure ||B A - I||",
    ),
    "chandrasekhar": (
        _chandrasekhar,
        "c=0.9 n=16 R=per-norm -- H-equation on an n-point midpoint rule, "
        "B = F'(ones)^{-1}; certify from estimated measures (one norm "
        "recommended: near c=1 the sup-norm condition fails)",
    ),
}


def fixture_names():
    return sorted(_BUILDERS)


def fixture_schema(name):
    try:
        return _BUILDERS[name][1]
    except KeyError:
        raise UnknownFixture(f"unknown fixture {name!r}; known: {fixture_names()}")


def _finite(value):
    """True for a finite number, or a list, tuple or array holding only finite numbers."""
    try:
        if type(value) is float or type(value) is int:  # the common case, before the ABC test
            return math.isfinite(value)
        if isinstance(value, (list, tuple, np.ndarray)):
            return all(map(_finite, np.asarray(value, dtype=object).ravel()))
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer past the largest float, such as 10**400
        return False


def build_fixture(name, norm="max", **params):
    """Build a bundled fixture by name; unknown names or stray/bad parameters raise.

    A norm outside NORM_KINDS, and a value that is neither None nor finite
    numbers (nan, infinity, text), naming its key, are refused here before
    any builder runs.
    """
    try:
        builder = _BUILDERS[name][0]
    except KeyError:
        raise UnknownFixture(f"unknown fixture {name!r}; known: {fixture_names()}")
    if norm not in NORM_KINDS:
        raise BadParameters(f"norm must be one of {NORM_KINDS}, got {norm!r}")
    for key, value in params.items():
        if value is not None and not _finite(value):
            raise BadParameters(f"fixture parameter {key!r} must be finite numbers, got {value!r}")
    try:
        return builder(norm, **params)
    except TypeError as exc:
        raise BadParameters(f"bad parameters for fixture {name!r}: {exc}") from exc

"""Bundled nonlinear test problems with analytically known majorant data.

Each fixture packages an operator, its fixed slope and a starting point,
and where a closed form exists also the exact Hoelder data (l0, alpha, nu)
of the iteration map plus the tight first-step bound eta = ||B F(x0)||.
That makes certificates, traces and the measure estimator checkable
against hand-computable values.

Operators act on the last axis, so they take a point or a stack alike.
Fixture builders may invert a small dense matrix to construct the slope
(the classic choice B = F'(x0)^{-1}); the solver never inverts anything.
"""

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .certificate import HoelderParams
from .errors import BadParameters, UnknownFixture
from .majorant import MajorantModel
from .norms import vector_norm
from .solver import Problem


@dataclass(frozen=True)
class Fixture:
    """A bundled problem plus whatever analytic metadata it supports.

    analytic: Hoelder majorant data of the iteration map, exact for this
    operator (None when no closed form is known).  omega_exact(v) is the
    true supremum of ||B F'(x) - I|| over the radius-v sphere, used to
    grade the estimator.
    """

    name: str
    problem: Problem
    analytic: HoelderParams | None = None
    known_solution: np.ndarray | None = None
    omega_exact: object = None


def analytic_model(fixture):
    """Majorant model from the fixture's closed-form Hoelder data."""
    if fixture.analytic is None:
        raise BadParameters(f"fixture {fixture.name!r} has no analytic majorant data")
    return MajorantModel(
        eta=fixture.analytic.eta,
        R=fixture.problem.R,
        omega=fixture.analytic.omega(),
    )


def _scalar_quadratic(norm, c=2.0, x0=2.0, b=0.25, R=10.0):
    """F(x) = x^2 - c with constant slope b.

    B F'(x) - 1 = 2bx - 1, so nu = |2b x0 - 1| and the measure is exactly
    nu + 2|b| v.  With 2b x0 = 1 (the bundled default) nu = 0 and the
    majorization bound is tight: ||x_k - x0|| converges to nu_star.
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
    nu = abs(2.0 * b * x0 - 1.0)
    eta = abs(b * (x0 * x0 - c))
    # nu >= 1 means the map is not contractive at x0; no certifiable closed form.
    analytic = None
    if nu < 1.0 and eta > 0.0:
        analytic = HoelderParams(l0=2.0 * abs(b), alpha=1.0, nu=nu, eta=eta)
    solution = math.sqrt(c) if x0 >= 0.0 else -math.sqrt(c)

    def omega_exact(v):
        return max(abs(2.0 * b * (x0 - v) - 1.0), abs(2.0 * b * (x0 + v) - 1.0))

    return Fixture("scalar_quadratic", problem, analytic,
                   np.array([solution]), omega_exact)


def _scalar_holder(norm, a=0.0, alpha=0.5, c=-0.4, x0=1.0, b=1.0, R=2.0):
    """F(x) = sign(x-a) |x-a|^(1+alpha) / (1+alpha) + c with slope b.

    F'(x) = |x-a|^alpha is Hoelder with exponent alpha and not Lipschitz
    at a.  The center-Hoelder constant of B(F'(x) - F'(x0)) is exactly
    |b| (attained at x = a), so the analytic majorant is
    |b| |x0-a|^alpha - 1| + |b| v^alpha.
    """
    a, alpha, c, x0, b, R = map(float, (a, alpha, c, x0, b, R))
    if not (0.0 < alpha < 1.0):
        raise BadParameters("alpha must be in (0, 1); use scalar_quadratic for alpha=1")
    if b <= 0.0:
        raise BadParameters("slope b must be > 0")
    d = abs(x0 - a)
    if d == 0.0:
        raise BadParameters("x0 = a makes F'(x0) = 0 and the map non-contractive")
    # Python's float power, element by element: numpy's SIMD power can differ
    # from it in the last bit, and only on some CPUs.
    power = np.vectorize(operator.pow, otypes=[float])

    def f(x):
        t = x - a
        return np.copysign(power(np.abs(t), 1.0 + alpha), t) / (1.0 + alpha) + c

    problem = Problem(
        f=f,
        jacobian=lambda x: power(np.abs(x - a), alpha)[..., None],
        slope=np.array([[b]]),
        x0=np.array([x0]),
        R=R,
        norm=norm,
    )
    nu = abs(b * d ** alpha - 1.0)
    eta = float(abs(b) * abs(f(np.array([x0]))[0]))
    if eta == 0.0:
        raise BadParameters("x0 already solves the problem; pick another c or x0")
    analytic = None
    if nu < 1.0:
        analytic = HoelderParams(l0=abs(b), alpha=alpha, nu=nu, eta=eta)
    solution = a - math.copysign(((1.0 + alpha) * abs(c)) ** (1.0 / (1.0 + alpha)), c)

    def omega_exact(v):
        # sup over the closed ball: |x-a| sweeps [max(0, d-v), d+v] and the
        # objective |b t^alpha - 1| peaks at an endpoint of that interval
        lo, hi = max(0.0, d - v), d + v
        return max(abs(b * lo ** alpha - 1.0), abs(b * hi ** alpha - 1.0))

    return Fixture("scalar_holder", problem, analytic,
                   np.array([solution]), omega_exact)


def _diag_quadratic_l0(slope, norm):
    # Exact sup of ||B * 2 diag(h)|| over the unit ball of the vector norm.
    b_abs = np.abs(slope)
    if norm == "max":
        return 2.0 * float(np.max(np.sum(b_abs, axis=1)))
    if norm == "one":
        return 2.0 * float(np.max(np.sum(b_abs, axis=0)))
    return 2.0 * float(np.max(np.sqrt(np.sum(slope * slope, axis=0))))


def _poly2d(norm, x0=(1.1, 0.9), root=(1.0, 1.0), lin=(3.0, 4.0),
            coupling=(1.0, -1.0), R=2.0):
    """Two quadratic equations with a dense non-symmetric Jacobian.

        F1 = x^2 + lin1 x + coup1 y - c1
        F2 = coup2 x + y^2 + lin2 y - c2

    with c chosen so that `root` solves the system and B the exact inverse
    Jacobian at x0 (so nu = 0).  F' is affine, so the measure is exactly
    linear: omega(v) = l0 v with l0 = sup ||B 2 diag(h)|| over unit h,
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

    c = np.array([
        root[0] * root[0] + lin[0] * root[0] + coupling[0] * root[1],
        coupling[1] * root[0] + root[1] * root[1] + lin[1] * root[1],
    ])

    def f(x):
        u, v = x[..., 0], x[..., 1]
        return np.stack([
            u * u + lin[0] * u + coupling[0] * v - c[0],
            coupling[1] * u + v * v + lin[1] * v - c[1],
        ], axis=-1)

    constant = np.array([[lin[0], coupling[0]], [coupling[1], lin[1]]])

    def jac(x):
        return constant + 2.0 * x[..., None, :] * np.eye(2)

    slope = np.linalg.inv(jac(x0))
    problem = Problem(f=f, jacobian=jac, slope=slope, x0=x0, R=R, norm=norm)
    eta = vector_norm(slope @ f(x0), norm)
    if eta == 0.0:
        raise BadParameters("x0 already solves the system; move it off the root")
    l0 = _diag_quadratic_l0(slope, norm)
    analytic = HoelderParams(l0=l0, alpha=1.0, nu=0.0, eta=eta)
    return Fixture("poly2d", problem, analytic, root.copy(),
                   omega_exact=lambda v: l0 * v)


def _linear(norm, A=((2.0, 1.0), (1.0, 3.0)), b_vec=(3.0, 4.0),
            x0=(0.0, 0.0), R=10.0):
    """F(x) = A x - b with the exact slope B = A^{-1}: one-step convergence.

    B F'(x) = I everywhere, so the measure is identically zero and
    eta = ||x0 - A^{-1} b||.
    """
    A = np.asarray(A, dtype=float)
    b_vec = np.asarray(b_vec, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    R = float(R)
    n = x0.shape[0]
    if A.shape != (n, n) or b_vec.shape != (n,):
        raise BadParameters("A must be n x n and b_vec length n")
    if abs(np.linalg.det(A)) < 1e-300:
        raise BadParameters("A must be invertible")
    slope = np.linalg.inv(A)
    solution = slope @ b_vec
    problem = Problem(
        f=lambda x: np.matmul(A, x[..., None])[..., 0] - b_vec,
        jacobian=lambda x: np.broadcast_to(A, x.shape + (n,)),
        slope=slope,
        x0=x0,
        R=R,
        norm=norm,
    )
    eta = vector_norm(x0 - solution, norm)
    if eta == 0.0:
        raise BadParameters("x0 already solves the system")
    analytic = HoelderParams(l0=0.0, alpha=1.0, nu=0.0, eta=eta)
    return Fixture("linear", problem, analytic, solution,
                   omega_exact=lambda v: 0.0)


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

    def f(h):
        return h - 1.0 - h * np.matmul(kernel, h[..., None])[..., 0]

    def jac(h):
        d = 1.0 - np.matmul(kernel, h[..., None])[..., 0]
        return np.eye(n) * d[..., None] - h[..., None] * kernel

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
        "Hoelder but not Lipschitz at a",
    ),
    "poly2d": (
        _poly2d,
        "x0=1.1,0.9 root=1.0,1.0 lin=3.0,4.0 coupling=1.0,-1.0 R=2.0 -- "
        "dense non-symmetric 2d quadratic system, B = F'(x0)^{-1}",
    ),
    "linear": (
        _linear,
        "A and b_vec via problem-spec file; x0=0.0,0.0 R=10.0 -- "
        "F(x) = A x - b, slope A^{-1}, one-step convergence",
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
    if isinstance(value, (list, tuple, np.ndarray)):
        return all(map(_finite, np.asarray(value, dtype=object).ravel()))
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def build_fixture(name, norm="max", **params):
    """Build a bundled fixture by name; unknown names or stray/bad parameters raise.

    A value that is neither None nor finite numbers (nan, infinity, text)
    is refused here, naming its key, before any builder runs.
    """
    try:
        builder = _BUILDERS[name][0]
    except KeyError:
        raise UnknownFixture(f"unknown fixture {name!r}; known: {fixture_names()}")
    for key, value in params.items():
        if value is not None and not _finite(value):
            raise BadParameters(f"fixture parameter {key!r} must be finite numbers, got {value!r}")
    try:
        return builder(norm, **params)
    except TypeError as exc:
        raise BadParameters(f"bad parameters for fixture {name!r}: {exc}") from exc

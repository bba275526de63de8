"""Fixed slope iteration on finite-dimensional problems.

The iteration is x_{k+1} = x_k - B F(x_k) with a constant slope matrix B.
B is only ever applied to vectors: no linear solve and no factorization
happens anywhere in this module, so an ill-conditioned B degrades the
contraction rate but never the arithmetic.

One private kernel runs the iteration on a stack of starts, each row with
its own trust ball and its own stop: fsi_solve is its one-row case, and
uniqueness_probe runs all its starts together as rows, each with trust
radius rho + lambda_star (rho = the start's distance from x0).  F and B
are each applied to all live rows at once.  The estimator's sphere
directions and the probe's starts are each drawn as one stack per call.

A solve can carry a convergence certificate.  The trust region then
shrinks to the certified ball: an iterate trying to leave it is a model
violation and stops the run with a distinguished reason instead of an
exception.  verify_majorization is the one place that pairs a trace with
the scalar majorizing sequence: every step with the increment
v_{k+1} - v_k (which must dominate the step norm) and every iterate with
the a-priori error bound nu_star - v_k.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import majorant
from .errors import (
    BadParameters,
    CertificateMissing,
    EvaluationFailed,
    JacobianMissing,
    NotCertifiedError,
    NuNotContractive,
)
from .majorant import MajorantModel, TabulatedOmega
from .norms import NORM_KINDS, matrix_norm, matrix_norms, vector_norm, vector_norms

STOP_STEP_TOL = "step_tol"
STOP_RESIDUAL_TOL = "residual_tol"
STOP_MAX_ITER = "max_iter"
STOP_LEFT_BALL = "left_ball"

_CONVERGED = (STOP_STEP_TOL, STOP_RESIDUAL_TOL)

# Slack granted on ball-containment checks and on the majorization
# inequalities alike.
_SLACK = 1e-9

_NON_FINITE = "operator returned non-finite values"

MODE_DIRECT = "direct"
MODE_CENTERED = "centered"

DEFAULT_NUM_RADII = 24
DEFAULT_SAMPLES = 64

# The estimator applies B and the norm to stacks of sampled Jacobians of at
# most this many floats (64 KiB), so its memory does not grow with the budget.
_STACK_FLOATS = 2**13


@dataclass(frozen=True)
class Problem:
    """A finite-dimensional instance F(x) = 0 with its fixed slope.

    f maps a stack of points (S, n) to a stack of values (S, n); jacobian
    (optional, needed only by the measure estimator) maps it to a stack of
    dense matrices (S, n, n).  Row i of a result depends on row i of the
    stack alone: the iteration calls f once per step for all live starts,
    and the estimator calls jacobian once per stack of sampled points.  All
    evaluations must be possible inside the closed ball of radius R around
    x0, and evaluators must be effect-free.
    """

    f: object
    slope: np.ndarray
    x0: np.ndarray
    R: float
    norm: str = "max"
    jacobian: object = None

    def __post_init__(self):
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        slope = np.asarray(self.slope, dtype=float)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "slope", slope)
        n = x0.shape[0]
        if x0.ndim != 1 or not np.all(np.isfinite(x0)):
            raise BadParameters("x0 must be a finite vector")
        if slope.shape != (n, n) or not np.all(np.isfinite(slope)):
            raise BadParameters(f"slope must be a finite {n}x{n} matrix")
        if not (self.R > 0.0 and math.isfinite(self.R)):
            raise BadParameters(f"R must be finite and > 0, got {self.R}")
        if self.norm not in NORM_KINDS:
            raise BadParameters(f"norm must be one of {NORM_KINDS}, got {self.norm!r}")

    @property
    def dim(self):
        return self.x0.shape[0]


@dataclass(frozen=True)
class StoppingRule:
    tol_step: float = 1e-12
    tol_residual: float = 1e-12
    max_iter: int = 10000

    def __post_init__(self):
        if not all(0.0 < t < math.inf for t in (self.tol_step, self.tol_residual)):
            raise BadParameters("stopping tolerances must be positive")
        if self.max_iter < 1:
            raise BadParameters("max_iter must be >= 1")


@dataclass
class IterationTrace:
    """Recorded run of the iteration.

    step_norms has one entry per step; residual_norms one per recorded
    iterate (so one more).
    """

    iterates: list
    step_norms: list
    residual_norms: list
    stop_reason: str
    norm: str = "max"

    @property
    def num_steps(self):
        return len(self.step_norms)

    @property
    def converged(self):
        return self.stop_reason in _CONVERGED


def _evaluate(fn, x, shape, what):
    """fn(x) as a float array of this shape; EvaluationFailed if fn raises or gives another.

    Finiteness is left to the caller, so a stack can be checked row by row.
    """
    try:
        y = np.asarray(fn(x), dtype=float)
    except Exception as exc:
        raise EvaluationFailed(f"{what} evaluation raised: {exc}") from exc
    if y.shape != shape:
        raise EvaluationFailed(f"{what} returned shape {y.shape}, expected {shape}")
    return y


def _eval_rows(problem, x):
    """F at every row of x, and {row: EvaluationFailed} for the rows where it failed.

    F is called once on the whole stack.  Only if that call fails is every
    row evaluated alone, so that each failing row keeps its own message; a
    failed row holds zeros.  Non-finite rows are flagged one by one.
    """
    failed = {}
    try:
        r = _evaluate(problem.f, x, x.shape, "operator")
    except EvaluationFailed:
        r = np.zeros_like(x)
        for i in range(len(x)):
            try:
                r[i] = _evaluate(problem.f, x[i:i + 1], (1, problem.dim), "operator")[0]
            except EvaluationFailed as exc:
                failed[i] = exc
    if not np.isfinite(r).all():
        for i in np.flatnonzero(~np.isfinite(r).all(axis=-1)):
            failed[int(i)] = EvaluationFailed(_NON_FINITE)
    return r, failed


def _jacobians(problem, x):
    """F' at every row of x as an (S, n, n) stack; any failure raises."""
    if problem.jacobian is None:
        raise JacobianMissing("problem has no jacobian evaluator")
    j = _evaluate(problem.jacobian, x, x.shape + (problem.dim,), "jacobian")
    if not np.all(np.isfinite(j)):
        raise EvaluationFailed("jacobian returned non-finite values")
    return j


def _iterate(problem, starts, balls, stop, trace=None):
    """Run x <- x - B F(x) from every row of starts at once.

    Row i keeps to the ball of radius balls[i] around starts[i] and stops
    on its own, by these rules in this order: residual_tol, max_iter,
    left_ball (the iterate that would leave is not taken), a failed F
    evaluation, step_tol.  B is applied to all live rows with one stacked
    mat-vec, each norm is one batched call per step, and rows are dropped
    only on steps where some row stops.  Returns (limits, reasons,
    failures): each row's last iterate, its stop reason, and
    {row: EvaluationFailed} for the rows whose evaluation failed (their
    reason stays None).  A trace gets the iterates and norms of row 0,
    which is meant for a single row.
    """
    norm, slope = problem.norm, problem.slope
    limits = np.empty_like(starts)
    reasons = [None] * len(starts)
    failures = {}
    rows = np.arange(len(starts))
    x, centers, reach = starts, starts, balls + _SLACK
    r, failed = _eval_rows(problem, x)
    rn = vector_norms(r, norm)
    sn = np.full(len(starts), np.inf)
    if trace is not None:
        trace.iterates.append(x[0])
        trace.residual_norms.append(float(rn[0]))
    steps = 0
    while True:
        step_done = sn <= stop.tol_step
        done = step_done | (rn <= stop.tol_residual)
        if failed or np.count_nonzero(done):
            for i, exc in failed.items():
                failures[int(rows[i])] = exc
                done[i] = False
            for i in np.flatnonzero(done):
                reasons[rows[i]] = STOP_STEP_TOL if step_done[i] else STOP_RESIDUAL_TOL
            limits[rows[done]] = x[done]
            keep = ~done
            keep[list(failed)] = False
            x, r, sn, centers, reach, rows = (
                a[keep] for a in (x, r, sn, centers, reach, rows))
            if not rows.size:
                break
        if steps >= stop.max_iter:
            limits[rows] = x
            for i in rows:
                reasons[i] = STOP_MAX_ITER
            break
        x_next = x - np.matmul(slope, r[..., None])[..., 0]
        sn = vector_norms(x_next - x, norm)
        left = vector_norms(x_next - centers, norm) > reach
        if np.count_nonzero(left):
            limits[rows[left]] = x[left]
            for i in rows[left]:
                reasons[i] = STOP_LEFT_BALL
            keep = ~left
            x_next, sn, centers, reach, rows = (
                a[keep] for a in (x_next, sn, centers, reach, rows))
            if not rows.size:
                break
        x = x_next
        r, failed = _eval_rows(problem, x)
        rn = vector_norms(r, norm)
        steps += 1
        if trace is not None:
            trace.iterates.append(x[0])
            trace.step_norms.append(float(sn[0]))
            trace.residual_norms.append(float(rn[0]))
    return limits, reasons, failures


def fsi_solve(problem, stop=None, cert=None):
    """Run the iteration; returns (solution, trace).

    With a certificate attached the trust ball shrinks to radius
    min(R, nu_star).  Reaching max_iter is a stop reason, not an error.
    """
    stop = stop or StoppingRule()
    ball = problem.R
    if cert is not None:
        if not cert.certified:
            raise ValueError("attached certificate is not certified")
        ball = min(problem.R, cert.nu_star)

    trace = IterationTrace(iterates=[], step_norms=[], residual_norms=[],
                           stop_reason=None, norm=problem.norm)
    limits, reasons, failures = _iterate(problem, problem.x0[None], np.array([ball]),
                                         stop, trace)
    if failures:
        raise failures[0]
    x, trace.stop_reason = limits[0], reasons[0]
    return x, trace


@dataclass
class MajorizationReport:
    """Outcome of checking a trace against its scalar majorant.

    For every step k, scalar_steps[k] = v_{k+1} - v_k bounds the step
    norm, step_slacks[k] = scalar_steps[k] - ||x_{k+1} - x_k||, and
    error_bounds[k] = nu_star - v_k is the a-priori bound on
    ||x* - x_k||.  When the solve converged, tail_slacks[k] =
    error_bounds[k] - ||x_final - x_k||.  The report passes when every
    slack stays above -1e-9 and the run did not stop with left_ball: an
    iterate that tried to leave the trust ball contradicts the model.
    """

    passed: bool
    worst_slack: float
    converged: bool
    scalar_steps: list
    error_bounds: list
    step_slacks: list
    tail_slacks: list | None = None


def verify_majorization(trace, model):
    """Check the majorization inequalities of a trace against a model.

    The scalar sequence and nu_star are computed from the model, so the
    trace does not need to have been produced with a certificate
    attached.  A model that fails the trace is reported, not raised; only
    a model that cannot be certified at all raises CertificateMissing.
    """
    if trace.num_steps < 1:
        raise ValueError("trace has no steps to verify")
    try:
        ns = majorant.minimal_root(model)
    except NuNotContractive as exc:
        raise CertificateMissing(str(exc)) from exc
    if ns is None:
        raise CertificateMissing("model has no majorant root, nothing to verify")

    steps = range(trace.num_steps)
    seq = list(itertools.islice(majorant.majorizing_terms(model), trace.num_steps + 1))
    scalar_steps = [seq[k + 1] - seq[k] for k in steps]
    error_bounds = [ns - seq[k] for k in steps]
    step_slacks = [scalar_steps[k] - trace.step_norms[k] for k in steps]
    worst = min(step_slacks)
    tail_slacks = None
    if trace.converged:
        tails = vector_norms(trace.iterates[-1] - np.array(trace.iterates[:-1]), trace.norm)
        tail_slacks = (np.array(error_bounds) - tails).tolist()
        worst = min(worst, min(tail_slacks))
    return MajorizationReport(
        passed=worst >= -_SLACK and trace.stop_reason != STOP_LEFT_BALL,
        worst_slack=worst,
        converged=trace.converged,
        scalar_steps=scalar_steps,
        error_bounds=error_bounds,
        step_slacks=step_slacks,
        tail_slacks=tail_slacks,
    )


def _unit_directions(problem, k, rng):
    """k seeded Gaussian directions of unit length in the problem norm, as a (k, n) stack."""
    d = rng.standard_normal((k, problem.dim))
    return d / vector_norms(d, problem.norm)[:, None]


def _sphere_points(problem, radius, samples, rng):
    """Points on the sphere of the problem norm around x0, as a (k, n) stack.

    Dimension 1 has a two-point sphere and is enumerated exactly.  In
    higher dimensions the budget mixes seeded pseudorandom directions
    with directions through the extreme points of the norm ball, where a
    convex objective attains its supremum: all 2n signed axis vectors for
    the one norm, random sign corners for the max norm.  The two-norm
    sphere is smooth, so it gets normalized Gaussian directions only.
    """
    n = problem.dim
    if n == 1:
        return problem.x0 + radius * np.array([[-1.0], [1.0]])
    if problem.norm == "one":
        extreme = np.stack([np.eye(n), -np.eye(n)], axis=1).reshape(2 * n, n)
    elif problem.norm == "max":
        extreme = rng.choice([-1.0, 1.0], size=((samples + 1) // 2, n))
    else:
        extreme = np.empty((0, n))
    gaussian = _unit_directions(problem, max(0, samples - len(extreme)), rng)
    return problem.x0 + radius * np.concatenate([extreme, gaussian])


def estimate_omega(problem, mode=MODE_DIRECT, radii=None, samples_per_radius=DEFAULT_SAMPLES,
                   seed=0):
    """Sample-based tabulated continuity measure.

    mode "direct" tabulates max ||B F'(x) - I|| over sampled spheres
    (value at radius 0 is nu itself, of any size); mode "centered" tabulates
    max ||B (F'(x) - F'(x0))|| with value 0 at radius 0.  Values are made
    non-decreasing by a running maximum.  Sampling can only underestimate
    the true supremum, so the result is a lower envelope of the measure.
    """
    if mode not in (MODE_DIRECT, MODE_CENTERED):
        raise BadParameters(f"mode must be 'direct' or 'centered', got {mode!r}")
    if radii is None:
        radii = default_radii(problem.R)
    radii = [float(r) for r in radii]
    if not radii or not all(0.0 < r < math.inf for r in radii):
        raise BadParameters("radii must be finite and positive")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise BadParameters("radii must increase strictly")
    if radii[-1] > problem.R * (1.0 + 1e-12):
        raise BadParameters(f"largest radius {radii[-1]} exceeds R={problem.R}")
    if samples_per_radius < 1:
        raise BadParameters("samples_per_radius must be >= 1")

    n = problem.dim
    if mode == MODE_DIRECT:
        base = nu_at_start(problem)
        shift = np.eye(n)
    else:
        base = 0.0
        shift = problem.slope @ _jacobians(problem, problem.x0[None])[0]

    chunk = max(1, _STACK_FLOATS // n**2)
    rng = np.random.default_rng(seed)
    knots = [(0.0, base)]
    running = base
    for radius in radii:
        points = _sphere_points(problem, radius, samples_per_radius, rng)
        worst = 0.0
        for lo in range(0, len(points), chunk):
            stack = np.matmul(problem.slope, _jacobians(problem, points[lo:lo + chunk]))
            stack -= shift
            worst = max(worst, float(np.max(matrix_norms(stack, problem.norm))))
        running = max(running, worst)
        knots.append((radius, running))
    return TabulatedOmega(tuple(knots))


def default_radii(R, num=DEFAULT_NUM_RADII):
    if num < 1:
        raise BadParameters(f"number of radii must be >= 1, got {num}")
    return list(np.linspace(R / num, R, num))


def nu_at_start(problem):
    """||B F'(x0) - I||, the contraction defect at the starting point."""
    j0 = _jacobians(problem, problem.x0[None])[0]
    return matrix_norm(problem.slope @ j0 - np.eye(problem.dim), problem.norm)


def eta_at_start(problem):
    """||B F(x0)||, the exact first-step norm."""
    r, failed = _eval_rows(problem, problem.x0[None])
    if failed:
        raise failed[0]
    return vector_norm(problem.slope @ r[0], problem.norm)


def estimate_majorant(problem, mode=MODE_CENTERED, radii=None,
                      samples_per_radius=DEFAULT_SAMPLES, seed=0):
    """Tabulated majorant model with the tight first-step bound.

    eta is computed as exactly ||B F(x0)||.  In centered mode the measure
    is the centered estimate shifted up by nu = ||B F'(x0) - I||, which
    dominates the direct estimate pointwise by the triangle inequality.
    Either mode refuses nu >= 1 before sampling, with nu and eta on the error.
    """
    eta = eta_at_start(problem)
    if eta == 0.0:
        raise BadParameters("x0 already solves the problem; nothing to certify")
    nu = nu_at_start(problem)
    if nu >= 1.0:
        raise NuNotContractive(f"||B F'(x0) - I|| = {nu} >= 1: not a contraction at x0",
                               nu=nu, eta=eta)
    omega = estimate_omega(problem, mode, radii, samples_per_radius, seed)
    if mode == MODE_CENTERED:
        omega = TabulatedOmega(tuple((r, w + nu) for r, w in omega.knots))
    return MajorantModel(eta=eta, R=problem.R, omega=omega)


@dataclass
class UniquenessReport:
    """Limits of solves started across the uniqueness ball.

    passed requires every start to converge and all limits to agree
    pairwise within tol (distances in the problem norm).
    """

    passed: bool
    max_pairwise_distance: float
    tol: float
    num_starts: int
    limits: list
    failures: list


def _probe_starts(problem, lambda_star, num_starts, seed):
    """x0, then num_starts - 1 seeded points uniform inside radius lambda_star * (1 - 1e-6)."""
    rng = np.random.default_rng(seed)
    directions = _unit_directions(problem, num_starts - 1, rng)
    radii = lambda_star * (1.0 - 1e-6) * rng.random(num_starts - 1) ** (1.0 / problem.dim)
    return np.concatenate([problem.x0[None], problem.x0 + radii[:, None] * directions])


def uniqueness_probe(problem, cert, num_starts=100, seed=0, tol=1e-8, stop=None):
    """Solve from starts spread over the open uniqueness ball, all at once.

    The first start is x0 itself; the rest are sampled uniformly inside
    radius lambda_star * (1 - 1e-6), strictly inside regardless of the
    boundary type.  The starts run together as rows of one iteration,
    each with trust radius rho + lambda_star around itself (rho = its
    distance from x0): the certified theory confines its iterates to the
    lambda_star ball around the original x0, so a trust-ball exit again
    signals a wrong model and is reported as a per-start failure rather
    than raised, as is a failed evaluation.
    """
    if not cert.certified:
        raise NotCertifiedError("uniqueness probe needs a certified certificate")
    if cert.lambda_star > problem.R + _SLACK:
        raise BadParameters("uniqueness radius exceeds the problem trust radius")
    if num_starts < 1:
        raise BadParameters("num_starts must be >= 1")

    starts = _probe_starts(problem, cert.lambda_star, num_starts, seed)
    balls = vector_norms(starts - problem.x0, problem.norm) + cert.lambda_star
    ends, reasons, errors = _iterate(problem, starts, balls, stop or StoppingRule())
    limits = []
    failures = []
    for i, reason in enumerate(reasons):
        if i in errors:
            failures.append((i, f"evaluation failed: {errors[i]}"))
        elif reason not in _CONVERGED:
            failures.append((i, f"stopped with {reason}"))
        else:
            limits.append(ends[i])

    max_dist = 0.0
    stacked = np.array(limits)
    for i in range(len(limits) - 1):
        rest = vector_norms(stacked[i + 1:] - stacked[i], problem.norm)
        max_dist = max(max_dist, float(np.max(rest)))
    return UniquenessReport(
        passed=not failures and max_dist <= tol,
        max_pairwise_distance=max_dist,
        tol=tol,
        num_starts=num_starts,
        limits=limits,
        failures=failures,
    )

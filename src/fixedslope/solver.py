"""Fixed slope iteration on finite-dimensional problems.

The iteration is x_{k+1} = x_k - B F(x_k) with a constant slope matrix B.
B is only ever applied to vectors: no linear solve and no factorization
happens anywhere in this module, so an ill-conditioned B degrades the
contraction rate but never the arithmetic.

One private kernel runs the iteration on a stack of starts, each row with
its own trust ball and its own stop: fsi_solve is its one-row case, and
uniqueness_probe runs all its starts together as rows, each with trust
radius rho + lambda_star (rho = the start's distance from x0).  B is
applied to all live rows with one stacked mat-vec; F is still evaluated
once per row.

A solve can carry a convergence certificate.  The trace then pairs every
step with the increment v_{k+1} - v_k of the scalar majorizing sequence
(which must dominate the step norm) and with the a-priori error bound
nu_star - v_k, and the trust region shrinks to the certified ball: an
iterate trying to leave it is a model violation and stops the run with a
distinguished reason instead of an exception.
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
    RadiusOutOfRange,
)
from .majorant import MajorantModel, TabulatedOmega
from .norms import NORM_KINDS, matrix_norm, matrix_norms, vector_norm, vector_norms

STOP_STEP_TOL = "step_tol"
STOP_RESIDUAL_TOL = "residual_tol"
STOP_MAX_ITER = "max_iter"
STOP_LEFT_BALL = "left_ball"

_CONVERGED = (STOP_STEP_TOL, STOP_RESIDUAL_TOL)

# Slack granted on ball-containment checks; matches the bound tolerances
# used when verifying the majorization inequalities.
_BALL_SLACK = 1e-9

_NON_FINITE = "operator returned non-finite values"

MODE_DIRECT = "direct"
MODE_CENTERED = "centered"

DEFAULT_NUM_RADII = 24

# The estimator applies B and the norm to stacks of sampled Jacobians of at
# most this many floats (64 KiB), so its memory does not grow with the budget.
_STACK_FLOATS = 2**13


@dataclass(frozen=True)
class Problem:
    """A finite-dimensional instance F(x) = 0 with its fixed slope.

    f maps an (n,) vector to an (n,) vector; jacobian (optional, needed
    only by the measure estimator) maps it to a dense (n, n) matrix.  All
    evaluations must be possible inside the closed ball of radius R
    around x0.  Evaluators must be effect-free; the probe routines may
    call them from several starts.
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
        if self.tol_step <= 0.0 or self.tol_residual <= 0.0:
            raise BadParameters("stopping tolerances must be positive")
        if self.max_iter < 1:
            raise BadParameters("max_iter must be >= 1")


@dataclass
class IterationTrace:
    """Recorded run of the iteration.

    step_norms has one entry per step; residual_norms one per recorded
    iterate (so one more).  The scalar fields are present only when the
    solve carried a certificate.
    """

    iterates: list
    step_norms: list
    residual_norms: list
    stop_reason: str
    norm: str = "max"
    scalar_steps: list | None = None
    bound_slacks: list | None = None
    error_bounds: list | None = None

    @property
    def num_steps(self):
        return len(self.step_norms)

    @property
    def converged(self):
        return self.stop_reason in _CONVERGED


def _call_f(problem, x):
    """F(x) as an (n,) array; EvaluationFailed if F raises or gives the wrong shape.

    Finiteness is left to the caller, so a block of rows is checked at once.
    """
    try:
        y = np.asarray(problem.f(x), dtype=float)
    except Exception as exc:
        raise EvaluationFailed(f"operator evaluation raised: {exc}") from exc
    if y.shape != (problem.dim,):
        raise EvaluationFailed(
            f"operator returned shape {y.shape}, expected ({problem.dim},)"
        )
    return y


def _eval_f(problem, x):
    y = _call_f(problem, x)
    if not np.all(np.isfinite(y)):
        raise EvaluationFailed(_NON_FINITE)
    return y


def _eval_rows(problem, x):
    """F at every row of x, and {row: EvaluationFailed} for the rows where it failed.

    A failed row holds zeros; the finiteness check runs once for the block.
    """
    r = np.empty_like(x)
    failed = {}
    for i, xi in enumerate(x):
        try:
            r[i] = _call_f(problem, xi)
        except EvaluationFailed as exc:
            failed[i] = exc
            r[i] = 0.0
    if not np.isfinite(r).all():
        for i in np.flatnonzero(~np.isfinite(r).all(axis=-1)):
            failed[int(i)] = EvaluationFailed(_NON_FINITE)
    return r, failed


def _eval_jacobian(problem, x):
    if problem.jacobian is None:
        raise JacobianMissing("problem has no jacobian evaluator")
    try:
        j = np.asarray(problem.jacobian(x), dtype=float)
    except Exception as exc:
        raise EvaluationFailed(f"jacobian evaluation raised: {exc}") from exc
    n = problem.dim
    if j.shape != (n, n):
        raise EvaluationFailed(f"jacobian returned shape {j.shape}, expected ({n}, {n})")
    if not np.all(np.isfinite(j)):
        raise EvaluationFailed("jacobian returned non-finite values")
    return j


def fsi_step(problem, x):
    """One iteration step x - B F(x): one F evaluation, one mat-vec."""
    x = np.asarray(x, dtype=float)
    if vector_norm(x - problem.x0, problem.norm) > problem.R + _BALL_SLACK:
        raise RadiusOutOfRange("step requested outside the trust ball")
    return x - problem.slope @ _eval_f(problem, x)


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
    x, centers, reach = starts, starts, balls + _BALL_SLACK
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
    min(R, nu_star) and each step gets its scalar counterpart recorded.
    Reaching max_iter is a stop reason, not an error.
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
    step_norms = trace.step_norms
    if cert is not None and step_norms:
        # A certificate read back from a document has no model: pair the preview.
        terms = (cert.scalar_sequence_preview if cert.model is None
                 else majorant.majorizing_terms(cert.model))
        seq = list(itertools.islice(terms, len(step_norms) + 1))
        pairs = min(len(seq) - 1, len(step_norms))
        trace.scalar_steps = [seq[k + 1] - seq[k] for k in range(pairs)]
        trace.bound_slacks = [
            trace.scalar_steps[k] - step_norms[k] for k in range(pairs)
        ]
        trace.error_bounds = [cert.nu_star - seq[k] for k in range(pairs)]
    return x, trace


@dataclass
class MajorizationReport:
    """Outcome of checking a trace against its scalar majorant.

    step_slacks[k] = (v_{k+1} - v_k) - ||x_{k+1} - x_k||, and when the
    solve converged tail_slacks[k] = (nu_star - v_k) - ||x_final - x_k||;
    every slack must stay above -slack_tol for the report to pass.
    """

    passed: bool
    worst_slack: float
    slack_tol: float
    converged: bool
    step_slacks: list
    tail_slacks: list | None = None


def verify_majorization(trace, model, slack_tol=1e-9):
    """Check the majorization inequalities of a trace against a model.

    The scalar sequence is recomputed from the model, so the trace does
    not need to have been produced with a certificate attached.  A model
    that fails the trace is reported, not raised; only a model that
    cannot be certified at all raises CertificateMissing.
    """
    if trace.num_steps < 1:
        raise ValueError("trace has no steps to verify")
    try:
        ns = majorant.minimal_root(model)
    except NuNotContractive as exc:
        raise CertificateMissing(str(exc)) from exc
    if ns is None:
        raise CertificateMissing("model has no majorant root, nothing to verify")

    seq = list(itertools.islice(majorant.majorizing_terms(model), trace.num_steps + 1))
    step_slacks = [
        (seq[k + 1] - seq[k]) - trace.step_norms[k] for k in range(trace.num_steps)
    ]
    worst = min(step_slacks)
    tail_slacks = None
    if trace.converged:
        vn = lambda v: vector_norm(v, trace.norm)
        x_final = trace.iterates[-1]
        tail_slacks = [
            (ns - seq[k]) - vn(x_final - trace.iterates[k])
            for k in range(trace.num_steps)
        ]
        worst = min(worst, min(tail_slacks))
    return MajorizationReport(
        passed=worst >= -slack_tol,
        worst_slack=worst,
        slack_tol=slack_tol,
        converged=trace.converged,
        step_slacks=step_slacks,
        tail_slacks=tail_slacks,
    )


def _sphere_points(problem, radius, samples, rng):
    """Points on the sphere of the problem norm around x0.

    Dimension 1 has a two-point sphere and is enumerated exactly.  In
    higher dimensions the budget mixes seeded pseudorandom directions
    with directions through the extreme points of the norm ball, where a
    convex objective attains its supremum: all 2n signed axis vectors for
    the one norm, random sign corners for the max norm.  The two-norm
    sphere is smooth, so it gets normalized Gaussian directions only.
    """
    n = problem.dim
    if n == 1:
        return [problem.x0 - radius, problem.x0 + radius]
    directions = []
    if problem.norm == "one":
        for j in range(n):
            for sign in (1.0, -1.0):
                d = np.zeros(n)
                d[j] = sign
                directions.append(d)
    elif problem.norm == "max":
        directions.extend(rng.choice([-1.0, 1.0], size=n)
                          for _ in range((samples + 1) // 2))
    while len(directions) < samples:
        d = rng.standard_normal(n)
        nd = vector_norm(d, problem.norm)
        while nd == 0.0:  # pragma: no cover - probability zero
            d = rng.standard_normal(n)
            nd = vector_norm(d, problem.norm)
        directions.append(d / nd)
    return [problem.x0 + radius * d for d in directions]


def estimate_omega(problem, mode=MODE_DIRECT, radii=None, samples_per_radius=64, seed=0):
    """Sample-based tabulated continuity measure.

    mode "direct" tabulates max ||B F'(x) - I|| over sampled spheres
    (value at radius 0 is nu itself); mode "centered" tabulates
    max ||B (F'(x) - F'(x0))|| with value 0 at radius 0.  Values are made
    non-decreasing by a running maximum.  Sampling can only underestimate
    the true supremum, so the result is a lower envelope of the measure.
    """
    if mode not in (MODE_DIRECT, MODE_CENTERED):
        raise BadParameters(f"mode must be 'direct' or 'centered', got {mode!r}")
    if radii is None:
        radii = default_radii(problem.R)
    radii = [float(r) for r in radii]
    if not radii or any(r <= 0.0 for r in radii):
        raise BadParameters("radii must be positive")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise BadParameters("radii must increase strictly")
    if radii[-1] > problem.R * (1.0 + 1e-12):
        raise BadParameters(f"largest radius {radii[-1]} exceeds R={problem.R}")
    if samples_per_radius < 1:
        raise BadParameters("samples_per_radius must be >= 1")

    n = problem.dim
    if mode == MODE_DIRECT:
        base = _contraction_at_start(problem)
        shift = np.eye(n)
    else:
        base = 0.0
        shift = problem.slope @ _eval_jacobian(problem, problem.x0)

    chunk = max(1, _STACK_FLOATS // n**2)
    jacobians = np.empty((chunk, n, n))
    defects = np.empty_like(jacobians)
    rng = np.random.default_rng(seed)
    knots = [(0.0, base)]
    running = base
    for radius in radii:
        points = _sphere_points(problem, radius, samples_per_radius, rng)
        worst = 0.0
        for lo in range(0, len(points), chunk):
            part = points[lo:lo + chunk]
            k = len(part)
            for i, x in enumerate(part):
                jacobians[i] = _eval_jacobian(problem, x)
            stack = np.matmul(problem.slope, jacobians[:k], out=defects[:k])
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
    j0 = _eval_jacobian(problem, problem.x0)
    return matrix_norm(problem.slope @ j0 - np.eye(problem.dim), problem.norm)


def eta_at_start(problem):
    """||B F(x0)||, the exact first-step norm."""
    return vector_norm(problem.slope @ _eval_f(problem, problem.x0), problem.norm)


def _contraction_at_start(problem):
    """nu_at_start, refused unless it is below 1."""
    nu = nu_at_start(problem)
    if nu >= 1.0:
        raise NuNotContractive(
            f"||B F'(x0) - I|| = {nu} >= 1: not a contraction at x0"
        )
    return nu


def estimate_majorant(problem, mode=MODE_CENTERED, radii=None, samples_per_radius=64, seed=0):
    """Tabulated majorant model with the tight first-step bound.

    eta is computed as exactly ||B F(x0)||.  In centered mode the measure
    is the centered estimate shifted up by nu = ||B F'(x0) - I||, which
    dominates the direct estimate pointwise by the triangle inequality.
    """
    eta = eta_at_start(problem)
    if eta == 0.0:
        raise BadParameters("x0 already solves the problem; nothing to certify")
    if mode == MODE_CENTERED:
        nu = _contraction_at_start(problem)  # refuse before sampling
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
    vn = lambda v: vector_norm(v, problem.norm)
    rng = np.random.default_rng(seed)
    reach = lambda_star * (1.0 - 1e-6)
    starts = [problem.x0]
    for _ in range(num_starts - 1):
        d = rng.standard_normal(problem.dim)
        nd = vn(d)
        while nd == 0.0:  # pragma: no cover - probability zero
            d = rng.standard_normal(problem.dim)
            nd = vn(d)
        radius = reach * rng.random() ** (1.0 / problem.dim)
        starts.append(problem.x0 + (radius / nd) * d)
    return np.array(starts)


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
    if cert.lambda_star > problem.R + _BALL_SLACK:
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

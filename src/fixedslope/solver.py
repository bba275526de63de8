"""Fixed slope iteration on finite-dimensional problems.

The iteration is x_{k+1} = x_k - B F(x_k) with a constant slope matrix B.
B is only ever applied to vectors: no linear solve and no factorization
happens anywhere in this module, so an ill-conditioned B degrades the
contraction rate but never the arithmetic.

One private kernel runs the iteration on a stack of starts, each row with
its own trust ball and its own stop: fsi_solve is its one-row case, and
uniqueness_probe runs all its starts together as rows, each with trust
radius rho + lambda_star (rho = the start's distance from x0).  F and B
are each applied to all live rows at once.  The kernel resolves its norm
once per call, and reads finiteness from the residual norms it needs
anyway: a nan or inf entry makes its row's norm nan or inf, so only then
are the residuals scanned, row by row.  The estimator's sphere points
are drawn for whole stacks of radii at once, each radius with the draws
it takes alone, and the probe's starts as one stack per call.  The
estimator packs as many whole radii as fit into one stack of sampled
Jacobians and forms B F'(x), its shift and the running max of its norms,
radius by radius, in one workspace allocated per call, so it never writes
into an array the problem's jacobian returned.

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
from .errors import BadParameters, EvaluationFailed, JacobianMissing, NotCertifiedError
from .majorant import MajorantModel, TabulatedOmega
from .norms import (NORM_KINDS, _ROW_NORMS, _max_norm_in_place, matrix_norm, vector_norm,
                    vector_norms)

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
# most this many floats (512 KiB, sixteen Jacobians at n = 64), so its memory
# does not grow with the budget.  Four such arrays, the estimator's live set
# in the two norm (the B F'(x) workspace, the problem's Jacobian stack and
# two Gram buffers), fill one core's 2 MiB L2 cache.  On a 2-vCPU Xeon VM
# the benchmark's 12 H-equation estimates ran at 216, 221, 230, 228 and 221
# jobs/s with 2^15, 3 * 2^14, 2^16, 5 * 2^14 and 3 * 2^15 floats (best time
# per estimate over 30 interleaved rounds in one process).  The size only
# groups independent matrices: each matrix's product, shift and norm, and so
# every knot, are the same at any size.  A stack holds as many whole radii
# as fit, or part of one radius that does not fit alone.  Each call writes
# every stack's B F'(x), its shift and its |.| into one workspace of that
# size (plus two Gram buffers for the spectral norm), allocated once.  Each
# stack is reduced once, every radius against the running max, so a matrix
# that cannot raise its knot is never decomposed.  The points of as many
# whole stacks as fit in a quarter of this size (one stack at least) are
# drawn at once, so most estimates draw once.  The uniqueness probe
# takes its pairwise differences in blocks of the same size.
_STACK_FLOATS = 2**16


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
        if x0.ndim != 1 or not np.isfinite(x0).all():
            raise BadParameters("x0 must be a finite vector")
        if slope.shape != (n, n) or not np.isfinite(slope).all():
            raise BadParameters(f"slope must be a finite {n}x{n} matrix")
        if not (self.R > 0.0 and math.isfinite(self.R)):
            raise BadParameters(f"R must be finite and > 0, got {self.R}")
        if self.norm not in NORM_KINDS:
            raise BadParameters(f"norm must be one of {NORM_KINDS}, got {self.norm!r}")

    @property
    def dim(self):
        return self.x0.shape[0]


def _whole(value, name):
    """value as an int; BadParameters naming it unless it is a whole number >= 1."""
    if not (1 <= value < math.inf and value == math.floor(value)):
        raise BadParameters(f"{name} must be a whole number >= 1, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class StoppingRule:
    tol_step: float = 1e-12
    tol_residual: float = 1e-12
    max_iter: int = 10000

    def __post_init__(self):
        if not all(0.0 < t < math.inf for t in (self.tol_step, self.tol_residual)):
            raise BadParameters("stopping tolerances must be positive")
        _whole(self.max_iter, "max_iter")


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
    norm: str

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


def _eval_rows(problem, x, row_norm):
    """F at every row of x, its row_norm, and {row: EvaluationFailed} for the failed rows.

    F is called once on the whole stack.  Only if that call fails is every
    row evaluated alone, so that each failing row keeps its own message; a
    failed row holds zeros.  A row with a nan or inf entry has a nan or inf
    norm, so the rows are searched for non-finite entries, and flagged one
    by one, only when the largest norm is not finite.  A finite row whose
    norm overflows is searched but not flagged.
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
    rn = row_norm(r)
    if not np.maximum.reduce(rn) < math.inf:  # nan compares false too
        for i in np.flatnonzero(~np.isfinite(r).all(axis=-1)):
            failed[int(i)] = EvaluationFailed(_NON_FINITE)
    return r, rn, failed


def _jacobians(problem, x):
    """F' at every row of x as an (S, n, n) stack; finiteness is left to _finite_norm."""
    if problem.jacobian is None:
        raise JacobianMissing("problem has no jacobian evaluator")
    return _evaluate(problem.jacobian, x, x.shape + (problem.dim,), "jacobian")


def _finite_norm(value, jacobians, radius, norm):
    """value, a norm reduced from B F'(x) at these Jacobians, unless it is nan or inf.

    Then EvaluationFailed names the Jacobians when one of their entries is
    not finite, else B F'(x).  A non-finite entry of F'(x) leaves its whole
    column of B F'(x) non-finite for a finite B (0 * inf is nan), so the
    entries are searched only once a norm has failed.
    """
    if value < math.inf:
        return value
    if not np.isfinite(jacobians).all():
        raise EvaluationFailed("jacobian returned non-finite values")
    raise EvaluationFailed(f"B F'(x) is not finite in the {norm} norm at radius {radius!r}")


def _iterate(problem, starts, balls, stop, trace=None):
    """Run x <- x - B F(x) from every row of starts at once.

    Row i keeps to the ball of radius balls[i] around starts[i] and stops
    on its own.  At each iterate the rules win in this order: a failed F
    evaluation, step_tol, residual_tol, max_iter; then left_ball, judged
    on the step from it (the iterate that would leave is not taken).  B
    is applied to all live rows with one stacked mat-vec and the norm,
    resolved once per call, is one batched reduction per use.  Each step
    tests the smallest step and residual norms first; the stop masks and
    reasons are built, and rows dropped, only on steps where some row
    stops.  A non-finite residual is read from its norm (see _eval_rows).
    Returns (limits, reasons, failures): each row's last iterate, its stop
    reason, and {row: EvaluationFailed} for the rows whose evaluation
    failed (their reason stays None).  A trace gets the iterates and norms
    of row 0, which is meant for a single row.
    """
    row_norm, slope = _ROW_NORMS[problem.norm], problem.slope
    tol_step, tol_residual = stop.tol_step, stop.tol_residual
    limits = np.empty_like(starts)
    reasons = [None] * len(starts)
    failures = {}
    rows = np.arange(len(starts))
    x, centers, reach = starts, starts, balls + _SLACK
    r, rn, failed = _eval_rows(problem, x, row_norm)
    sn = np.full(len(starts), np.inf)
    if trace is not None:
        trace.iterates.append(x[0])
        trace.residual_norms.append(float(rn[0]))
    steps = 0
    while True:
        # fmin skips a nan norm, so a row that stops is never hidden by another's nan
        if (failed or np.fmin.reduce(sn) <= tol_step
                or np.fmin.reduce(rn) <= tol_residual):
            step_done = sn <= tol_step
            done = step_done | (rn <= tol_residual)
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
        sn = row_norm(x_next - x)
        left = row_norm(x_next - centers) > reach
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
        r, rn, failed = _eval_rows(problem, x, row_norm)
        steps += 1
        if trace is not None:
            trace.iterates.append(x[0])
            trace.step_norms.append(float(sn[0]))
            trace.residual_norms.append(float(rn[0]))
    return limits, reasons, failures


def fsi_solve(problem, stop=None, cert=None):
    """Run the iteration; returns (solution, trace).

    With a certificate attached the trust ball shrinks to radius
    min(R, nu_star); a refused one raises NotCertifiedError.  Reaching
    max_iter is a stop reason, not an error.
    """
    stop = stop or StoppingRule()
    ball = problem.R
    if cert is not None:
        if not cert.certified:
            raise NotCertifiedError("attached certificate is not certified")
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
    scalar_steps: list
    error_bounds: list
    step_slacks: list
    tail_slacks: list | None = None


def verify_majorization(trace, model):
    """Check the majorization inequalities of a trace against a model.

    The scalar sequence and nu_star are computed from the model, so the
    trace does not need to have been produced with a certificate
    attached.  A model that fails the trace is reported, not raised; only
    a model that certify refuses raises NotCertifiedError.
    """
    if trace.num_steps < 1:
        raise ValueError("trace has no steps to verify")
    # the nu_star of analyze, without its second half
    ns = majorant._left_bracket(model, majorant._nu(model))[3]
    if ns is None:
        raise NotCertifiedError("model has no majorant root in [0, R], nothing to verify")

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
        scalar_steps=scalar_steps,
        error_bounds=error_bounds,
        step_slacks=step_slacks,
        tail_slacks=tail_slacks,
    )


def _unit_directions(problem, k, rng):
    """k seeded Gaussian directions of unit length in the problem norm, as a (k, n) stack."""
    d = rng.standard_normal((k, problem.dim))
    return d / vector_norms(d, problem.norm)[:, None]


_SIGNS = np.array([-1.0, 1.0])


def _sphere_count(n, norm, samples):
    """How many points _sphere_points draws for each radius."""
    return 2 if n == 1 else max(2 * n, samples) if norm == "one" else samples


def _sphere_points(problem, radius, samples, rng):
    """Points on the spheres of the problem norm around x0, a (k, n) stack per radius.

    Dimension 1 has a two-point sphere and is enumerated exactly.  In
    higher dimensions the budget mixes seeded pseudorandom directions
    with directions through the extreme points of the norm ball, where a
    convex objective attains its supremum: all 2n signed axis vectors for
    the one norm, random sign corners for the max norm.  The two-norm
    sphere is smooth, so it gets normalized Gaussian directions only.
    A sequence of radii gives their stacks in turn, each radius with the
    rng calls it takes alone, so the bits are those of one radius at a
    time; one normalization, scaling and shift serve them all.
    """
    n, norm = problem.dim, problem.norm
    radii = np.reshape(radius, (-1, 1, 1))
    if n == 1:
        return (problem.x0 + radii * np.array([[-1.0], [1.0]])).reshape(-1, 1)
    d = np.empty((len(radii), _sphere_count(n, norm, samples), n))
    head = 2 * n if norm == "one" else (samples + 1) // 2 if norm == "max" else 0
    if norm == "one":
        d[:, :head] = np.stack([np.eye(n), -np.eye(n)], axis=1).reshape(2 * n, n)
    if norm == "two":
        rng.standard_normal(out=d)
    else:
        for each in d:
            if norm == "max":
                # the draws and the stream of rng.choice([-1.0, 1.0], size), at half its cost
                each[:head] = _SIGNS[rng.integers(0, 2, size=(head, n))]
            rng.standard_normal(out=each[head:])
    gaussian = d[:, head:]
    gaussian /= vector_norms(gaussian, norm)[..., None]
    d *= radii
    d += problem.x0
    return d.reshape(-1, n)


def estimate_omega(problem, mode=MODE_DIRECT, radii=None, samples_per_radius=DEFAULT_SAMPLES,
                   seed=0):
    """Sample-based tabulated continuity measure, starting at nu = ||B F'(x0) - I||.

    Mode "direct" tabulates max ||B F'(x) - I|| over sampled spheres, mode
    "centered" nu + max ||B (F'(x) - F'(x0))||, which dominates it by the
    triangle inequality.  B F'(x0) is formed once and nu may be of any size.
    Values are made non-decreasing by a running maximum.  Sampling can only
    underestimate the true supremum, so the result is a lower envelope.
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
    samples = _whole(samples_per_radius, "samples_per_radius")

    n, norm = problem.dim, problem.norm
    nu, start = nu_at_start(problem)
    # B F'(x) and its norms may overflow or hold nan: _finite_norm raises for them
    with np.errstate(over="ignore", invalid="ignore"):
        # direct: the running max starts at nu; centered: nu lifts each knot after the max
        running, lift = (nu, 0.0) if mode == MODE_DIRECT else (0.0, nu)

        rng = np.random.default_rng(seed)
        count = _sphere_count(n, norm, samples)  # points per radius
        chunk = max(1, _STACK_FLOATS // n**2)
        per = max(1, chunk // count)  # whole radii per stack, or one radius in parts
        draw = per * max(1, _STACK_FLOATS // (4 * per * count * n))  # whole stacks a draw
        work = np.empty((min(chunk, count * min(per, len(radii))), n, n))
        diagonal = work.reshape(len(work), n * n)[:, ::n + 1]
        grams = np.empty((2,) + work.shape) if norm == "two" else None
        knots = [(0.0, nu)] + [None] * len(radii)
        for lo in range(0, len(radii), per):
            if lo % draw == 0:
                drawn = _sphere_points(problem, radii[lo:lo + draw], samples, rng)
            group = radii[lo:lo + per]
            points = drawn[lo % draw * count:(lo % draw + len(group)) * count]
            for at in range(0, len(points), chunk):
                x = points[at:at + chunk]
                jac = _jacobians(problem, x)
                stack = np.matmul(problem.slope, jac, out=work[:len(x)])
                if mode == MODE_DIRECT:
                    diagonal[:len(x)] -= 1.0
                else:
                    stack -= start
                size = min(count, len(x))  # one segment per radius
                tops = _max_norm_in_place(stack, norm, running, grams, size).tolist()
                for i, top in enumerate(tops):
                    running = _finite_norm(top, jac[i * size:(i + 1) * size], group[i], norm)
                    knots[lo + i + 1] = (group[i], running + lift)
                # free this stack's Jacobians before the next call allocates its own
                del jac, stack
    return TabulatedOmega(tuple(knots))


def default_radii(R, num=DEFAULT_NUM_RADII):
    """num radii spaced evenly up to R; num must be a whole number >= 1."""
    num = _whole(num, "number of radii")
    return list(np.linspace(R / num, R, num))


def eta_at_start(problem):
    """||B F(x0)||, the exact first-step norm: the eta of every majorant model.

    A B F(x0) whose norm overflows or is nan raises EvaluationFailed, as
    nu_at_start does for B F'(x0).  eta = 0 is refused with BadParameters:
    x0 already solves the problem, so there is no ball to certify.
    """
    norm = problem.norm
    r, _, failed = _eval_rows(problem, problem.x0[None], _ROW_NORMS[norm])
    if failed:
        raise failed[0]
    with np.errstate(over="ignore", invalid="ignore"):
        eta = vector_norm(problem.slope @ r[0], norm)
    if not eta < math.inf:
        raise EvaluationFailed(f"B F(x0) is not finite in the {norm} norm")
    if eta == 0.0:
        raise BadParameters("x0 already solves the problem; nothing to certify")
    return eta


def nu_at_start(problem):
    """(||B F'(x0) - I||, B F'(x0)) from one Jacobian: the nu of every majorant model."""
    n, norm = problem.dim, problem.norm
    # B F'(x0) and its norm may overflow or hold nan: _finite_norm raises for them
    jac = _jacobians(problem, problem.x0[None])
    with np.errstate(over="ignore", invalid="ignore"):
        start = problem.slope @ jac[0]
        # a non-finite matrix never reaches the SVD of the two norm
        nu = matrix_norm(start - np.eye(n), norm) if np.isfinite(start).all() else math.nan
    return _finite_norm(nu, jac, 0.0, norm), start


def estimate_majorant(problem, mode=MODE_CENTERED, radii=None,
                      samples_per_radius=DEFAULT_SAMPLES, seed=0):
    """Tabulated majorant model with the tight first-step bound.

    eta is exactly ||B F(x0)|| (eta_at_start, which refuses a solved
    start) and the measure is estimate_omega's, whatever its nu.  Radii
    that stop short of R are refused with BadParameters before any
    Jacobian is evaluated, since the model's measure must cover [0, R].
    """
    eta = eta_at_start(problem)
    top = problem.R if radii is None else max(map(float, radii), default=problem.R)
    if top < problem.R:
        raise BadParameters(f"largest radius {top} is below R={problem.R}: "
                            "the measure must cover [0, R]")
    return MajorantModel(eta, problem.R,
                         estimate_omega(problem, mode, radii, samples_per_radius, seed))


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
    than raised, as is a failed evaluation.  tol must be finite and >= 0;
    it is checked, like num_starts, before any start runs.
    """
    if not cert.certified:
        raise NotCertifiedError("uniqueness probe needs a certified certificate")
    if cert.lambda_star > problem.R + _SLACK:
        raise BadParameters("uniqueness radius exceeds the problem trust radius")
    num_starts = _whole(num_starts, "num_starts")
    if not 0.0 <= tol < math.inf:
        raise BadParameters(f"tol must be finite and >= 0, got {tol!r}")

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

    # Each block of rows against every row from the block's first on, so a
    # block holds at most _STACK_FLOATS floats (one row at least).  ||a - b||
    # == ||b - a|| and the diagonal is 0, so the max equals that of the pair
    # loop bit for bit.
    max_dist = 0.0
    stacked = np.array(limits)
    block = max(1, _STACK_FLOATS // max(1, stacked.size))
    for lo in range(0, len(limits) - 1, block):
        dists = vector_norms(stacked[lo:lo + block, None] - stacked[None, lo:], problem.norm)
        max_dist = max(max_dist, float(dists.max()))
    return UniquenessReport(
        passed=not failures and max_dist <= tol,
        max_pairwise_distance=max_dist,
        tol=tol,
        num_starts=num_starts,
        limits=limits,
        failures=failures,
    )

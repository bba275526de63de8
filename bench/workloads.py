"""The four benchmark workloads: inputs, jobs and output checks.

A workload draws a pool of items from its seed during set-up, together
with everything its checks need.  Items are ordered round-robin over the
workload's job kinds, so that any whole number of rounds holds every
kind equally often.  ``run`` is the timed job; it calls the package only
through attributes of the ``fixedslope`` package, so a Tracer can wrap
them.  ``check`` grades one output against references computed here,
after timing has stopped.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracles

NORMS = ("max", "one", "two")
REFUSALS = ("constraint_a_fails", "radius_too_small", "nu_too_large")
CONVERGED = ("step_tol", "residual_tol")


@dataclass
class Item:
    kind: str
    spec: dict
    # Output of a certificate built from a sampled measure.  The package
    # documents sampled measures as lower envelopes, so a broken promise
    # here is counted as a failed job but does not make the run incorrect.
    sampled: bool = False


@dataclass
class Verdict:
    ok: bool
    note: str = ""


@dataclass
class Workload:
    """Base: ``items`` in round-robin order over ``kinds``, ``rounds`` per kind.

    ``build(kind, u, r)`` makes the item of one kind for round r; ``u(name)``
    gives that round's value of the Latin-hypercube parameter ``name``.
    """

    fs: object
    seed: int
    tmpdir: str
    items: list = field(default_factory=list)

    kinds = ()
    rounds = 0
    stream = 0

    def __post_init__(self):
        self.rng = np.random.default_rng([self.seed, self.stream])
        per_kind = []
        for kind in self.kinds:
            strata = Strata(self.rng, self.rounds)
            per_kind.append([self.build(kind, lambda name, r=r: strata(name, r), r)
                             for r in range(self.rounds)])
        self.items = [item for row in zip(*per_kind) for item in row]

    def draw_seed(self):
        return int(self.rng.integers(2**31))

    def summarize(self, output):
        """Comparable summary of an output; repeats of an item must agree."""
        return output

    def with_problems(self, items, wrap):
        """Copies of items whose problems are replaced by ``wrap(problem)``."""
        out = []
        for it in items:
            spec = dict(it.spec)
            if "problem" in spec:
                spec["problem"] = wrap(spec["problem"])
            out.append(Item(it.kind, spec, it.sampled))
        return out


class Strata:
    """Latin-hypercube draws: each named parameter takes the midpoints of
    ``rounds`` equal slices of [0, 1), one per round, in seeded order.

    Every seed therefore times the same parameter values, combined and
    ordered differently, which keeps job sizes alike from seed to seed.
    """

    def __init__(self, rng, rounds):
        self.rng, self.rounds, self.columns = rng, rounds, {}

    def __call__(self, name, r):
        if name not in self.columns:
            self.columns[name] = (self.rng.permutation(self.rounds) + 0.5) / self.rounds
        return float(self.columns[name][r])


# --- certify ----------------------------------------------------------------

class CertifyWorkload(Workload):
    """Parameter sweep of scalar majorant models: certify, and compare for Hoelder."""

    kinds = ("hoelder", "tabulated")
    # Not 2 mod 4: such counts have a stratum at u = 0.75, which puts
    # eta = (0.1 + 1.2 u) eta_max exactly on the threshold, where rounding
    # decides the outcome.
    rounds = 48
    stream = 1

    def build(self, kind, u, r):
        if kind == "hoelder":
            alpha = 1.0 if r % 4 == 0 else 0.3 + 0.7 * u("alpha")
            l0 = 10.0 ** (2.0 * u("l0") - 1.0)
            nu = 0.6 * u("nu")
            eta = (0.1 + 1.2 * u("eta")) * oracles.holder_threshold(l0, alpha, nu)
            R = ((1.0 - nu) / l0) ** (1.0 / alpha) * (0.2 + 2.8 * u("R"))
            p = self.fs.HoelderParams(l0, alpha, nu, eta)
            return Item(kind, dict(p=p, R=R, model=p.model(R)))
        knots = int(round(16.0 * 125.0 ** u("knots")))
        R = 1.0 + 9.0 * u("R")
        radii = np.linspace(0.0, R, knots)
        nu0 = 1.0 + 0.3 * u("nu") if r % 8 == 7 else 0.5 * u("nu")
        jitter = np.cumsum(self.rng.random(knots)) * (0.01 / knots)
        values = nu0 + (0.5 + 3.5 * u("scale")) * (radii / R) ** (0.5 + 1.5 * u("power")) + jitter
        g0 = oracles.TabulatedG(radii, values, 0.0)
        eta = (0.1 + 1.2 * u("eta")) * max(-g0(min(R, g0.crossing())), 0.01 * R)
        omega = self.fs.TabulatedOmega(tuple(zip(radii.tolist(), values.tolist())))
        return Item(kind, dict(radii=radii, values=values, eta=eta, R=R,
                               model=self.fs.MajorantModel(eta, R, omega)))

    def run(self, item):
        s = item.spec
        cert = self.fs.certify(s["model"])
        if item.kind == "hoelder":
            return cert, self.fs.compare_report(s["p"], s["R"])
        return cert, None

    def check(self, item, output):
        cert, rep = output
        s = item.spec
        if item.kind == "hoelder":
            return self._check_hoelder(s, cert, rep)
        g = oracles.TabulatedG(s["radii"], s["values"], s["eta"])
        if s["values"][0] >= 1.0:
            return _expect(cert.reason == "nu_too_large", f"expected nu_too_large, got {cert.reason}")
        gam = min(s["R"], g.crossing())
        if g(gam) > 0.0:
            return _expect(cert.reason == "constraint_a_fails",
                           f"g > 0 on [0, R] but got {cert.status}/{cert.reason}")
        ns = oracles.bisect_sign(g, 0.0, gam)
        return _check_radii(g, cert, ns, s["R"], s["eta"])

    def _check_hoelder(self, s, cert, rep):
        p, R = s["p"], s["R"]
        l0, alpha, nu, eta = p.l0, p.alpha, p.nu, p.eta
        emax = oracles.holder_threshold(l0, alpha, nu)
        holds = l0 * eta ** alpha <= (1 - nu) ** (alpha + 1) * (alpha / (1 + alpha)) ** alpha
        if holds != self.fs.check_holder_condition(p) or rep.new_holds != holds:
            return Verdict(False, "closed-form condition disagrees")
        rival = oracles.holder_threshold(l0 * (1 + alpha), alpha, nu)
        if not (oracles.close(rep.new_eta_max, emax) and oracles.close(rep.ahues_eta_max, rival)
                and oracles.close(rep.eta_max_ratio, (1 + alpha) ** (1 / alpha))):
            return Verdict(False, "eta_max or ratio law differs from closed form")
        if rep.ahues_holds:
            rs = min(oracles.holder_roots(l0 * (1 + alpha), alpha, nu, eta)[0], R)
            if not oracles.close(rep.r_star, rs, 1e-6):
                return Verdict(False, f"r_star {rep.r_star} != {rs}")
        if not holds:
            return _expect(cert.reason == "constraint_a_fails",
                           f"condition fails but got {cert.status}/{cert.reason}")
        ns = oracles.holder_roots(l0, alpha, nu, eta)[0]
        if ns > R * (1 + 1e-9):
            return _expect(cert.reason == "radius_too_small"
                           and oracles.close(cert.nu_star_needed, ns, 1e-6),
                           f"root {ns} beyond R={R} but got {cert.reason}")
        if not oracles.close(rep.nu_star, ns, 1e-6):
            return Verdict(False, f"compare nu_star {rep.nu_star} != {ns}")
        g = lambda v: oracles.holder_g(l0, alpha, nu, eta, v)
        return _check_radii(g, cert, ns, R, eta)


def _expect(cond, note):
    return Verdict(True) if cond else Verdict(False, note)


def _check_radii(g, cert, ns, R, eta):
    """A certificate against an independent g: root, minimality, uniqueness ball."""
    if not cert.certified:
        return Verdict(False, f"root {ns} inside R={R} but got {cert.reason}")
    gtol = 1e-9 * max(1.0, eta, R)
    x, lam = cert.nu_star, cert.lambda_star
    if not (oracles.close(x, ns, 1e-6) and abs(g(x)) <= gtol):
        return Verdict(False, f"nu_star {x} is not the minimal root {ns}")
    if not oracles.scan_positive(g, 0.0, x * (1 - 1e-6), slack=gtol):
        return Verdict(False, "g changes sign below nu_star")
    if lam < x * (1 - 1e-12) or lam > R * (1 + 1e-12):
        return Verdict(False, f"lambda_star {lam} outside [nu_star, R]")
    if any(g(v) > gtol for v in np.linspace(x, lam, 17)):
        return Verdict(False, "g positive inside the uniqueness ball")
    if cert.uniqueness_boundary == "open" and abs(g(lam)) > gtol:
        return Verdict(False, "open ball does not end at the maximal root")
    return Verdict(True)


# --- estimate ---------------------------------------------------------------

class EstimateWorkload(Workload):
    """Sampled measure of the H-equation, then certify; norm and mode vary."""

    kinds = NORMS
    rounds = 4
    stream = 2
    c = 0.9
    # Fewer than the CLI's 24 radii x 64 samples: jobs of 3 to 50 ms recur
    # often enough in one run for each item's best time to settle.
    radii, samples = 8, 16

    def __post_init__(self):
        self.refs = {}
        super().__post_init__()

    def build(self, norm, u, r):
        # The seed orders the four sizes of each norm; a size keeps its mode
        # and sampling seed, so every seed runs the same twelve estimates and
        # how many of their certificates hold does not depend on the seed.
        k = int(self.rounds * u("n"))
        n = 8 + int(57 * u("n"))
        if n not in self.refs:
            self.refs[n] = oracles.h_solution(self.c, n)
        problem = self.fs.build_fixture("chandrasekhar", norm=norm, c=self.c, n=n).problem
        return Item(norm, dict(problem=problem, n=n, mode=("direct", "centered")[k % 2],
                               radii=self.fs.solver.default_radii(problem.R, self.radii),
                               est_seed=k), sampled=True)

    def run(self, item):
        s = item.spec
        model = self.fs.estimate_majorant(s["problem"], mode=s["mode"], radii=s["radii"],
                                          samples_per_radius=self.samples, seed=s["est_seed"])
        return self.fs.certify(model)

    def check(self, item, cert):
        if not cert.certified:
            return _expect(cert.reason in REFUSALS, f"unknown refusal {cert.reason}")
        dist = oracles.vnorm(self.refs[item.spec["n"]] - 1.0, item.kind)
        if dist > cert.nu_star * (1 + 1e-9):
            return Verdict(False, f"solution at distance {dist:.4g} outside nu_star "
                                  f"{cert.nu_star:.4g} (n={item.spec['n']})")
        if cert.lambda_star < cert.nu_star:
            return Verdict(False, "lambda_star below nu_star")
        return Verdict(True)


# --- probe ------------------------------------------------------------------

class ProbeWorkload(Workload):
    """Certified solve, majorization check and uniqueness probe per certificate."""

    kinds = ("scalar_quadratic", "scalar_holder", "poly2d", "linear", "chandrasekhar")
    rounds = 4
    stream = 3
    # Fewer than the package's default of 100, so that each item recurs
    # often enough in one run for its best time to settle.
    starts = 20
    # H-equation size of rounds 0 to 3 (max, one, two and max norm).  These
    # items take the same size and the same sampling and probe seed under
    # every seed, so whether their sampled certificates hold does not
    # depend on the seed.
    h_sizes = (46, 22, 36, 58)

    def build(self, kind, u, r):
        norm = NORMS[r % 3]
        sampled = kind == "chandrasekhar"
        # All parameters of an item follow one stratum: with only four items
        # per kind, independent pairings would change the job sizes from
        # seed to seed.
        v = u("v")
        if kind == "scalar_quadratic":
            if r == 0:  # tangency: double root, closed uniqueness ball
                c, x0 = 2.0, 1.0
            else:
                c = 1.0 + 3.0 * v
                x0 = math.sqrt(c) * (1.05 + 0.5 * v)
            params, ref = dict(c=c, x0=x0, b=0.5 / x0), np.array([math.sqrt(c)])
        elif kind == "scalar_holder":
            alpha = 0.3 + 0.6 * v
            c_hi = (alpha - 1.0) / (alpha + 1.0)
            c = c_hi - (c_hi + 1.0) * (0.15 + 0.7 * v)
            params = dict(alpha=alpha, c=c)
            ref = np.array([((1.0 + alpha) * -c) ** (1.0 / (1.0 + alpha))])
        elif kind == "poly2d":
            angle, radius = 2.0 * math.pi * v, 0.02 + 0.13 * v
            params = dict(x0=(1.0 + radius * math.cos(angle), 1.0 + radius * math.sin(angle)))
            ref = np.ones(2)
        elif kind == "linear":
            m = 2 + int(5 * v)
            A = m * np.eye(m) + 0.5 * self.rng.standard_normal((m, m))
            b_vec, x0 = self.rng.standard_normal(m), 0.5 * self.rng.standard_normal(m)
            ref = np.linalg.solve(A, b_vec)
            params = dict(A=A, b_vec=b_vec, x0=x0, R=2.0 * oracles.vnorm(x0 - ref, norm) + 1.0)
        else:
            params = dict(n=self.h_sizes[r])
            ref = oracles.h_solution(0.9, params["n"])
        fx = self.fs.build_fixture(kind, norm=norm, **params)
        if sampled:
            model = self.fs.estimate_majorant(fx.problem, seed=r)
        else:
            model = self.fs.analytic_model(fx)
        probe_seed = r if sampled else self.draw_seed()
        return Item(kind, dict(problem=fx.problem, cert=self.fs.certify(model), ref=ref,
                               probe_seed=probe_seed), sampled)

    def run(self, item):
        s = item.spec
        if not s["cert"].certified:
            return s["cert"].reason  # a refusal: there is nothing to solve or probe
        x, trace = self.fs.fsi_solve(s["problem"], cert=s["cert"])
        report = self.fs.verify_majorization(trace, s["cert"].model)
        probe = self.fs.uniqueness_probe(s["problem"], s["cert"], num_starts=self.starts,
                                         seed=s["probe_seed"])
        return x, trace, report, probe

    def summarize(self, output):
        if isinstance(output, str):
            return output
        x, trace, report, probe = output
        return (x.tobytes(), trace.stop_reason, trace.num_steps, report.passed,
                report.worst_slack, probe.passed, probe.max_pairwise_distance,
                len(probe.failures))

    def check(self, item, summary):
        if isinstance(summary, str):
            return _expect(summary in REFUSALS, f"unknown refusal {summary}")
        x_bytes, stop, steps, maj_ok, _, probe_ok, _, failures = summary
        s = item.spec
        problem, cert = s["problem"], s["cert"]
        x = np.frombuffer(x_bytes)
        if stop not in CONVERGED:
            return Verdict(False, f"certified solve stopped with {stop} after {steps} steps")
        if oracles.vnorm(x - problem.x0, problem.norm) > cert.nu_star * (1 + 1e-9) + 1e-12:
            return Verdict(False, "certified solve ended outside nu_star")
        scale = max(1.0, oracles.vnorm(s["ref"], problem.norm))
        if oracles.vnorm(x - s["ref"], problem.norm) > 1e-7 * scale:
            return Verdict(False, "solution differs from the reference")
        if not maj_ok:
            return Verdict(False, "majorization failed")
        if not probe_ok:
            return Verdict(False, f"uniqueness probe failed ({failures} starts failed)")
        return Verdict(True)


def _near_one(u, reach):
    """A point of the plane at distance up to ``reach`` from (1, 1)."""
    angle, radius = 2.0 * math.pi * u("angle"), reach * u("radius")
    return 1.0 + radius * math.cos(angle), 1.0 + radius * math.sin(angle)


# --- cli --------------------------------------------------------------------

class CliWorkload(Workload):
    """In-process command-line calls writing documents to a scratch directory."""

    kinds = ("certify", "solve", "compare", "estimate-omega", "list-problems")
    rounds = 12
    stream = 4

    def __post_init__(self):
        self.h_refs = {}
        super().__post_init__()

    def build(self, kind, u, r):
        return getattr(self, "_" + kind.replace("-", "_"))(u, r, NORMS[r % 3])

    def _path(self, kind, r, suffix):
        return os.path.join(self.tmpdir, f"{kind}-{r}{suffix}")

    def _certify(self, u, r, norm):
        out = self._path("certify", r, ".json")
        if r % 2 == 0:
            c = 1.0 + 3.0 * u("c")
            x0 = math.sqrt(c) * (1.05 + 0.9 * u("x0"))
            b = (0.6 + 0.8 * u("b")) / (2.0 * x0)
            argv = ["certify", "scalar_quadratic", f"c={c!r}", f"x0={x0!r}", f"b={b!r}",
                    "--norm", norm, "--out", out]
            nu, l0, eta = abs(2 * b * x0 - 1), 2 * abs(b), abs(b * (x0 * x0 - c))
            return Item("certify", dict(argv=argv, outputs=[out], hoelder=(l0, 1.0, nu, eta),
                                        R=10.0))
        m = 2 + int(3 * u("m"))
        A = m * np.eye(m) + 0.5 * self.rng.standard_normal((m, m))
        b_vec, x0 = self.rng.standard_normal(m), 2.0 * self.rng.standard_normal(m)
        R = 1.0 + 4.0 * u("R")
        spec = self._path("spec", r, ".json")
        with open(spec, "w") as fh:
            json.dump({"fixture": "linear", "norm": norm, "R": R,
                       "params": {"A": A.tolist(), "b_vec": b_vec.tolist(),
                                  "x0": x0.tolist()}}, fh)
        eta = oracles.vnorm(x0 - np.linalg.solve(A, b_vec), norm)
        return Item("certify", dict(argv=["certify", spec, "--out", out], outputs=[out],
                                    hoelder=(0.0, 1.0, 0.0, eta), R=R))

    def _solve(self, u, r, norm):
        trace, report = self._path("trace", r, ".csv"), self._path("report", r, ".json")
        files = ["--trace", trace, "--report", report]
        if r % 4 == 3:
            n = 8 + 2 * (r // 4)
            if n not in self.h_refs:
                self.h_refs[n] = oracles.h_solution(0.9, n)
            argv = ["solve", "chandrasekhar", f"n={n}", "--norm", "one", "--measure",
                    "centered", "--radii", "6", "--samples", "8"] + files
            return Item("solve", dict(argv=argv, outputs=[trace, report],
                                      ref=self.h_refs[n], norm="one"))
        x0 = _near_one(u, 0.2)
        argv = ["solve", "poly2d", "x0={!r},{!r}".format(*x0), "--norm", norm] + files
        return Item("solve", dict(argv=argv, outputs=[trace, report], ref=np.ones(2), norm=norm))

    def _compare(self, u, r, norm):
        l0, alpha, nu = 10.0 ** (2 * u("l0") - 1), 0.3 + 0.7 * u("alpha"), 0.5 * u("nu")
        if r % 4 == 0:
            alpha, nu = 1.0, 0.0
        eta = (0.2 + 1.0 * u("eta")) * oracles.holder_threshold(l0, alpha, nu)
        R = 1.0 + 9.0 * u("R")
        out = self._path("compare", r, ".json")
        argv = ["compare", f"l0={l0!r}", f"alpha={alpha!r}", f"nu={nu!r}", f"eta={eta!r}",
                f"R={R!r}", "--out", out]
        return Item("compare", dict(argv=argv, outputs=[out], hoelder=(l0, alpha, nu, eta)))

    def _estimate_omega(self, u, r, norm):
        x0 = _near_one(u, 0.2)
        # Sizes follow the round, so the costliest item is the same for every seed.
        radii, samples = 3 + r // 3, 4 + 4 * (r // 3)
        out = self._path("omega", r, ".csv")
        argv = ["estimate-omega", "poly2d", "x0={!r},{!r}".format(*x0),
                "--norm", norm, "--mode", ("direct", "centered")[r % 2], "--radii", str(radii),
                "--samples", str(samples), "--seed", str(self.draw_seed()), "--out", out]
        B = np.linalg.inv(np.array([[2 * x0[0] + 3.0, 1.0], [-1.0, 2 * x0[1] + 4.0]]))
        # sup of ||B F''(x0)[h]|| over unit h: the exact slope of the linear measure
        l0 = 2.0 * {"max": np.abs(B).sum(axis=1).max(), "one": np.abs(B).sum(axis=0).max(),
                    "two": np.sqrt((B ** 2).sum(axis=0)).max()}[norm]
        return Item("estimate-omega", dict(argv=argv, outputs=[out], radii=radii, l0=l0))

    def _list_problems(self, u, r, norm):
        return Item("list-problems", dict(argv=["list-problems"], outputs=[]))

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.fs.cli.main(item.spec["argv"])
        return code, out.getvalue(), err.getvalue()

    def bytes_written(self, item):
        return sum(os.path.getsize(p) for p in item.spec["outputs"])

    def check(self, item, output):
        code, out, err = output
        s = item.spec
        if item.kind == "list-problems":
            names = [line.split(":")[0] for line in out.splitlines()]
            return _expect(code == 0 and names == sorted(
                ["chandrasekhar", "linear", "poly2d", "scalar_holder", "scalar_quadratic"]),
                "fixture catalog differs")
        if code not in (0, 1) or err:
            return Verdict(False, f"exit {code}: {err.strip()}")
        if item.kind == "estimate-omega":
            return self._check_omega(s)
        with open(s["outputs"][-1]) as fh:
            doc = json.load(fh)
        if item.kind == "certify":
            l0, alpha, nu, eta = s["hoelder"]
            holds = eta <= oracles.holder_threshold(l0, alpha, nu)
            ns = oracles.holder_roots(l0, alpha, nu, eta)[0] if holds else math.inf
            if ns <= s["R"]:
                return _expect(code == 0 and doc["status"] == "certified"
                               and oracles.close(doc["nu_star"], ns, 1e-6),
                               f"expected nu_star {ns}, got {doc['status']} {doc['nu_star']}")
            return _expect(code == 1 and doc["status"] == "not_certified",
                           f"expected a refusal, got {doc['status']}")
        if item.kind == "solve":
            x = np.array(doc["solution"])
            if doc["stop_reason"] not in CONVERGED or doc.get("majorization", {}).get(
                    "passed", True) is not True:
                return Verdict(False, f"solve ended with {doc['stop_reason']}")
            return _expect(oracles.vnorm(x - s["ref"], s["norm"]) <= 1e-7,
                           "solution differs from the reference")
        l0, alpha, nu, eta = s["hoelder"]
        emax = oracles.holder_threshold(l0, alpha, nu)
        return _expect(doc["new_holds"] == (eta <= emax)
                       and oracles.close(doc["new_eta_max"], emax)
                       and oracles.close(doc["eta_max_ratio"], (1 + alpha) ** (1 / alpha)),
                       "comparison document differs from closed forms")

    def _check_omega(self, s):
        with open(s["outputs"][0]) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        radii = [float(a) for a, _ in rows]
        values = [float(b) for _, b in rows]
        ok = (len(rows) == s["radii"] + 1 and radii[0] == 0.0
              and all(b > a for a, b in zip(radii, radii[1:]))
              and all(b >= a for a, b in zip(values, values[1:]))
              and all(0.0 <= w <= s["l0"] * r + 1e-9 for r, w in zip(radii, values)))
        return _expect(ok, "sampled measure is not a monotone lower envelope")


WORKLOADS = {
    "certify": CertifyWorkload,
    "estimate": EstimateWorkload,
    "probe": ProbeWorkload,
    "cli": CliWorkload,
}

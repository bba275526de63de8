"""Span recording around the package's public functions.

A Tracer replaces every public function of the package at each name its
callers look it up by (``fixedslope.solver.matrix_norm`` as well as
``fixedslope.norms.matrix_norm``), and wraps the ``f`` and ``jacobian``
callables of the problems a job uses.  Each call becomes one span: name,
start, end, parent span and job id.  Spans are kept in flat arrays in
memory and written out once, when the run ends.

Layer figures are derived from the spans afterwards: call counts,
inclusive time, and self time (a span's duration minus the time its
child spans cover).
"""

import dataclasses
import functools
import json
import time
import types
from array import array

import numpy as np

LAYERS = ("majorant", "certificate", "comparison", "solver", "norms", "problems", "cli")


def unit(metric):
    if metric.endswith("_ms"):
        return "ms"
    return "bytes" if metric.endswith("bytes_written") else "count"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.counters = {}
        self.job_id = -1
        self._stack = []
        self._patched = []
        self._wrapped = {}

    # --- recording ----------------------------------------------------------

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name, post=None):
        nid = self._nid(name)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            return result if post is None else post(result)

        return traced

    def wrap_problem(self, problem):
        """Copy of a Problem whose f and jacobian record spans."""
        jac = problem.jacobian
        return dataclasses.replace(
            problem,
            f=self.wrap(problem.f, "problems.f"),
            jacobian=None if jac is None else self.wrap(jac, "problems.jacobian"),
        )

    # --- patching the package ----------------------------------------------

    def install(self, package):
        """Wrap every public package function at every name it is bound to."""
        post = {
            "solver.fsi_solve": self._count_steps,
            "problems.build_fixture": self._trace_fixture,
        }
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith(package.__name__ + "."):
                    continue
                if value not in self._wrapped:
                    name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                    self._wrapped[value] = self.wrap(value, name, post.get(name))
                self._patched.append((module, attr, value))
                setattr(module, attr, self._wrapped[value])

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _count_steps(self, result):
        self.count("solver.steps", result[1].num_steps)
        return result

    def _trace_fixture(self, fixture):
        return dataclasses.replace(fixture, problem=self.wrap_problem(fixture.problem))

    # --- analysis -----------------------------------------------------------

    def arrays(self):
        start = np.array(self.start, dtype=float)
        dur = np.array(self.end, dtype=float) - start
        parent = np.array(self.parent, dtype=np.int64)
        name = np.array(self.name_id, dtype=np.uint16)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name, parent, dur, dur - child

    def layer_metrics(self, jobs):
        """Per-job layer figures over all recorded spans."""
        name, parent, dur, self_time = self.arrays()
        ids = lambda *names: [self._ids[n] for n in names if n in self._ids]
        in_names = lambda *names: np.isin(name, ids(*names))
        in_layer = lambda layer: np.isin(
            name, [i for n, i in self._ids.items() if n.startswith(layer + ".")])
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        under = lambda child, par: int(np.count_nonzero(
            in_names(child) & np.isin(parent_name, ids(par))))
        ms = lambda mask, t: float(np.sum(t[mask])) * 1e3

        raw = {
            "majorant.g_calls": int(np.count_nonzero(in_names("majorant.g"))),
            "majorant.root_calls": int(np.count_nonzero(in_names(
                "majorant.minimal_root", "majorant.maximal_root", "majorant.lambda_star"))),
            "majorant.phi_calls": int(np.count_nonzero(in_names("majorant.phi"))),
            "majorant.self_ms": ms(in_layer("majorant"), self_time),
            "certificate.self_ms": ms(in_layer("certificate"), self_time),
            "comparison.compare_ms": ms(in_names("comparison.compare_report"), dur),
            "problems.f_calls": int(np.count_nonzero(in_names("problems.f"))),
            "problems.f_ms": ms(in_names("problems.f"), dur),
            "problems.jac_calls": int(np.count_nonzero(in_names("problems.jacobian"))),
            "problems.jac_ms": ms(in_names("problems.jacobian"), dur),
            "norms.vector_calls": int(np.count_nonzero(in_names("norms.vector_norm"))),
            "norms.vector_ms": ms(in_names("norms.vector_norm"), dur),
            "norms.matrix_calls": int(np.count_nonzero(in_names("norms.matrix_norm"))),
            "norms.matrix_ms": ms(in_names("norms.matrix_norm"), dur),
            "solver.estimate_samples": under("problems.jacobian", "solver.estimate_omega"),
            "solver.estimate_self_ms": ms(in_names(
                "solver.estimate_majorant", "solver.estimate_omega"), self_time),
            "solver.steps": self.counters.get("solver.steps", 0),
            "solver.solve_self_ms": ms(in_names("solver.fsi_solve"), self_time),
            "solver.probe_subsolves": under("solver.fsi_solve", "solver.uniqueness_probe"),
            "solver.probe_self_ms": ms(in_names("solver.uniqueness_probe"), self_time),
            "solver.verify_ms": ms(in_names("solver.verify_majorization"), dur),
            "cli.main_ms": ms(in_names("cli.main"), dur),
            "cli.self_ms": ms(in_layer("cli"), self_time),
            "cli.bytes_written": self.counters.get("cli.bytes_written", 0),
        }
        return {k: v / jobs for k, v in raw.items()}

    def save(self, path):
        name, parent, dur, _ = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=name,
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
            parent=parent,
            job=np.array(self.job, dtype=np.int64),
        )

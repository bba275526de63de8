"""Checks of the benchmark itself: repeatable counts, seeded inputs, oracles.

Run with ``python3 -m pytest bench``.  Each test uses a short prefix of a
workload's items so the file finishes in a few seconds.
"""

import dataclasses

import numpy as np
import pytest

import run

fs = run.load_package()

import oracles  # noqa: E402  (after load_package puts src/ on the path)
import workloads  # noqa: E402

PREFIX = {"certify": 6, "estimate": 3, "probe": 5, "cli": 10}


def make(name, seed, tmpdir):
    tmpdir.mkdir()
    return workloads.WORKLOADS[name](fs=fs, seed=seed, tmpdir=str(tmpdir))


def counts(name, seed, tmpdir):
    workload = make(name, seed, tmpdir)
    items = workload.items[:PREFIX[name]]
    tr, ledger = run.traced_pass(fs, workload, items)
    layers = tr.layer_metrics(len(items))
    assert ledger.grade()[2] == 0
    return {k: v for k, v in layers.items() if not k.endswith("_ms")}


@pytest.mark.parametrize("name", sorted(PREFIX))
def test_traced_counts_repeat_exactly(name, tmp_path):
    first = counts(name, 7, tmp_path / "a")
    assert any(first.values())
    assert counts(name, 7, tmp_path / "b") == first


@pytest.mark.parametrize("name", sorted(PREFIX))
def test_seed_decides_inputs(name, tmp_path):
    def digest(seed, sub):
        items = make(name, seed, tmp_path / sub).items
        text = repr([(it.kind, sorted((k, repr(v)) for k, v in it.spec.items()
                                      if k != "problem")) for it in items])
        return text.replace(str(tmp_path / sub), "")

    first = digest(3, "a")
    assert digest(3, "b") == first
    assert digest(4, "c") != first


def test_h_equation_reference_solves_the_equation():
    f, _ = oracles.h_equation(0.9, 24)
    assert np.max(np.abs(f(oracles.h_solution(0.9, 24)))) < 1e-12


def test_holder_roots_match_the_closed_form():
    bisected = oracles.holder_roots(0.8, 1.0 - 1e-12, 0.1, 0.3)
    closed = oracles.holder_roots(0.8, 1.0, 0.1, 0.3)
    assert np.allclose(bisected, closed, rtol=1e-6)


def test_checks_reject_a_shrunken_certificate(tmp_path):
    workload = workloads.CertifyWorkload(fs=fs, seed=5, tmpdir=str(tmp_path))
    item = next(it for it in workload.items
                if it.kind == "hoelder" and workload.run(it)[0].certified)
    cert, rep = workload.run(item)
    assert workload.check(item, (cert, rep)).ok
    bad = dataclasses.replace(cert, nu_star=0.5 * cert.nu_star)
    assert not workload.check(item, (bad, rep)).ok


def test_results_cached_across_calls_are_caught(tmp_path):
    workload = workloads.CertifyWorkload(fs=fs, seed=5, tmpdir=str(tmp_path))
    items = workload.items[:20]

    def ratio():
        ledger = run.Ledger(workload)
        run.closed_loop(workload, items, ledger, seconds=0.2)
        return run.first_to_best(ledger, run.best_times(ledger, len(items)))

    assert ratio() <= run.MAX_FIRST_TO_BEST
    compute, memo = workload.run, {}

    def cached(item):
        if id(item) not in memo:
            memo[id(item)] = compute(item)
        return memo[id(item)]

    workload.run = cached
    assert ratio() > run.MAX_FIRST_TO_BEST


def test_probe_counts_a_refusal_as_an_answer(tmp_path):
    workload = workloads.ProbeWorkload(fs=fs, seed=5, tmpdir=str(tmp_path))
    item = workload.items[0]
    model = item.spec["cert"].model
    refusal = fs.certify(dataclasses.replace(model, eta=1e6 * model.eta))
    assert not refusal.certified
    item.spec["cert"] = refusal
    assert workload.check(item, workload.summarize(workload.run(item))).ok
    assert not workload.check(item, "no_reason").ok

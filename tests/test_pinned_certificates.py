"""Certificate documents pinned byte for byte.

pinned_certificates.json holds the certificate document of every model
that pinned_model(seed) builds for the seeds it lists.  Each model is
exact IEEE arithmetic on every platform: Hoelder measures with alpha = 1
(v ** 1.0 is v) and tabulated measures, with parameters drawn by
+, -, * and / alone.  Measures with alpha < 1 go through libm's pow,
which may differ in the last bit across platforms, so none is pinned.

A change meant to move a certificate regenerates the file with

    PYTHONPATH=src python tests/test_pinned_certificates.py
"""

import json
import pathlib

import numpy as np

from fixedslope.certificate import certify
from fixedslope.cli import certificate_to_doc
from fixedslope.majorant import HoelderOmega, MajorantModel, TabulatedOmega

PINS = pathlib.Path(__file__).with_name("pinned_certificates.json")
SEEDS = range(200)


def _hoelder(rng, kind):
    """alpha = 1 model whose outcome is set by kind; roots r_bar (1 -+ sqrt(1 - u))."""
    if kind == "tangent":  # eta = eta_max exactly: l0 a power of two, nu = 0 or 0.5
        l0 = 2.0 ** int(rng.integers(-4, 5))
        nu = 0.5 * int(rng.integers(0, 2))
        return MajorantModel(0.5 * (1.0 - nu) ** 2 / l0, (1.0 - nu) / l0 * rng.uniform(1.0, 3.0),
                             HoelderOmega(l0, 1.0, nu))
    l0, nu = rng.uniform(0.1, 10.0), rng.uniform(0.0, 0.6)
    if kind == "nu_too_large":
        nu = rng.uniform(1.0, 2.0)
    r_bar = (1.0 - nu) / l0 if nu < 1.0 else 1.0
    eta_max = 0.5 * (1.0 - nu) * r_bar
    u = rng.uniform(1.1, 2.0) if kind == "no_root" else rng.uniform(0.1, 0.9)
    R = r_bar * {"open": rng.uniform(2.5, 4.5),  # past the maximal root
                 "closed": rng.uniform(0.7, 1.3),  # between the roots
                 "short": rng.uniform(0.05, 0.3),  # before the minimal root
                 "no_root": rng.uniform(0.5, 3.0),
                 "nu_too_large": rng.uniform(0.5, 3.0)}[kind]
    return MajorantModel(u * eta_max if nu < 1.0 else rng.uniform(0.1, 1.0), R,
                         HoelderOmega(l0, 1.0, nu))


def _tabulated(rng, kind):
    """Knots at top * i / (k - 1) with values climbing by random steps; R inside the table."""
    k = int(rng.integers(2, 40))
    top = rng.uniform(1.0, 10.0)
    nu = rng.uniform(1.0, 1.5) if kind == "nu_too_large" else rng.uniform(0.0, 0.5)
    values = [nu]
    for _ in range(k - 1):
        values.append(values[-1] + rng.uniform(0.0, 4.0) / k)
    omega = TabulatedOmega(tuple((top * i / (k - 1), w) for i, w in enumerate(values)))
    R = top * rng.uniform(0.2, 1.0)
    return MajorantModel(rng.uniform(0.001, 0.5) * top, R, omega)


_KINDS = [(_hoelder, "open"), (_hoelder, "closed"), (_hoelder, "short"), (_hoelder, "no_root"),
          (_hoelder, "nu_too_large"), (_hoelder, "tangent"), (_tabulated, "any"),
          (_tabulated, "any"), (_tabulated, "nu_too_large")]


def pinned_model(seed):
    build, kind = _KINDS[seed % len(_KINDS)]
    return build(np.random.default_rng(seed), kind)


def pinned_docs():
    return [{"seed": seed, "doc": certificate_to_doc(certify(pinned_model(seed)))}
            for seed in SEEDS]


def test_certificate_documents_match_their_pins():
    pins = json.loads(PINS.read_text())
    assert [p["seed"] for p in pins] == list(SEEDS)
    for pin in pins:
        doc = certificate_to_doc(certify(pinned_model(pin["seed"])))
        assert json.dumps(doc) == json.dumps(pin["doc"]), pin["seed"]


def test_pins_cover_every_outcome():
    docs = [p["doc"] for p in json.loads(PINS.read_text())]
    outcomes = {(d["status"], d["reason"], d["uniqueness_boundary"]) for d in docs}
    assert outcomes == {("certified", None, "open"), ("certified", None, "closed"),
                        ("not_certified", "radius_too_small", None),
                        ("not_certified", "constraint_a_fails", None),
                        ("not_certified", "nu_too_large", None)}
    # the exact tangency l0 = 1, eta = 0.5: a double root at 1, closed ball
    assert any((d["nu"], d["eta"], d["nu_star"], d["lambda_star"], d["uniqueness_boundary"])
               == (0.0, 0.5, 1.0, 1.0, "closed") for d in docs)


if __name__ == "__main__":
    PINS.write_text(json.dumps(pinned_docs(), separators=(",", ":")) + "\n")

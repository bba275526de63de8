"""The one-pass document encoder writes the bytes of the rule it replaced.

The reference below is the value rule every document followed before
cli._encode: each value through reference_fmt, then json.dumps with
indent=2.  Seeded random records cover the leaves a document may hold
(floats of every class, numpy scalars, ints, bools, None, text with
quotes, backslashes, control and non-ASCII characters) in tuples, lists,
1-D and 2-D arrays and nested mappings, empty ones included.
"""

import json
import math
import struct

import numpy as np
import pytest

from fixedslope.certificate import certify
from fixedslope.cli import _encode, _to_doc, _write_json, certificate_to_doc, read_certificate
from test_pinned_certificates import pinned_model


def reference_fmt(x):
    """The value rule as it was written before the one-pass encoder."""
    if isinstance(x, float):
        return "unbounded" if math.isinf(x) else float(x)
    if x is None or isinstance(x, (bool, str, int)):
        return x
    if isinstance(x, dict):
        return {k: reference_fmt(v) for k, v in x.items()}
    if isinstance(x, (tuple, list, np.ndarray)):
        return [reference_fmt(v) for v in x]
    return reference_fmt(float(x))


def reference(x):
    return json.dumps(reference_fmt(x), indent=2)


SPECIAL_FLOATS = [math.inf, -math.inf, math.nan, -math.nan, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1e16]
CHARACTERS = ['"', "\\", "/", "\n", "\t", "\r", "\x00", "\x1f", "\x7f", "é", "µ", "€", "中",
              "\U0001f600", "\ud800", " ", "a", "Z", "0", "'", ",", ":"]


def _text(rng):
    return "".join(rng.choice(CHARACTERS) for _ in range(int(rng.integers(0, 8))))


def _float(rng):
    """A float from random bits (subnormals and nan payloads included), or a special one."""
    if rng.random() < 0.4:
        return SPECIAL_FLOATS[int(rng.integers(len(SPECIAL_FLOATS)))]
    return struct.unpack("<d", rng.bytes(8))[0]


def _leaf(rng):
    kind = int(rng.integers(12))
    if kind < 3:
        return _float(rng)
    return [
        lambda: np.float64(_float(rng)),
        lambda: np.int64(rng.integers(-2 ** 62, 2 ** 62)),
        lambda: np.bool_(rng.random() < 0.5),
        lambda: bool(rng.random() < 0.5),
        lambda: None,
        lambda: int(rng.integers(-10 ** 6, 10 ** 6)) * 10 ** int(rng.integers(0, 30)),
        lambda: _text(rng),
        lambda: np.float32(rng.standard_normal()),
        lambda: rng.uniform(-1e3, 1e3),
    ][kind - 3]()


def _array(rng):
    shape = [(0,), (int(rng.integers(1, 5)),), (int(rng.integers(1, 4)), int(rng.integers(1, 4)))]
    shape = shape[int(rng.integers(3))]
    kind = int(rng.integers(3))
    if kind == 0:
        return np.array([_float(rng) for _ in range(math.prod(shape))]).reshape(shape)
    if kind == 1:
        return rng.integers(-1000, 1000, size=shape)
    return rng.random(shape) < 0.5


def _value(rng, depth):
    kind = int(rng.integers(7 if depth < 3 else 1))
    if kind == 0:
        return _leaf(rng)
    if kind == 4:
        return _array(rng)
    items = [_value(rng, depth + 1) for _ in range(int(rng.integers(0, 4)))]
    if kind == 1:
        return tuple(items)
    if kind == 2:
        return items
    return {_text(rng) + str(i): v for i, v in enumerate(items)}


@pytest.mark.parametrize("seed", range(10))
def test_random_records_encode_as_the_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        record = {_text(rng) + str(i): _value(rng, 0) for i in range(int(rng.integers(0, 6)))}
        assert _encode(record) == reference(record)


@pytest.mark.parametrize("value", [
    *SPECIAL_FLOATS, np.float64(-0.0), np.float64(math.inf), np.int64(-7), np.bool_(False),
    True, None, 0, -(10 ** 40), "", 'a "quoted" \\ path\x01/é', (), [], {}, np.zeros(0),
    np.zeros((2, 0)), np.arange(6.0).reshape(2, 3), np.array([True, False]),
    {"a": {"b": {}}, "c": [[], [()]]},
], ids=repr)
def test_each_leaf_and_container_encodes_as_the_reference(value):
    assert _encode(value) == reference(value)
    assert _encode({"k": value}) == reference({"k": value})


def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


def test_certificate_documents_encode_as_the_reference(tmp_path):
    path = tmp_path / "certificate.json"
    for seed in range(200):
        cert = certify(pinned_model(seed))
        doc = _to_doc("certificate", cert)
        assert _encode(doc) == reference(doc), seed
        assert certificate_to_doc(cert) == json.loads(reference(doc)), seed
        # read_certificate gets every value back bit for bit; inf is written as "unbounded"
        _write_json(doc, path)
        back = read_certificate(path)
        for name, value in vars(cert).items():
            if name == "model":
                continue
            read = getattr(back, name)
            if isinstance(value, tuple):
                assert list(map(_bits, read)) == list(map(_bits, value)), (seed, name)
            elif value == math.inf:
                assert read == "unbounded", (seed, name)
            else:
                assert _bits(read) == _bits(value), (seed, name)

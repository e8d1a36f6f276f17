"""Deterministic JSON output: sorted keys, floats at 17 significant digits.

Certificates must be byte-identical across reruns with the same config, so
serialization avoids anything repr- or hash-order-dependent.

numpy arrays are written as complex matrices in the encoding of
poly.matrix_to_json: a 2-D array as rows of [re, im] pairs, a 1-D array as
one list of pairs.  A whole array is formatted by one % over a "%.17g"
pattern, from one flat tuple of its floats, so the evidence of a witness or a
Gram certificate never exists as a tree of per-entry Python lists.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _string

import numpy as np


def dumps(obj) -> str:
    return _text(obj)


def _text(obj) -> str:
    """obj's JSON text; it never calls dumps, which a tracer may wrap."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite float cannot be serialized to JSON")
        return "%.17g" % (obj + 0.0)  # + 0.0 writes -0.0 as 0
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, dict):
        keys = sorted(obj)
        for key in keys:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key)}")
        return "{" + ",".join(_string(key) + ":" + _text(obj[key]) for key in keys) + "}"
    if isinstance(obj, np.ndarray):
        return _array(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_text, obj)) + "]"
    raise TypeError(f"cannot serialize {type(obj)} to JSON")


def _array(a: np.ndarray) -> str:
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (1, 2):
        raise TypeError(f"cannot serialize a {a.ndim}-D array to JSON")
    values = tuple((a + 0.0).ravel().view(float).tolist())  # re, im, re, ...; + 0.0 writes -0.0 as 0
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite float cannot be serialized to JSON")
    row = "[" + ",".join(["[%.17g,%.17g]"] * a.shape[-1]) + "]"
    return (row if a.ndim == 1 else "[" + ",".join([row] * a.shape[0]) + "]") % values


def loads(text: str):
    return json.loads(text)

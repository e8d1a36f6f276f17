"""Deterministic JSON output: sorted keys, floats at 17 significant digits.

Certificates must be byte-identical across reruns with the same config, so
serialization avoids anything repr- or hash-order-dependent.

numpy arrays are written as complex matrices in the encoding of
poly.matrix_to_json: a 2-D array as rows of [re, im] pairs, a 1-D array as
one list of pairs.  Each row is formatted straight to one string, so the
evidence of a witness or a Gram certificate never exists as a tree of
per-float Python objects.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float cannot be serialized to JSON")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def _format_row(row: np.ndarray) -> str:
    """One row of complex entries as [[re, im], ...]."""
    return "[" + ",".join(f"[{_format_float(re)},{_format_float(im)}]"
                          for re, im in zip(row.real.tolist(), row.imag.tolist())) + "]"


def dumps(obj) -> str:
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key)}")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, np.ndarray):
        arr = np.asarray(obj, dtype=complex)
        if arr.ndim == 1:
            out.append(_format_row(arr))
        elif arr.ndim == 2:
            out.append("[" + ",".join(_format_row(row) for row in arr) + "]")
        else:
            raise TypeError(f"cannot serialize a {arr.ndim}-D array to JSON")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)} to JSON")


def loads(text: str):
    return json.loads(text)

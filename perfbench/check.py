"""Independent check of the evidence in an ncsos outcome JSON.

Reads the input polynomial JSON and the outcome JSON, nothing else, and
re-derives the claim with the benchmark's own algebra (ncalg):
  * sos: sum_j r_j* r_j - f must vanish coefficient-wise (spectral norm)
    within SOS_RESIDUAL, and the Gram matrix must have min eigenvalue
    >= -GRAM_PSD;
  * witness: the operators must be self-adjoint (monoid) or unitary (group)
    within OPERATOR_DEFECT, and f(Y) must have min eigenvalue <= -WITNESS_EIG.
"""

from __future__ import annotations

import json

import numpy as np

from ncalg import MONOID, evaluate, hermitian_square, matrix_from_json, min_eig, poly_from_json

SOS_RESIDUAL = 1e-7
GRAM_PSD = 1e-8
WITNESS_EIG = 1e-6
OPERATOR_DEFECT = 1e-8


def _norm(m) -> float:
    return float(np.linalg.norm(m, 2)) if np.size(m) else 0.0


def check_sos(f, certificate: dict) -> str | None:
    """None when the certificate holds, else the reason it fails."""
    g, mode, k, terms = f
    diff = {w: -c for w, c in terms.items()}
    for r_json in certificate["factors"]:
        rg, rmode, rk, r = poly_from_json(r_json)
        if (rg, rmode, rk) != (g, mode, k):
            return "factor does not match the input's (g, mode, k)"
        for w, c in hermitian_square(r, mode).items():
            diff[w] = diff.get(w, 0) + c
    residual = max((_norm(c) for c in diff.values()), default=0.0)
    if residual > SOS_RESIDUAL:
        return f"sum of squares misses the input by {residual:.3e}"
    low = min_eig(matrix_from_json(certificate["gram"]))
    if low < -GRAM_PSD:
        return f"Gram matrix has eigenvalue {low:.3e}"
    return None


def check_witness(f, witness: dict) -> str | None:
    g, mode, k, terms = f
    ops_json = witness["model"]["operators"]
    if ops_json["mode"] != mode:
        return "operator tuple has the wrong mode"
    ops = [matrix_from_json(m) for m in ops_json["entries"]]
    if len(ops) < g or any(Y.shape != ops[0].shape or Y.shape[0] != Y.shape[1] for Y in ops):
        return "operator tuple is not g square matrices of one size"
    n = ops[0].shape[0]
    if mode == MONOID:
        defect = max(_norm(Y - Y.conj().T) for Y in ops)
    else:
        defect = max(_norm(Y @ Y.conj().T - np.eye(n)) for Y in ops)
    if defect > OPERATOR_DEFECT:
        kind = "self-adjointness" if mode == MONOID else "unitarity"
        return f"{kind} defect {defect:.3e}"
    low = min_eig(evaluate(terms, k, ops, mode))
    if low > -WITNESS_EIG:
        return f"f(Y) has min eigenvalue {low:.3e}, not negative"
    return None


def check(input_path: str, outcome_path: str) -> tuple[str, str | None]:
    """(outcome kind, failure reason or None).  Unreadable output is a failure."""
    with open(input_path) as fh:
        f = poly_from_json(json.load(fh))
    try:
        with open(outcome_path) as fh:
            out = json.load(fh)
        kind = out["outcome"]
        if kind == "sos":
            return kind, check_sos(f, out["certificate"])
        if kind == "witness":
            return kind, check_witness(f, out["witness"])
        return kind, None
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return "unreadable", f"{type(exc).__name__}: {exc}"


"""Command-line front end.

Subcommands: certify, decompose (primal only), witness (dual only), eval,
extract, fock-dump, spotcheck.  All outputs are JSON on stdout or --out;
progress notes go to stderr.  Exit codes: 0 = sos, 1 = witness,
2 = undecided/inconclusive, 64 on usage errors, 65 on malformed input,
70 on an internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

# the interpreter's own SHA-256 gives hashlib's digest without loading OpenSSL's _hashlib (3.4 MB)
try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import jsonio
from .certify import (
    EPS_WIT, OPERATOR_DEFECT_TOL, CertifyError, CertifyOutcome, certify, infer_degree, refuse_certificate,
    refuse_evaluation, refuse_witness, run_dual, run_primal,
)
from .fock import FockError, build_symmetrized, build_unitaries, coefficient_bound, extract_coeffs, vacuum_images
from .gram import EPS_PSD, GramMatrix, SOSCertificate, constraint_index
from .poly import (
    NCPoly, OperatorTuple, PolyError, matrix_from_json, poly_eval, poly_from_json,
    poly_to_json, terms_to_json, tuple_from_json, tuple_to_json,
)
from .sdp import refuse_bytes
from .words import GROUP, MONOID, WordError, count_words, format_word

EX_OK_SOS = 0
EX_WITNESS = 1
EX_UNDECIDED = 2
EX_USAGE = 64
EX_DATA = 65
EX_SOFTWARE = 70


class UsageError(Exception):
    pass


class DataError(Exception):
    """An input file refused with the reason: main prints "input error: {path}: {reason}"."""

    def __init__(self, path, reason: str):
        super().__init__(f"{path}: {reason}")


@contextlib.contextmanager
def _refused(path, *errors):
    """Refuse path with the text of any of errors raised inside: only the
    domain errors of what reads that file, so a fault of the program still
    ends in exit 70."""
    try:
        yield
    except errors as exc:
        raise DataError(path, str(exc))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache  # one parser per process, built at the first main call, not at import
def _build_parser() -> _Parser:
    p = _Parser(prog="ncsos", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    for name in ("certify", "decompose", "witness"):
        sp = sub.add_parser(name)
        sp.set_defaults(run=_cmd_decide)
        sp.add_argument("input")
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("eval")
    sp.set_defaults(run=_cmd_eval)
    sp.add_argument("input")
    sp.add_argument("--at", required=True, help="operator tuple JSON file")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("extract")
    sp.set_defaults(run=_cmd_extract)
    sp.add_argument("--eval", dest="eval_path", required=True,
                    help="JSON matrix presumed equal to q(A)")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--l", type=int, required=True, help="truncation degree")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("fock-dump")
    sp.set_defaults(run=_cmd_fock_dump)
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--group", action="store_true")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("spotcheck")
    sp.set_defaults(run=_cmd_spotcheck)
    sp.add_argument("input")
    sp.add_argument("certificate")
    sp.add_argument("--out", default=None)
    return p


# -- serialization helpers ----------------------------------------------------


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(path, f"cannot read: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise DataError(path, f"not UTF-8 text: byte {exc.object[exc.start]:#04x} at offset {exc.start}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(path, f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")


def _load_poly(path: str) -> NCPoly:
    data = _read_json(path)
    with _refused(path, PolyError, WordError):
        return poly_from_json(data)


def _input_hash(f: NCPoly) -> str:
    return sha256(jsonio.dumps(poly_to_json(f)).encode()).hexdigest()


def _complex_pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _sos_json(cert: SOSCertificate) -> dict:
    G = cert.gram
    words = G.index[0][:len(G.index[1])]
    return {"gram": G.matrix, "residual": float(cert.residual),
            "factors": [terms_to_json(G.g, G.mode, G.k, [(w, c) for w, c in zip(words, C) if c.any()])
                        for C in cert.factors]}


def _witness_json(outcome: CertifyOutcome) -> dict:
    model = outcome.model
    S = model.functional
    return {
        "min_eig": float(outcome.min_eig),
        "refuted_value": _complex_pair(outcome.refuted_value),
        "model": {
            "operators": tuple_to_json(model.operators),
            "gamma": model.gamma,
            "gns_residual": float(model.gns_residual),
        },
        "functional": {
            "blocks": [{"word": format_word(u), "matrix": B} for u, B in
                       sorted(zip(S.index[0], S.blocks), key=lambda pair: (len(pair[0]), pair[0]))],
        },
    }


def _outcome_json(f: NCPoly, outcome: CertifyOutcome) -> dict:
    data = {"outcome": outcome.kind, "degree": outcome.degree, "input_sha256": _input_hash(f),
            "diagnostics": {"iterations": outcome.iterations, "gap": _finite(outcome.gap), "note": outcome.note}}
    if outcome.kind == "sos":
        data["certificate"] = _sos_json(outcome.certificate)
    elif outcome.kind == "witness":
        data["witness"] = _witness_json(outcome)
    return data


def _finite(x: float):
    return None if x is None or not math.isfinite(x) else float(x)


def _emit(data, out_path: str | None):
    text = jsonio.dumps(data)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# -- subcommands ----------------------------------------------------------------


def _cmd_decide(args) -> int:
    """certify, decompose (the primal alone) or witness (the dual alone), each
    at the input's Gram degree (certify.infer_degree), each file with the
    record of the one Gram solve its outcome read."""
    f = _load_poly(args.input)
    with _refused(args.input, CertifyError):  # dispatch at call time: perfbench's tracer swaps these bindings
        if args.command == "certify":
            outcome = certify(f)
        elif args.command == "decompose":
            outcome = run_primal(f, infer_degree(f))[0]
        else:
            outcome = run_dual(f, infer_degree(f))
    print(f"{args.command}: outcome={outcome.kind} degree={outcome.degree} iterations={outcome.iterations}",
          file=sys.stderr)
    _emit(_outcome_json(f, outcome), args.out)
    return {"sos": EX_OK_SOS, "witness": EX_WITNESS}.get(outcome.kind, EX_UNDECIDED)


def _load_tuple(data, f: NCPoly, path: str) -> OperatorTuple:
    """An operator tuple from outside, refused with certify.refuse_evaluation's
    reason before f is evaluated at it."""
    with _refused(path, PolyError):
        X = tuple_from_json(data)
    if too_large := refuse_evaluation(f, X.dim):
        raise DataError(path, too_large)
    return X


def _cmd_eval(args) -> int:
    f = _load_poly(args.input)
    X = _load_tuple(_read_json(args.at), f, args.at)
    # x_i^-1 is evaluated as X_i*, the inverse of X_i only when X_i is unitary
    inverse_letter = any(a < 0 for w in f.words for a in w)
    defect = X.unitary_defect() if X.mode == GROUP and inverse_letter else 0.0
    if not defect <= OPERATOR_DEFECT_TOL:  # the witness gate's tolerance
        raise DataError(args.at, f"group-mode entries are not unitary within {OPERATOR_DEFECT_TOL} "
                                 f"(defect {defect:.3e})")
    with _refused(args.at, PolyError), np.errstate(over="ignore", invalid="ignore"):  # refused below when it overflows
        value = poly_eval(f, X)
    if not np.isfinite(value).all():
        raise DataError(args.at, "f(X) is not finite: it overflows float64")
    _emit({"matrix": value}, args.out)
    return 0


def _check_fock_flags(args):
    """extract's and fock-dump's flags, checked before anything is read or counted."""
    if min(args.g, args.l) < 1:
        raise UsageError("--g and --l must be at least 1")


def _cmd_extract(args) -> int:
    _check_fock_flags(args)
    data = _read_json(args.eval_path)
    if isinstance(data, dict) and "matrix" not in data:
        raise DataError(args.eval_path, "bad evaluation JSON: missing 'matrix'")
    with _refused(args.eval_path, PolyError, FockError):  # FockError: the matrix does not fit the flags
        E = matrix_from_json(data["matrix"] if isinstance(data, dict) else data)
        if args.l + 1 > min(E.shape):  # count_words(g, l) >= l + 1: bound l before counting
            raise DataError(args.eval_path, f"matrix has shape {E.shape}, but --l {args.l} "
                                            f"needs a side of at least {args.l + 1}")
        q = extract_coeffs(E, args.g, args.l, MONOID)
    _emit(poly_to_json(q), args.out)
    return 0


def _cmd_fock_dump(args) -> int:
    _check_fock_flags(args)
    # its n x n complex arrays (the g unitaries, or L_i, A_i, M and M^-1) go to
    # sdp.refuse_bytes; n = count_words(g, l) >= l + 1 bounds l before n is counted
    arrays = args.g if args.group else 2 * args.g + 2

    def too_large(n: int) -> str:
        return refuse_bytes(16 * arrays * n * n, f"--l {args.l}: {arrays} complex arrays of side at least {n}")
    if reason := too_large(args.l + 1) or too_large(count_words(args.g, args.l, GROUP if args.group else MONOID)):
        raise UsageError(reason)
    if args.group:
        data = {"mode": GROUP, "g": args.g, "degree": args.l,
                "unitaries": build_unitaries(args.g, args.l).entries}
    else:
        A = build_symmetrized(args.g, args.l)
        M = vacuum_images(args.g, args.l, MONOID, A)
        data = {  # jsonio sorts the keys; M^-1 is freed here, before the L_i are built
            "mode": MONOID, "g": args.g, "degree": args.l,
            "extraction": M,
            "coefficient_bound": coefficient_bound(M),
            "symmetrized": A.entries,
            # L_i: A_i = L_i + L_i*, L_i strictly lower triangular
            "creation": [np.tril(Ai, -1) for Ai in A.entries],
        }
    _emit(data, args.out)
    return 0


def _load_factors(data, gram: GramMatrix, degree: int, path: str) -> np.ndarray:
    """Stored factors as SOSCertificate's stack, refused unparsed with sdp.refuse_bytes's reason.
    Each must fit the Gram basis of the given degree: G's (g, mode, k), and a degree at most that."""
    if isinstance(data, dict):  # list() would read its keys as the factors
        raise TypeError("factors must be a JSON list, not an object")
    data = list(data)
    words = gram.index[0][:len(gram.index[1])]
    need = 16 * len(data) * len(words) * gram.k ** 2
    if too_large := refuse_bytes(need, f"{len(data)} factors on {len(words)} words"):
        raise DataError(path, too_large)
    factors = [poly_from_json(r) for r in data]
    if any((r.g, r.mode, r.k) != (gram.g, gram.mode, gram.k) for r in factors):
        raise DataError(path, "factor does not match the Gram matrix's (g, mode, k)")
    if any(r.degree() > degree for r in factors):
        raise DataError(path, f"a factor of degree above {degree} does not fit the Gram basis")
    return np.array([r.on(words) for r in factors], dtype=complex).reshape(-1, len(words), gram.k, gram.k)


def _cmd_spotcheck(args) -> int:
    f = _load_poly(args.input)
    cert = _read_json(args.certificate)
    if not isinstance(cert, dict):
        raise DataError(args.certificate, "not a JSON object")
    kind = cert.get("outcome")
    if kind == "witness":
        try:
            data = cert["witness"]["model"]["operators"]
        except (KeyError, TypeError) as exc:
            raise DataError(args.certificate, f"no usable witness evidence ({type(exc).__name__}: {exc})")
        with _refused(args.certificate, PolyError):  # the stored tuple does not fit the input
            note, low, _ = refuse_witness(f, _load_tuple(data, f, args.certificate))
        threshold = -EPS_WIT
    elif kind == "sos":
        try:
            data, degree = cert["certificate"], cert["degree"]
            if type(degree) is not int or degree < 0:  # bool is an int subclass; true is refused
                raise ValueError(f"degree must be a non-negative integer, got {degree!r}")
            matrix = matrix_from_json(data["gram"])
            # degree + 1 <= count_words(g, degree): bound the degree, then count, then build the table
            if (degree + 1) * f.k > len(matrix) or count_words(f.g, degree, f.mode) * f.k != len(matrix):
                raise ValueError(f"degree {degree} does not fit a Gram matrix of side {len(matrix)}")
            gram = GramMatrix(f.g, f.mode, f.k, constraint_index(f.g, degree, f.mode), matrix)
            factors = _load_factors(data["factors"], gram, degree, args.certificate)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(args.certificate, f"no usable sos evidence ({type(exc).__name__}: {exc})")
        note, _, low = refuse_certificate(f, SOSCertificate(gram, factors))
        threshold = -EPS_PSD
    else:
        raise DataError(args.certificate, "no decided outcome to spot check")
    _emit({"kind": kind, "min_eig": _finite(low), "threshold": threshold, "ok": not note, "note": note},
          args.out)
    return 1 if note else 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except DataError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EX_DATA
    except Exception as exc:  # a fault of the program, not a witness: keep exit 1 for those
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())

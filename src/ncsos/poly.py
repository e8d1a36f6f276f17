"""Operator-valued noncommutative polynomials with complex k x k coefficients.

A polynomial is a finitely supported map word -> coefficient matrix.  The
involution reverses words (and inverts group letters) and conjugate-transposes
coefficients.  Evaluation at an operator tuple X is

    p(X) = sum_w  P_w (x) X^w

with the coefficient as the LEFT Kronecker factor; all downstream index
arithmetic (coefficient extraction, GNS) relies on this ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .words import (
    MONOID, MODES, Word, concat, format_word, graded_key, identity, involute, parse_word,
)

COEFF_DROP_TOL = 1e-14
EPS_HERM = 1e-9
EPS_UNIT = 1e-9


class PolyError(ValueError):
    pass


def opnorm(m) -> float:
    """Spectral norm, the coefficient norm used throughout."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


class NCPoly:
    """Finitely supported word -> k x k complex matrix map, canonicalised."""

    __slots__ = ("g", "mode", "k", "terms")

    def __init__(self, g: int, mode: str, k: int, terms=None):
        if mode not in MODES:
            raise PolyError(f"unknown mode {mode!r}")
        if k < 1:
            raise PolyError("coefficient dimension must be >= 1")
        if g < 1:
            raise PolyError("alphabet size must be >= 1")
        self.g = g
        self.mode = mode
        self.k = k
        clean: dict[Word, np.ndarray] = {}
        for w, c in (terms or {}).items():
            if w.mode != mode or w.g != g:
                raise PolyError(f"word {w!r} does not match (g={g}, mode={mode})")
            c = np.asarray(c, dtype=complex)
            if c.shape != (k, k):
                raise PolyError(f"coefficient for {w!r} has shape {c.shape}, want {(k, k)}")
            if w in clean:
                c = clean[w] + c
            if np.linalg.norm(c) > COEFF_DROP_TOL:
                clean[w] = c
            elif w in clean:
                del clean[w]
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, g: int, mode: str, k: int) -> "NCPoly":
        return cls(g, mode, k, {})

    @classmethod
    def constant(cls, c, g: int, mode: str = MONOID) -> "NCPoly":
        c = np.atleast_2d(np.asarray(c, dtype=complex))
        return cls(g, mode, c.shape[0], {identity(g, mode): c})

    @classmethod
    def monomial(cls, w: Word, c=1.0, k: int | None = None) -> "NCPoly":
        c = np.atleast_2d(np.asarray(c, dtype=complex))
        if k is not None and c.shape == (1, 1) and k > 1:
            c = c[0, 0] * np.eye(k)
        return cls(w.g, w.mode, c.shape[0], {w: c})

    # -- ring structure ----------------------------------------------------

    def _check_compat(self, other: "NCPoly"):
        if (self.g, self.mode, self.k) != (other.g, other.mode, other.k):
            raise PolyError("polynomials have mismatched (g, mode, k)")

    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._check_compat(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return NCPoly(self.g, self.mode, self.k, terms)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "NCPoly":
        return NCPoly(self.g, self.mode, self.k,
                      {w: scalar * c for w, c in self.terms.items()})

    def __mul__(self, other) -> "NCPoly":
        if not isinstance(other, NCPoly):
            return NCPoly(self.g, self.mode, self.k,
                          {w: c * other for w, c in self.terms.items()})
        self._check_compat(other)
        terms: dict[Word, np.ndarray] = {}
        for w, a in self.terms.items():
            for v, b in other.terms.items():
                u = concat(w, v)
                terms[u] = terms.get(u, 0) + a @ b
        return NCPoly(self.g, self.mode, self.k, terms)

    def __neg__(self) -> "NCPoly":
        return (-1.0) * self

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        if (self.g, self.mode, self.k) != (other.g, other.mode, other.k):
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(np.allclose(self.terms[w], other.terms[w], atol=1e-12)
                   for w in self.terms)

    def adjoint(self) -> "NCPoly":
        """p* : (w, P) -> (w*, P^dagger)."""
        return NCPoly(self.g, self.mode, self.k,
                      {involute(w): c.conj().T for w, c in self.terms.items()})

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def is_hermitian(self, tol: float = EPS_HERM) -> bool:
        diff = self - self.adjoint()
        return all(opnorm(c) <= tol for c in diff.terms.values())

    def coeff(self, w: Word) -> np.ndarray:
        return self.terms.get(w, np.zeros((self.k, self.k), dtype=complex))

    def __repr__(self):
        if not self.terms:
            return "NCPoly(0)"
        keys = sorted(self.terms, key=lambda w: (len(w), w.letters))
        return "NCPoly(" + " + ".join(f"[{format_word(w)}]" for w in keys) + ")"


@dataclass
class OperatorTuple:
    """g square matrices X_1..X_g; group mode may carry explicit inverses
    (2g matrices total) when the inverse operators are not literal matrix
    inverses, as for the truncated free-group unitaries."""

    mode: str
    entries: list = field(default_factory=list)
    inverses: list | None = None
    self_adjoint: bool = False

    def __post_init__(self):
        self.entries = [np.asarray(x, dtype=complex) for x in self.entries]
        n = self.entries[0].shape[0] if self.entries else 0
        for x in self.entries:
            if x.shape != (n, n):
                raise PolyError("tuple entries must be square matrices of equal size")
        if self.inverses is not None:
            self.inverses = [np.asarray(x, dtype=complex) for x in self.inverses]
            if len(self.inverses) != len(self.entries):
                raise PolyError("need one inverse per entry")
            if any(x.shape != (n, n) for x in self.inverses):
                raise PolyError("inverses must be square matrices of the entries' size")
        if self.self_adjoint and self.mode == MONOID and self.hermitian_defect() > EPS_HERM:
            raise PolyError("entry flagged self-adjoint is not Hermitian")

    @property
    def g(self) -> int:
        return len(self.entries)

    @property
    def dim(self) -> int:
        return self.entries[0].shape[0] if self.entries else 0

    def hermitian_defect(self) -> float:
        """max ||X - X^dagger|| over the entries."""
        return max((opnorm(x - x.conj().T) for x in self.entries), default=0.0)

    def unitary_defect(self) -> float:
        """max ||X X^dagger - I|| over the entries and any stored inverses,
        and max ||X_i V_i - I|| over the stored inverses V_i: how far the
        tuple is from a unitary representation of the free group."""
        n = self.dim
        mats = self.entries + (self.inverses or [])
        defects = [opnorm(x @ x.conj().T - np.eye(n)) for x in mats]
        defects += [opnorm(x @ v - np.eye(n)) for x, v in zip(self.entries, self.inverses or [])]
        return max(defects, default=0.0)

    def inverse_entries(self, tol: float = EPS_UNIT) -> list:
        if self.inverses is not None:
            return self.inverses
        if self.unitary_defect() > tol:
            raise PolyError(
                f"group-mode entries are not unitary within {tol} "
                f"(defect {self.unitary_defect():.3e})")
        return [np.linalg.inv(x) for x in self.entries]


def word_eval(w: Word, X: OperatorTuple, inverses: list | None = None) -> np.ndarray:
    """X^w, with X^empty = I; negative letters use inverses, by default the
    tuple's inverse_entries()."""
    n = X.dim
    out = np.eye(n, dtype=complex)
    for a in w.letters:
        if a > 0:
            out = out @ X.entries[a - 1]
        else:
            if inverses is None:
                inverses = X.inverse_entries()
            out = out @ inverses[-a - 1]
    return out


def poly_eval(p: NCPoly, X: OperatorTuple) -> np.ndarray:
    """p(X) = sum_w P_w (x) X^w, a (k*n) x (k*n) matrix.

    The terms are summed in graded_key order, so a polynomial and its JSON
    round trip evaluate to the same bits whatever order built its terms.
    A group tuple's inverses are taken once per call, not once per word.
    """
    if X.mode != p.mode:
        raise PolyError(f"cannot evaluate {p.mode} polynomial at {X.mode} tuple")
    if X.g < p.g:
        raise PolyError(f"tuple has {X.g} entries, polynomial uses {p.g} letters")
    n = X.dim
    out = np.zeros((p.k * n, p.k * n), dtype=complex)
    inverses = None
    if any(a < 0 for w in p.terms for a in w.letters):
        inverses = X.inverse_entries()
    for w in sorted(p.terms, key=graded_key):
        out += np.kron(p.terms[w], word_eval(w, X, inverses))
    return out


# -- JSON polynomial format ------------------------------------------------
#
# {"g": 2, "mode": "monoid", "coeff_dim": 2,
#  "terms": [{"word": "x1 x2", "matrix": [[[re, im], ...], ...]}]}


def matrix_to_json(m) -> list:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    try:
        m = np.array([[complex(e[0], e[1]) for e in row] for row in data])
    except (TypeError, IndexError, ValueError) as exc:
        raise PolyError(f"bad matrix encoding: {exc}") from None
    if not np.isfinite(m).all():
        raise PolyError("bad matrix encoding: entries must be finite")
    return m


def poly_to_json(p: NCPoly) -> dict:
    return {
        "g": p.g,
        "mode": p.mode,
        "coeff_dim": p.k,
        "terms": [
            {"word": format_word(w), "matrix": matrix_to_json(p.terms[w])}
            for w in sorted(p.terms, key=graded_key)
        ],
    }


def poly_from_json(data: dict) -> NCPoly:
    if not isinstance(data, dict):
        raise PolyError("bad polynomial JSON: not an object")
    try:
        g, mode, k, raw = data["g"], data["mode"], data["coeff_dim"], data["terms"]
    except KeyError as exc:
        raise PolyError(f"bad polynomial JSON: missing {exc}") from None
    for name, value in (("g", g), ("coeff_dim", k)):
        if type(value) is not int:  # bool is an int subclass; 1.5 and true are refused
            raise PolyError(f"bad polynomial JSON: {name} must be an integer, got {value!r}")
    if not isinstance(raw, list):
        raise PolyError("bad polynomial JSON: terms is not a list")
    terms = {}
    for item in raw:
        if not isinstance(item, dict) or not isinstance(item.get("word"), str) or "matrix" not in item:
            raise PolyError("bad polynomial term: want {\"word\": string, \"matrix\": matrix}")
        w = parse_word(item["word"], g, mode)
        c = matrix_from_json(item["matrix"])
        if c.shape != (k, k):
            raise PolyError(f"term {item['word']!r} has matrix shape {c.shape}, want ({k}, {k})")
        terms[w] = terms.get(w, 0) + c
    return NCPoly(g, mode, k, terms)


def tuple_to_json(X: OperatorTuple) -> dict:
    out = {"mode": X.mode, "entries": [matrix_to_json(x) for x in X.entries]}
    if X.inverses is not None:
        out["inverses"] = [matrix_to_json(x) for x in X.inverses]
    return out


def tuple_from_json(data: dict) -> OperatorTuple:
    try:
        mode = data["mode"]
        entries = [matrix_from_json(m) for m in data["entries"]]
    except (KeyError, TypeError) as exc:
        raise PolyError(f"bad tuple JSON: missing {exc}") from None
    inverses = None
    if "inverses" in data:
        inverses = [matrix_from_json(m) for m in data["inverses"]]
    return OperatorTuple(mode=mode, entries=entries, inverses=inverses)

"""Operator-valued noncommutative polynomials with complex k x k coefficients.

A polynomial is a finitely supported map word -> coefficient matrix.  The
involution reverses words (and inverts group letters) and conjugate-transposes
coefficients.  Evaluation at an operator tuple X is

    p(X) = sum_w  P_w (x) X^w

with the coefficient as the LEFT Kronecker factor; all downstream index
arithmetic (coefficient extraction, GNS) relies on this ordering.  In group
mode X stands for a unitary representation of the free group, so a letter
x_i^-1 is evaluated as X_i^dagger; unitarity is checked where a tuple is
trusted (the witness gate) or read from outside (ncsos eval).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .words import MONOID, MODES, _parse_letters, check_word, concat, format_word, graded_key, involute, suffix_table

COEFF_DROP_TOL = 1e-14
EPS_HERM = 1e-9


class PolyError(ValueError):
    pass


def opnorm(m) -> float:
    """Spectral norm, the coefficient norm used throughout: inf for a matrix
    with an entry that is not finite, which no SVD is run on."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    if not np.isfinite(m).all():
        return np.inf
    return float(np.linalg.norm(m, 2))


class NCPoly:
    """Finitely supported word -> k x k complex matrix map, canonicalised: the
    support words (letter tuples over the polynomial's g and mode) in graded
    order, the (T, k, k) stack coeffs aligned with it, and terms, a read-only
    word -> coefficient view of both.  Each coefficient must be finite."""

    __slots__ = ("g", "mode", "k", "words", "coeffs", "terms")

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
        terms = terms or {}
        for w, c in terms.items():
            check_word(w, g, mode)
            if np.shape(c) != (k, k):
                raise PolyError(f"coefficient for {format_word(w)!r} has shape {np.shape(c)}, want {(k, k)}")
        words, stack = list(terms), np.array(list(terms.values()), dtype=complex).reshape(-1, k, k)
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():  # NaN would fail the drop test below and vanish
            raise PolyError(f"coefficient for {format_word(words[finite.argmin()])!r} is not finite")
        with np.errstate(over="ignore"):  # a norm that overflows is inf, and the term is kept
            kept = np.flatnonzero(np.linalg.norm(stack, axis=(1, 2)) > COEFF_DROP_TOL).tolist()
        kept.sort(key=lambda i: graded_key(words[i]))
        self.words = [words[i] for i in kept]
        self.coeffs = stack[kept]
        self.terms = MappingProxyType(dict(zip(self.words, self.coeffs)))

    def on(self, words) -> np.ndarray:
        """The coefficients of a word list as one (len(words), k, k) stack,
        zero off the support."""
        zero = np.zeros((self.k, self.k), dtype=complex)
        return np.array([self.terms.get(w, zero) for w in words], dtype=complex).reshape(-1, self.k, self.k)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, g: int, mode: str, k: int) -> "NCPoly":
        return cls(g, mode, k, {})

    @classmethod
    def constant(cls, c, g: int, mode: str = MONOID) -> "NCPoly":
        c = np.atleast_2d(np.asarray(c, dtype=complex))
        return cls(g, mode, c.shape[0], {(): c})

    @classmethod
    def monomial(cls, w: tuple, g: int, mode: str = MONOID, c=1.0) -> "NCPoly":
        c = np.atleast_2d(np.asarray(c, dtype=complex))
        return cls(g, mode, c.shape[0], {w: c})

    # -- ring structure ----------------------------------------------------

    def _check_compat(self, other: "NCPoly"):
        if (self.g, self.mode, self.k) != (other.g, other.mode, other.k):
            raise PolyError("polynomials have mismatched (g, mode, k)")

    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._check_compat(other)
        terms = dict(zip(self.words, self.coeffs))
        for w, c in zip(other.words, other.coeffs):
            terms[w] = terms.get(w, 0) + c
        return NCPoly(self.g, self.mode, self.k, terms)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "NCPoly":
        return NCPoly(self.g, self.mode, self.k, dict(zip(self.words, scalar * self.coeffs)))

    def __mul__(self, other) -> "NCPoly":
        if not isinstance(other, NCPoly):
            return NCPoly(self.g, self.mode, self.k, dict(zip(self.words, self.coeffs * other)))
        self._check_compat(other)
        terms: dict[tuple, np.ndarray] = {}
        for w, a in zip(self.words, self.coeffs):
            for v, b in zip(other.words, other.coeffs):
                u = concat(w, v, self.mode)
                terms[u] = terms.get(u, 0) + a @ b
        return NCPoly(self.g, self.mode, self.k, terms)

    def __neg__(self) -> "NCPoly":
        return (-1.0) * self

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return ((self.g, self.mode, self.k) == (other.g, other.mode, other.k)
                and self.words == other.words
                and np.allclose(self.coeffs, other.coeffs, atol=1e-12))

    def adjoint(self) -> "NCPoly":
        """p* : (w, P) -> (w*, P^dagger)."""
        return NCPoly(self.g, self.mode, self.k,
                      {involute(w, self.mode): c.conj().T for w, c in zip(self.words, self.coeffs)})

    def degree(self) -> int:
        return len(self.words[-1]) if self.words else 0

    def is_hermitian(self) -> bool:
        """P_w = P_{w*}^dagger in operator norm within EPS_HERM times the
        largest coefficient norm, or 1 if that is smaller, for every w."""
        mirror = self.on([involute(w, self.mode) for w in self.words]).conj().transpose(0, 2, 1)
        scale = max(1.0, float(np.linalg.norm(self.coeffs, 2, axis=(1, 2)).max(initial=0.0)))
        return bool(np.all(np.linalg.norm(self.coeffs - mirror, 2, axis=(1, 2)) <= EPS_HERM * scale))

    def __repr__(self):
        if not self.words:
            return "NCPoly(0)"
        return "NCPoly(" + " + ".join(f"[{format_word(w)}]" for w in self.words) + ")"


@dataclass
class OperatorTuple:
    """g square matrices X_1..X_g.  In group mode the tuple stands for the
    unitary representation x_i -> X_i of the free group, so x_i^-1 acts as
    X_i^dagger: the tuple is its g entries, and evaluation reads the
    inverse letters as adjoints."""

    mode: str
    entries: list = field(default_factory=list)

    def __post_init__(self):
        self.entries = [np.asarray(x, dtype=complex) for x in self.entries]
        n = self.entries[0].shape[0] if self.entries else 0
        for x in self.entries:
            if x.shape != (n, n):
                raise PolyError("tuple entries must be square matrices of equal size")

    @property
    def g(self) -> int:
        return len(self.entries)

    @property
    def dim(self) -> int:
        return self.entries[0].shape[0] if self.entries else 0

    @np.errstate(over="ignore", invalid="ignore")
    def hermitian_defect(self) -> float:
        """max ||X - X^dagger|| over the entries, inf when it overflows."""
        return max((opnorm(x - x.conj().T) for x in self.entries), default=0.0)

    @np.errstate(over="ignore", invalid="ignore")
    def unitary_defect(self) -> float:
        """max ||X X^dagger - I|| over the entries: how far the tuple is from
        a unitary representation of the free group, inf when it overflows."""
        return max((opnorm(x @ x.conj().T - np.eye(self.dim)) for x in self.entries), default=0.0)


def _letters(X: OperatorTuple, used) -> dict:
    """Signed letter -> matrix of X for the letters used: x_i to X_i, and
    x_i^-1 to a copy of X_i^dagger."""
    return {a: X.entries[a - 1] if a > 0 else X.entries[-a - 1].conj().T for a in used}


def word_eval(w: tuple, X: OperatorTuple) -> np.ndarray:
    """X^w, with X^empty = I and x_i^-1 evaluated as X_i^dagger."""
    letters = _letters(X, set(w))
    out = np.eye(X.dim, dtype=complex)
    for a in w:
        out = out @ letters[a]
    return out


def word_images(X: OperatorTuple, words: list[tuple], V) -> np.ndarray:
    """X^w V for every word of a graded list, side by side in column blocks:
    each is one product with its suffix's, X^{a w} V = X_a (X^w V)."""
    head, tail = suffix_table(words)
    letters = _letters(X, set(head.tolist()) - {0})
    Z = np.empty((V.shape[0], len(words), V.shape[1]), dtype=complex)
    for j, (a, t) in enumerate(zip(head.tolist(), tail.tolist())):
        Z[:, j] = letters[a] @ Z[:, t] if a else V
    return Z.reshape(V.shape[0], -1)


def shared_prefixes(words: list[tuple]) -> list[int]:
    """The length of the prefix each word shares with the next one, 0 for the last."""
    out = []
    for w, v in zip(words, words[1:]):
        s = 0
        while s < min(len(w), len(v)) and w[s] == v[s]:
            s += 1
        out.append(s)
    return out + [0]


def eval_bytes(p: NCPoly, n: int) -> int:
    """The bytes poly_eval(p, X) holds for a tuple on C^n: p(X), of side k n,
    and arrays of side n: the adjoint of each inverse letter p uses, the
    identity, the images of the longest prefix s that a word shares with the
    next, the running product, and either the next product or the term of
    one block row, k arrays; and the two buffers of np.getbufsize() complex
    numbers that numpy's ufunc machinery fills while it adds a block row."""
    inverses = len({a for w in p.words for a in w if a < 0})
    s = max(shared_prefixes(p.words), default=0)
    return 16 * ((p.k * n) ** 2 + (inverses + s + 2 + p.k) * n ** 2 + 2 * np.getbufsize())


def poly_eval(p: NCPoly, X: OperatorTuple) -> np.ndarray:
    """p(X) = sum_w P_w (x) X^w, a (k*n) x (k*n) matrix.

    The terms are summed in graded order, so a polynomial and its JSON round
    trip evaluate to the same bits whatever order built its terms.  Each X^w
    is word_eval's product, extended from the prefix w shares with the word
    before it.  Besides the running product, only the images of the prefix w
    shares with the next word are held: no later word reuses the others.
    eval_bytes counts what it holds.
    """
    if X.mode != p.mode:
        raise PolyError(f"cannot evaluate {p.mode} polynomial at {X.mode} tuple")
    if X.g < p.g:
        raise PolyError(f"tuple has {X.g} entries, polynomial uses {p.g} letters")
    n = X.dim
    out = np.zeros((p.k * n, p.k * n), dtype=complex)
    blocks = out.reshape(p.k, n, p.k, n)  # blocks[a, :, b, :] is block (a, b) of out, as np.kron lays it
    letters = _letters(X, {a for w in p.words for a in w})
    images = [np.eye(n, dtype=complex)]  # images[i] = X^(w[:i]) up to the prefix w shares with the word before
    for w, c, s in zip(p.words, p.coeffs, shared_prefixes(p.words)):
        image = images[-1]
        for i in range(len(images) - 1, len(w)):
            image = image @ letters[w[i]]
            if i < s:
                images.append(image)
        for a in range(p.k):  # one block row at a time: a temporary of k n^2, not (k n)^2
            blocks[a] += c[a][None, :, None] * image[:, None, :]
        del images[s + 1:]
    return out


# -- JSON polynomial format ------------------------------------------------
#
# {"g": 2, "mode": "monoid", "coeff_dim": 2,
#  "terms": [{"word": "x1 x2", "matrix": [[[re, im], ...], ...]}]}


def matrix_to_json(m) -> list:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    # an object or a string would be iterated as its keys or its characters, a bool read as a number
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data) or not all(
            isinstance(e, list) and len(e) == 2 and {type(x) for x in e} <= {int, float} for row in data for e in row):
        raise PolyError("bad matrix encoding: want a list of rows, each a list of [re, im] pairs")
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in data])
    except (ValueError, OverflowError) as exc:  # a ragged matrix, an int too large for a float
        raise PolyError(f"bad matrix encoding: {exc}") from None
    if not np.isfinite(m).all():
        raise PolyError("bad matrix encoding: entries must be finite")
    return m


def terms_to_json(g: int, mode: str, k: int, terms) -> dict:
    """A polynomial's JSON object from its (word, coefficient array) pairs, for jsonio.dumps."""
    return {"g": g, "mode": mode, "coeff_dim": k,
            "terms": [{"word": format_word(w), "matrix": c} for w, c in terms]}


def poly_to_json(p: NCPoly) -> dict:
    return terms_to_json(p.g, p.mode, p.k, zip(p.words, p.coeffs))


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
        w = _parse_letters(item["word"], g, mode)  # NCPoly checks it
        c = matrix_from_json(item["matrix"])
        if c.shape != (k, k):
            raise PolyError(f"term {item['word']!r} has matrix shape {c.shape}, want ({k}, {k})")
        terms[w] = terms.get(w, 0) + c
    return NCPoly(g, mode, k, terms)


def tuple_to_json(X: OperatorTuple) -> dict:
    """The tuple's JSON object, its matrices as arrays for jsonio.dumps."""
    return {"mode": X.mode, "entries": X.entries}


def tuple_from_json(data: dict) -> OperatorTuple:
    if not isinstance(data, dict):
        raise PolyError("bad tuple JSON: not an object")
    try:
        mode, entries = data["mode"], data["entries"]
    except KeyError as exc:
        raise PolyError(f"bad tuple JSON: missing {exc}") from None
    if not isinstance(entries, list):
        raise PolyError("bad tuple JSON: entries must be a list of matrices")
    if "inverses" in data:
        raise PolyError("bad tuple JSON: \"inverses\" is not read; "
                        "a group tuple evaluates x_i^-1 as the adjoint of its entry X_i")
    return OperatorTuple(mode=mode, entries=[matrix_from_json(m) for m in entries])

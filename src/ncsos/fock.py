"""Truncated Fock space machinery.

The span of basis vectors e_w over words of length <= l carries compressed
left creation operators L_i (e_w -> e_{x_i w}, killed at the top degree) and
their symmetrized Hermitian sums A_i = L_i + L_i^dagger.  Applying words in A
to the vacuum yields an upper-triangular, unit-diagonal change-of-basis
matrix whose inverse recovers polynomial coefficients from an evaluation
q(A).  In group mode the same span carries a canonical tuple of 2g unitaries
U_y acting as w -> yw wherever that makes sense at the truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import NCPoly, OperatorTuple
from .words import (
    GROUP, MONOID, Word, concat, count_words, enumerate_words, graded_key,
)


class FockError(ValueError):
    pass


@dataclass(frozen=True)
class FockBasis:
    """Graded-lex ordered words of length <= degree; position 0 is the vacuum."""

    g: int
    degree: int
    mode: str

    def __post_init__(self):
        if self.degree < 0:
            raise FockError("truncation degree must be >= 0")

    @property
    def words(self) -> list[Word]:
        return enumerate_words(self.g, self.degree, self.mode)

    @property
    def dim(self) -> int:
        return count_words(self.g, self.degree, self.mode)

    def index(self) -> dict[Word, int]:
        return {w: i for i, w in enumerate(self.words)}


def build_creation(basis: FockBasis) -> list[np.ndarray]:
    """Compressed creation operators: L_i e_w = e_{x_i w} if |w| < l, else 0."""
    if basis.mode != MONOID:
        raise FockError("creation operators are a monoid-mode construction")
    words = basis.words
    idx = basis.index()
    n = basis.dim
    ops = []
    for i in range(1, basis.g + 1):
        L = np.zeros((n, n), dtype=complex)
        for j, w in enumerate(words):
            if len(w) < basis.degree:
                L[idx[Word(MONOID, basis.g, (i,) + w.letters)], j] = 1.0
        ops.append(L)
    return ops


def build_symmetrized(basis: FockBasis) -> OperatorTuple:
    """A_i = L_i + L_i^dagger on the truncated space; exactly Hermitian."""
    ls = build_creation(basis)
    return OperatorTuple(MONOID, [L + L.conj().T for L in ls], self_adjoint=True)


@dataclass
class ExtractionMatrix:
    """M[v, w] = <A^w vacuum, e_v>; unit upper triangular in graded-lex order."""

    basis: FockBasis
    matrix: np.ndarray
    inverse: np.ndarray
    row_sum_bound: float  # max absolute row sum of the inverse


def vacuum_images(basis: FockBasis) -> np.ndarray:
    """The n x n matrix whose column j is A^w vacuum for the j-th basis word w.

    Filled by recursion on the leading letter: the suffix w[1:] is shorter,
    hence already computed.  No word of the basis reaches past the
    truncation, so these are the untruncated vectors.
    """
    if basis.mode != MONOID:
        raise FockError("vacuum images are a monoid-mode construction")
    idx = basis.index()
    A = build_symmetrized(basis).entries
    cols = np.zeros((basis.dim, basis.dim), dtype=complex)
    cols[0, 0] = 1.0
    for j, w in enumerate(basis.words):
        if w.letters:
            cols[:, j] = A[w.letters[0] - 1] @ cols[:, idx[Word(MONOID, basis.g, w.letters[1:])]]
    return cols


def build_extraction(basis: FockBasis) -> ExtractionMatrix:
    if basis.mode != MONOID:
        raise FockError("extraction is a monoid-mode construction")
    if basis.degree < 1:
        raise FockError("extraction needs truncation degree >= 1")
    M = vacuum_images(basis)
    if max(np.abs(np.tril(M, -1)).max(), np.abs(np.diag(M) - 1.0).max()) > 1e-12:
        raise FockError("extraction matrix is not unit upper triangular; ordering bug")
    Minv = np.linalg.inv(M)
    lam = float(np.abs(Minv).sum(axis=1).max())
    return ExtractionMatrix(basis=basis, matrix=M, inverse=Minv, row_sum_bound=lam)


def extract_coeffs(E: np.ndarray, basis: FockBasis, k: int,
                   extraction: ExtractionMatrix | None = None) -> NCPoly:
    """Recover q from E = q(A) for q of degree <= l.

    The column of k x k blocks Z_v = E[(a, v), (b, vacuum)] satisfies
    Z = M Q, so Q = M^{-1} Z.
    """
    E = np.asarray(E, dtype=complex)
    n = basis.dim
    if E.shape != (k * n, k * n):
        raise FockError(f"matrix has shape {E.shape}, want {(k * n, k * n)}")
    ext = extraction if extraction is not None else build_extraction(basis)
    # coefficient-left Kronecker order: entry ((a, v), (b, vacuum)) = E[a*n + v, b*n + 0]
    Z = E.reshape(k, n, k, n)[:, :, :, 0].transpose(1, 0, 2)  # (v, a, b)
    Q = np.einsum("wv,vab->wab", ext.inverse, Z)
    terms = {w: Q[j] for j, w in enumerate(basis.words)}
    return NCPoly(basis.g, MONOID, k, terms)


def gram_bound_constant(g: int, d: int) -> float:
    """mu_d = N(d)^3 * lambda_{2d}^2 bounding ||G|| by mu_d * ||p(A)|| at l = 2d."""
    lam = build_extraction(FockBasis(g, 2 * d, MONOID)).row_sum_bound
    return count_words(g, d, MONOID) ** 3 * lam**2


def unitary_gram_bound_constant(g: int, d: int) -> float:
    """tau_d = N_red(d)^3; same counting argument with ||P_w|| <= ||p(U)||."""
    return float(count_words(g, d, GROUP) ** 3)


def build_unitaries(g: int, d: int) -> OperatorTuple:
    """The 2g unitaries U_y on the degree-d truncation, y in {x_i, x_i^-1}.

    U_y agrees with w -> yw on the span of words of length <= d-1 together
    with y^-1 * (words of length <= d-1).  The leftover length-d basis words
    on each side are matched to each other in graded-lex order; with that
    extension U_{y^-1} need not invert U_y off the core subspace, but every
    U_y is unitary and U^w vacuum = e_w for all reduced |w| <= d.
    """
    if d < 1:
        raise FockError("need truncation degree >= 1")
    basis = FockBasis(g, d, GROUP)
    words = basis.words
    idx = basis.index()
    n = basis.dim

    def unitary_for(y: int) -> np.ndarray:
        U = np.zeros((n, n), dtype=complex)
        dom_leftover, cod_leftover = [], []
        for w in words:
            image = concat(Word(GROUP, g, (y,)), w)
            covered = len(w) <= d - 1 or w.letters[0] == -y
            if covered:
                U[idx[image], idx[w]] = 1.0
            else:
                dom_leftover.append(w)  # length-d words not starting with y^-1
            if not (len(w) <= d - 1 or w.letters[0] == y):
                cod_leftover.append(w)  # length-d words not starting with y
        if len(dom_leftover) != len(cod_leftover):
            raise FockError("complement dimensions disagree; enumeration bug")
        for w_from, w_to in zip(sorted(dom_leftover, key=graded_key),
                                sorted(cod_leftover, key=graded_key)):
            U[idx[w_to], idx[w_from]] = 1.0
        return U

    entries = [unitary_for(i) for i in range(1, g + 1)]
    inverses = [unitary_for(-i) for i in range(1, g + 1)]
    return OperatorTuple(GROUP, entries, inverses=inverses)


def coefficient_peek(E: np.ndarray, basis: FockBasis, k: int, w: Word) -> np.ndarray:
    """The k x k block of E = p(U) at Fock row w, column vacuum; equals P_w."""
    if basis.mode != GROUP:
        raise FockError("coefficient peek reads the free-group basis")
    idx = basis.index()
    if w not in idx:
        raise FockError(f"word {w!r} is not in the degree-{basis.degree} basis")
    E = np.asarray(E, dtype=complex)
    n = basis.dim
    if E.shape != (k * n, k * n):
        raise FockError(f"matrix has shape {E.shape}, want {(k * n, k * n)}")
    return E.reshape(k, n, k, n)[:, idx[w], :, 0]

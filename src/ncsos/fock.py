"""Truncated Fock space machinery.

The span of basis vectors e_w over words of length <= l carries compressed
left creation operators L_i (e_w -> e_{x_i w}, killed at the top degree) and
their symmetrized Hermitian sums A_i = L_i + L_i^dagger.  Applying words in A
to the vacuum yields an upper-triangular, unit-diagonal change-of-basis
matrix whose inverse recovers polynomial coefficients from an evaluation
q(A).  In group mode the same span carries a canonical tuple of g
permutation unitaries U_i acting as w -> x_i w, and their adjoints as
w -> x_i^-1 w, wherever that makes sense at the truncation.

All are compressions of the left-regular map e_w -> e_{a w}, read off the
basis's suffix table (words.suffix_table, words.left_shift) without building
a word per matrix entry; the vacuum images are poly.word_images of A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import NCPoly, OperatorTuple, word_images
from .words import (
    GROUP, MONOID, Word, count_words, enumerate_words, left_shift, suffix_table,
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
    head, tail = suffix_table(basis.words)
    ops = np.zeros((basis.g, basis.dim, basis.dim), dtype=complex)
    rows = np.flatnonzero(head)  # every word x_i w but the vacuum: L_i's row x_i w, column w
    ops[head[rows] - 1, rows, tail[rows]] = 1.0
    return list(ops)


def build_symmetrized(basis: FockBasis) -> OperatorTuple:
    """A_i = L_i + L_i^dagger on the truncated space; exactly Hermitian."""
    ls = build_creation(basis)
    return OperatorTuple(MONOID, [L + L.conj().T for L in ls])


@dataclass
class ExtractionMatrix:
    """M[v, w] = <A^w vacuum, e_v>; unit upper triangular in graded-lex order."""

    basis: FockBasis
    matrix: np.ndarray
    inverse: np.ndarray
    row_sum_bound: float  # max absolute row sum of the inverse


def vacuum_images(basis: FockBasis) -> np.ndarray:
    """The n x n matrix whose column j is A^w vacuum for the j-th basis word w.

    No word of the basis reaches past the truncation, so these are the
    untruncated vectors.
    """
    vacuum = np.eye(basis.dim, 1, dtype=complex)
    return word_images(build_symmetrized(basis), basis.words, vacuum)


def build_extraction(basis: FockBasis) -> ExtractionMatrix:
    if basis.degree < 1:
        raise FockError("extraction needs truncation degree >= 1")
    M = vacuum_images(basis)
    if max(np.abs(np.tril(M, -1)).max(), np.abs(np.diag(M) - 1.0).max()) > 1e-12:
        raise FockError("extraction matrix is not unit upper triangular; ordering bug")
    Minv = np.linalg.inv(M)
    lam = float(np.abs(Minv).sum(axis=1).max())
    return ExtractionMatrix(basis=basis, matrix=M, inverse=Minv, row_sum_bound=lam)


def extract_coeffs(E: np.ndarray, basis: FockBasis, k: int) -> NCPoly:
    """Recover q from E = q(A) for q of degree <= l.

    The column of k x k blocks Z_v = E[(a, v), (b, vacuum)] satisfies
    Z = M Q, so Q = M^{-1} Z, with M the basis's extraction matrix.
    """
    E = np.asarray(E, dtype=complex)
    n = basis.dim
    if E.shape != (k * n, k * n):
        raise FockError(f"matrix has shape {E.shape}, want {(k * n, k * n)}")
    ext = build_extraction(basis)
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
    """The g unitaries U_i on the degree-d truncation, x_i^-1 acting as U_i*.

    U_i agrees with w -> x_i w wherever x_i w is a basis word (|w| <= d-1,
    or w starting with x_i^-1).  The leftover length-d words, those not
    starting with x_i^-1 (mapped past the truncation) and those not starting
    with x_i (reached by nothing), are matched to each other in graded-lex
    order.  So U_i is a permutation matrix, and U_i^T = U_i* is exactly the
    same construction for the letter x_i^-1: U^w vacuum = e_w for every
    reduced |w| <= d.
    """
    if d < 1:
        raise FockError("need truncation degree >= 1")
    n = count_words(g, d, GROUP)
    head, tail = suffix_table(enumerate_words(g, d, GROUP))

    def unitary_for(y: int) -> np.ndarray:
        U = np.zeros((n, n), dtype=complex)
        shift = left_shift(head, tail, y)
        covered = np.flatnonzero(shift >= 0)
        U[shift[covered], covered] = 1.0
        # the leftover length-d words, matched in index (graded) order: those
        # not starting with y^-1 to those not starting with y
        U[np.setdiff1d(np.arange(n), shift), shift < 0] = 1.0
        return U

    return OperatorTuple(GROUP, [unitary_for(i) for i in range(1, g + 1)])


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

"""Truncated Fock space machinery: the paper's two canonical tuples.

The span of basis vectors e_w over words of length <= l (reduced words in
group mode) carries one construction for both tuples: the compressed
left-regular shifts e_w -> e_{x_i w}, read off the basis's suffix table
(words.suffix_table, words.left_shift) without building a word per matrix
entry.  In monoid mode the shift, killed at the top degree, is the creation
operator L_i, and A_i = L_i + L_i^dagger.  In group mode it is completed to a
permutation unitary U_i, x_i^-1 acting as U_i^*.

The vacuum images T^w vacuum of the canonical tuple T (A or U) over the basis
words are the columns of a unit upper-triangular matrix M (vacuum_images).
Its inverse recovers the coefficients of q from an evaluation q(T), whose
side sets q's coefficient size k (extract_coeffs), and the inverse's max
absolute row sum lambda (coefficient_bound) enters the Gram-bound constant.
For U, M is the identity: U^w vacuum = e_w.
"""

from __future__ import annotations

import numpy as np

from .poly import NCPoly, OperatorTuple, word_images
from .words import GROUP, MONOID, count_words, enumerate_words, left_shift, suffix_table


class FockError(ValueError):
    pass


def _compressed_shift(head: np.ndarray, tail: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """The matrix of e_w -> e_{a w} on the listed words, zero where a w is not
    listed, and words.left_shift's index of a w for each w."""
    S = np.zeros((len(head), len(head)), dtype=complex)
    shift = left_shift(head, tail, a)
    covered = np.flatnonzero(shift >= 0)
    S[shift[covered], covered] = 1.0
    return S, shift


def build_symmetrized(g: int, l: int) -> OperatorTuple:
    """A_i = L_i + L_i^dagger on the truncated space, exactly Hermitian, with
    the compressed creation operator L_i e_w = e_{x_i w} if |w| < l, else 0:
    strictly lower triangular in graded order, so L_i is tril(A_i, -1)."""
    head, tail = suffix_table(enumerate_words(g, l, MONOID))
    shifts = (_compressed_shift(head, tail, i)[0] for i in range(1, g + 1))
    return OperatorTuple(MONOID, [L + L.conj().T for L in shifts])


def build_unitaries(g: int, l: int) -> OperatorTuple:
    """The g unitaries U_i on the degree-l truncation, x_i^-1 acting as U_i*.

    U_i agrees with w -> x_i w wherever x_i w is a basis word (|w| <= l-1,
    or w starting with x_i^-1).  The leftover length-l words, those not
    starting with x_i^-1 (mapped past the truncation) and those not starting
    with x_i (reached by nothing), are matched to each other in graded-lex
    order.  So U_i is a permutation matrix, and U_i^T = U_i* is exactly the
    same construction for the letter x_i^-1: U^w vacuum = e_w for every
    reduced |w| <= l.
    """
    if l < 1:
        raise FockError("need truncation degree >= 1")
    head, tail = suffix_table(enumerate_words(g, l, GROUP))

    def unitary_for(y: int) -> np.ndarray:
        U, shift = _compressed_shift(head, tail, y)
        # the leftover length-l words, matched in index (graded) order: those
        # not starting with y^-1 to those not starting with y
        U[np.setdiff1d(np.arange(len(head)), shift), shift < 0] = 1.0
        return U

    return OperatorTuple(GROUP, [unitary_for(i) for i in range(1, g + 1)])


def vacuum_images(g: int, l: int, mode: str, A: OperatorTuple | None = None) -> np.ndarray:
    """The n x n matrix M whose column j is T^w vacuum for the j-th word w of
    length <= l, T the canonical tuple of the mode: A (monoid), read off the
    given build_symmetrized(g, l) when the caller holds it, or U (group).

    No basis word reaches past the truncation, so these are the untruncated
    vectors.  For U they are the unit vectors e_w by construction, so M is
    the identity, returned as a real array without a word product: a real
    M* M in certify.free_state costs a quarter of a complex one.
    """
    if mode == GROUP:
        return np.eye(count_words(g, l, GROUP))
    words = enumerate_words(g, l, mode)
    A = build_symmetrized(g, l) if A is None else A
    return word_images(A, words, np.eye(len(words), 1, dtype=complex))


def _inverse(M: np.ndarray) -> np.ndarray:
    """M^-1 for vacuum_images' M, unit upper triangular in graded order."""
    if max(np.abs(np.tril(M, -1)).max(), np.abs(np.diag(M) - 1.0).max()) > 1e-12:
        raise FockError("extraction matrix is not unit upper triangular; ordering bug")
    return np.linalg.inv(M)


def coefficient_bound(M: np.ndarray) -> float:
    """lambda, the largest absolute row sum of M^-1: every coefficient of a
    q that extract_coeffs recovers from E = q(T) has norm <= lambda ||E||."""
    return float(np.abs(_inverse(M)).sum(axis=1).max())


def extract_coeffs(E: np.ndarray, g: int, l: int, mode: str) -> NCPoly:
    """Recover q from E = q(T) for q of degree <= l, T the mode's canonical tuple.

    E's side is k N(l), with N(l) the number of basis words: it sets k.  The
    column of k x k blocks Z_v = E[(a, v), (b, vacuum)] satisfies Z = M Q,
    so Q = M^{-1} Z, with M = vacuum_images(g, l, mode).  In group mode
    M^{-1} = I, and Q = Z exactly.
    """
    E = np.asarray(E, dtype=complex)
    n = count_words(g, l, mode)
    k = len(E) // n
    if k < 1 or E.shape != (k * n, k * n):
        raise FockError(f"matrix has shape {E.shape}: want a square whose side is a multiple of "
                        f"the {n} words of degree <= {l} over {g} letters")
    # coefficient-left Kronecker order: entry ((a, v), (b, vacuum)) = E[a*n + v, b*n + 0]
    Z = E.reshape(k, n, k, n)[:, :, :, 0].transpose(1, 0, 2)  # (v, a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        Q = np.einsum("wv,vab->wab", _inverse(vacuum_images(g, l, mode)), Z)
    if not np.isfinite(Q).all():  # NCPoly would drop a NaN coefficient
        raise FockError("the recovered coefficients are not finite: they overflow float64")
    return NCPoly(g, mode, k, dict(zip(enumerate_words(g, l, mode), Q)))


def gram_bound_constant(g: int, d: int, mode: str) -> float:
    """N(d)^3 * lambda_{2d}^2, which bounds ||G|| by its product with ||p(T)||
    at l = 2d for every psd Gram matrix G of p: mu_d for A, and for U, where
    lambda = 1, tau_d = N_red(d)^3."""
    return count_words(g, d, mode) ** 3 * coefficient_bound(vacuum_images(g, 2 * d, mode)) ** 2

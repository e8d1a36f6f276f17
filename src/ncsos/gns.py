"""GNS construction: from a positive block-Hankel functional to a concrete
finite-dimensional operator tuple and representing vector.

A functional phi on polynomials of degree <= 2D is stored through k x k
blocks S_u with phi(P u) = Tr(S_u P) and the Hermitian structure
S_{u*} = S_u^dagger.  The blocks are one stack on the degree-D word-pair
table (gram.constraint_index): block c is S_u for the product word
u = products[c], and the quotient matrix, with (v, w) block S_{v* w}^T, is
the stack indexed by the table with each block transposed in place.

Positivity of phi on squares with matrix coefficients is equivalent to
positive semidefiniteness of the quotient matrix, and the Hermitian
structure to its (v, w) blocks being the adjoints of its (w, v) blocks.  The
quotient space is realized on that matrix; with the left-Kronecker
evaluation convention the reproducing identity

    phi(q* p) = <p(Y) gamma, q(Y) gamma>

then holds exactly, with <a, b> = b^dagger a.

The model lives on the whole quotient space, in both modes; the dual
builds it from the functional of the one Gram system a decision solves,
on the words of its table's identity row.  For each letter y the shift
frame_w -> frame_{y w}, over the words w whose y w is listed
(words.suffix_table, words.left_shift), is read off one SVD of its domain
frames: their span's basis, its complement, and the least-squares shift.
The two constructions differ only in how they complete that map to an
operator: in monoid mode the symmetric shift is completed to a
self-adjoint operator, in group mode the partial isometry to a unitary by
the polar factor between the orthocomplements, whichever bases the SVDs
return for them.  At D = 0 every shift has an empty domain, and the
completions give the zero tuple and the identity unitaries.

gns_verify checks that identity exactly rather than on sampled
coefficients.  With Gamma = unvec(gamma) and the word images
Z_w = Y^w Gamma (poly.word_images), a monomial P w acts as
p(Y) gamma = vec(Z_w P^T), so the identity for the monomial pair (v, w) and
every coefficient pair at once is the k x k block equation
S_{v*w}^T = Z_v^dagger Z_w.  The reported residual is 2 k^2 times the
largest operator-norm defect of those blocks: the worst scalar defect over
coefficient pairs P, Q of Frobenius norm sqrt(2) k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gram import EPS_PSD
from .poly import EPS_HERM, OperatorTuple, opnorm, word_images
from .words import GROUP, MONOID, left_shift, suffix_table

EPS_NULL = 1e-10       # relative eigenvalue cutoff for the quotient
SPAN_RTOL = 1e-9       # relative rank cutoff for subspace bases
FIT_TOL = 1e-8         # well-definedness proxy for the generator action


class GnsError(ValueError):
    pass


@dataclass
class HankelFunctional:
    """phi(P u) = Tr(S_u P), stored on a word-pair table index =
    (products, table), constraint_index(g, D, mode) for a functional on
    |u| <= 2D: blocks is the (len(products), k, k) stack whose block c is S_u
    for u = products[c], and the table fixes the basis, products[:len(table)]."""

    g: int
    mode: str
    k: int
    index: tuple
    blocks: np.ndarray

    def __post_init__(self):
        self.blocks = np.asarray(self.blocks, dtype=complex)
        want = (len(self.index[0]), self.k, self.k)
        if self.blocks.shape != want:
            raise GnsError(f"block stack has shape {self.blocks.shape}, want {want}")
        if not np.isfinite(self.blocks).all():
            raise GnsError("functional blocks must be finite")

    def validate(self):
        """Refuse a quotient matrix K that is not psd within EPS_PSD, or with a
        k x k block of K - K^dagger, S_u^T - conj(S_{u*}), of norm above EPS_HERM."""
        K = quotient_matrix(self)
        defect = _largest_block_norm(K - K.conj().T, self.k)
        if not defect <= EPS_HERM:
            raise GnsError(f"Hermitian block structure violated (defect {defect:.3e})")
        lo = float(np.linalg.eigvalsh(K).min())
        if not lo >= -EPS_PSD:
            raise GnsError(f"assembled functional is not psd (min eigenvalue {lo:.3e})")


def quotient_matrix(S: HankelFunctional) -> np.ndarray:
    """The matrix with (v, w) block S_{v* w}^T over the degree-D word basis,
    read off the block stack: its psd-ness expresses positivity on
    matrix-coefficient squares, and the quotient space is built on it."""
    table = S.index[1]
    n, k = len(table), S.k
    return S.blocks[table].transpose(0, 3, 1, 2).reshape(n * k, n * k)


def _largest_block_norm(E: np.ndarray, k: int) -> float:
    """The largest operator norm of the k x k blocks of a square matrix."""
    return float(np.linalg.norm(E.reshape(len(E) // k, k, -1, k), ord=2, axis=(1, 3)).max())


def vec(T) -> np.ndarray:
    """Stack a map C^k -> C^m (an m x k matrix) into C^k (x) C^m.

    Component (delta, j) equals T[j, delta]; satisfies
    vdot(vec(A), vec(B)) = Tr(A^dagger B).
    """
    T = np.atleast_2d(np.asarray(T, dtype=complex))
    return T.T.reshape(-1).copy()


def unvec(x: np.ndarray, k: int) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    m = x.size // k
    return x.reshape(k, m).T


@dataclass
class WitnessModel:
    """Concrete model: tuple on C^dim and vector gamma reproducing the
    functional as phi(p) = <p(Y) gamma, gamma>.  The tuple fixes the mode and
    dim, the functional k."""

    operators: OperatorTuple
    gamma: np.ndarray
    functional: HankelFunctional
    gns_residual: float | None = None  # gns_verify value, set by the caller that gates on it

    @property
    def dim(self) -> int:
        return self.operators.dim


def _quotient_frames(S: HankelFunctional):
    """Eigenfactor the quotient matrix: columns of the returned W give the
    images of the canonical basis tuples in the quotient space C^rank."""
    K = quotient_matrix(S)
    evals, evecs = np.linalg.eigh(K)
    if not evals.min() >= -EPS_PSD:
        raise GnsError(f"functional is not psd (min eigenvalue {evals.min():.3e})")
    top = float(evals.max(initial=0.0))
    if top <= 0.0:
        raise GnsError("zero functional admits no model")
    keep = evals > EPS_NULL * top
    W = (np.sqrt(evals[keep])[:, None] * evecs[:, keep].conj().T)
    return W  # rank x (N(D) k)


def _blocks(frames: np.ndarray, k: int, words: np.ndarray) -> np.ndarray:
    """The frame column blocks of the given word indices, side by side."""
    return frames[:, (k * words[:, None] + np.arange(k)).ravel()]


def _model(S: HankelFunctional, mode: str, complete) -> WitnessModel:
    """The model on the whole quotient space C^rank, over the words of the
    identity's row of S's table.  For each letter y the shift
    frame_w -> frame_{y w}, over the words w whose y w is listed
    (words.left_shift), is read off one SVD G_dom = U s V* of its domain
    frames, with its fit residual checked, and complete(B, T, C) extends it
    to the letter's operator: B and C are the left singular vectors above
    and below SPAN_RTOL times the largest, and T = G_tgt V s^-1 = Y B."""
    if S.mode != mode:
        raise GnsError(f"expected a {mode}-mode functional, got {S.mode}")
    k = S.k
    head, tail = suffix_table(S.index[0][:len(S.index[1])])
    frames = _quotient_frames(S)

    def operator(y: int) -> np.ndarray:
        shift = left_shift(head, tail, y)
        dom = np.flatnonzero(shift >= 0)
        G_dom, G_tgt = _blocks(frames, k, dom), _blocks(frames, k, shift[dom])
        U, s, Vh = np.linalg.svd(G_dom)
        e = int(np.count_nonzero(s > SPAN_RTOL * s.max(initial=0.0)))
        T = G_tgt @ Vh[:e].conj().T / s[:e]
        residual = float(np.linalg.norm(T @ (s[:e, None] * Vh[:e]) - G_tgt))
        if not residual <= FIT_TOL:
            raise GnsError(f"shift action is not well defined numerically "
                           f"(fit residual {residual:.3e})")
        return complete(U[:, :e], T, U[:, e:])

    operators = OperatorTuple(mode, [operator(i) for i in range(1, S.g + 1)])
    return WitnessModel(operators, vec(frames[:, 0:k]), S)


def gns_construct(S: HankelFunctional) -> WitnessModel:
    """Monoid-mode model from a functional of degree D >= 0: a g-tuple of
    self-adjoint operators on the whole quotient space.

    The shift by x_i, from the span of the words of length <= D-1 into the
    model space, is symmetric, <Y b, b'> = <b, Y b'> on its domain, since
    x_i* = x_i.  So with M the Hermitian part of B* T,
    Y_i = T B* + B T* - B M B* is self-adjoint and agrees with the shift on
    its domain: Y_i B = T + B (T* B - B* T) / 2.
    """
    def complete(B, T, C):
        M = (B.conj().T @ T + T.conj().T @ B) / 2
        A = (T - B @ M / 2) @ B.conj().T
        return A + A.conj().T  # T B* + B T* - B M B*, Hermitian to the last bit

    return _model(S, MONOID, complete)


def gns_construct_unitary(S: HankelFunctional) -> WitnessModel:
    """Group-mode model from a functional of degree D >= 0: a g-tuple of
    unitaries on the whole quotient space, x_i^-1 acting as U_i*.

    The shift by a letter y is isometric between the subspaces spanned by
    tuples supported on words of length <= D-1 extended by y^-1 resp. y; it
    is extended to a unitary on the two orthocomplements, mirroring the
    free-group Fock construction.  T spans the codomain, so T's trailing
    left singular vectors are its complement C_cod.  With
    C_cod* C_dom = P Sigma Q*, the extension C_cod (P Q*) C_dom* is the one
    nearest the identity, whichever bases the SVDs return, as long as
    C_cod* C_dom is invertible.  U_i* maps frame_{x_i w} back to frame_w,
    and the domain and codomain of x_i^-1 are those of x_i swapped, so U_i*
    is the unitary of x_i^-1.
    """
    def complete(B_dom, T, C_dom):
        iso_defect = opnorm(T.conj().T @ T - np.eye(T.shape[1]))
        if not iso_defect <= FIT_TOL:
            raise GnsError(f"letter shift is not isometric (defect {iso_defect:.3e})")
        C_cod = np.linalg.svd(T)[0][:, T.shape[1]:]
        P, _, Qh = np.linalg.svd(C_cod.conj().T @ C_dom)
        return T @ B_dom.conj().T + C_cod @ (P @ Qh) @ C_dom.conj().T

    return _model(S, GROUP, complete)


def gns_verify(S: HankelFunctional, model: WitnessModel) -> float:
    """Largest defect |Tr(S_{v*w} Q^dagger P) - <p(Y)gamma, q(Y)gamma>| of the
    reproducing identity, p = P w and q = Q v, over every pair of basis
    monomials of degree <= D, in both modes, and every pair of coefficients
    P, Q of Frobenius norm sqrt(2) k.

    With Z_w = Y^w Gamma the inner product is Tr(Z_v^dagger Z_w P^T conj(Q)),
    so the defect is Tr(E P^T conj(Q)) with E = S_{v*w}^T - Z_v^dagger Z_w, and
    its maximum over the coefficient pairs is 2 k^2 ||E||_op.  All blocks come
    from one Gram product of the stacked word images.  The norm sqrt(2) k is
    the root-mean-square size of a k x k matrix with standard complex
    Gaussian entries.
    """
    k = S.k
    Z = word_images(model.operators, S.index[0][:len(S.index[1])], unvec(model.gamma, k))
    return 2 * k * k * _largest_block_norm(quotient_matrix(S) - Z.conj().T @ Z, k)


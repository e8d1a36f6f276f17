"""GNS construction: from a positive block-Hankel functional to a concrete
finite-dimensional operator tuple and representing vector.

A functional phi on polynomials of degree <= 2D is stored through k x k
blocks S_u with phi(P u) = Tr(S_u P) and the Hermitian structure
S_{u*} = S_u^dagger.  The assembled matrix has (v, w) block S_{v* w}.

Positivity of phi on squares with matrix coefficients is equivalent to
positive semidefiniteness of the assembled matrix with every block
transposed in place (for scalar blocks the two matrices coincide).  The
quotient space is realized on that transposed matrix; with the left-Kronecker
evaluation convention the reproducing identity

    phi(q* p) = <p(Y) gamma, q(Y) gamma>

then holds exactly, with <a, b> = b^dagger a.

The model's operators are compressions of the left shift.  Every basis,
shift and complement comes from a numpy factorization: _span_basis (an SVD)
spans the generators, _fit_action (least squares) fits the shift on them,
and in group mode each letter's partial isometry is completed to a unitary
on the orthocomplements, the trailing left singular vectors of the bases.

gns_verify checks that identity exactly rather than on sampled
coefficients.  With Gamma = unvec(gamma) and the word images
Z_w = Y^w Gamma, a monomial P w acts as p(Y) gamma = vec(Z_w P^T), so the
identity for the monomial pair (v, w) and every coefficient pair at once is
the k x k block equation S_{v*w}^T = Z_v^dagger Z_w.  The reported residual
is 2 k^2 times the largest operator-norm defect of those blocks: the worst
scalar defect over coefficient pairs P, Q of Frobenius norm sqrt(2) k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gram import EPS_PSD, constraint_index
from .poly import NCPoly, OperatorTuple, opnorm, word_eval
from .words import GROUP, MONOID, Word, concat, count_words, enumerate_words, involute

EPS_NULL = 1e-10       # relative eigenvalue cutoff for the quotient
SPAN_RTOL = 1e-9       # relative rank cutoff for subspace bases
FIT_TOL = 1e-8         # well-definedness proxy for the generator action


class GnsError(ValueError):
    pass


class ZeroFunctionalError(GnsError):
    pass


@dataclass
class HankelFunctional:
    """Blocks u -> S_u for |u| <= 2D encoding phi(P u) = Tr(S_u P)."""

    g: int
    mode: str
    k: int
    D: int
    blocks: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for u, S in self.blocks.items():
            S = np.asarray(S, dtype=complex)
            if S.shape != (self.k, self.k):
                raise GnsError(f"block for {u!r} has shape {S.shape}, want {(self.k, self.k)}")
            if len(u) > 2 * self.D:
                raise GnsError(f"block word {u!r} exceeds degree {2 * self.D}")
            clean[u] = S
        self.blocks = clean

    def block(self, u: Word) -> np.ndarray:
        try:
            return self.blocks[u]
        except KeyError:
            raise GnsError(f"missing block for word {u!r} (outside the stored support)") from None

    def phi(self, p: NCPoly) -> complex:
        """phi(p) = sum_u Tr(S_u P_u)."""
        total = 0.0 + 0.0j
        for u, P in p.terms.items():
            total += np.trace(self.block(u) @ P)
        return complex(total)

    def structure_defect(self) -> float:
        """max || S_{u*} - S_u^dagger ||."""
        worst = 0.0
        for u, S in self.blocks.items():
            other = self.blocks.get(involute(u))
            if other is None:
                raise GnsError(f"block for {involute(u)!r} is missing")
            worst = max(worst, opnorm(other - S.conj().T))
        return worst

    def validate(self):
        defect = self.structure_defect()
        if defect > 1e-9:
            raise GnsError(f"Hermitian block structure violated (defect {defect:.3e})")
        K = quotient_matrix(self)
        lo = float(np.linalg.eigvalsh(K).min())
        if lo < -EPS_PSD:
            raise GnsError(f"assembled functional is not psd (min eigenvalue {lo:.3e})")


def assemble(S: HankelFunctional) -> np.ndarray:
    """The Hermitian matrix with (v, w) block S_{involute(v) w} over the
    degree-D word basis."""
    products, table = constraint_index(S.g, S.D, S.mode)
    n, k = len(table), S.k
    blocks = np.array([S.block(u) for u in products])[table]
    return blocks.transpose(0, 2, 1, 3).reshape(n * k, n * k)


def quotient_matrix(S: HankelFunctional) -> np.ndarray:
    """assemble(S) with each k x k block transposed in place; this is the
    matrix whose psd-ness expresses positivity on matrix-coefficient squares
    and on which the quotient space is built."""
    H = assemble(S)
    k = S.k
    n = H.shape[0] // k
    return H.reshape(n, k, n, k).transpose(0, 3, 2, 1).reshape(n * k, n * k)


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
    functional as phi(p) = <p(Y) gamma, gamma>."""

    mode: str
    k: int
    d: int
    dim: int
    operators: OperatorTuple
    gamma: np.ndarray
    functional: HankelFunctional
    frames: np.ndarray      # dim x (N(D) k); column block w holds the map for word w
    gns_residual: float | None = None  # gns_verify value, set by the caller that gates on it

    def frame(self, word_index: int) -> np.ndarray:
        return self.frames[:, word_index * self.k:(word_index + 1) * self.k]


def _quotient_frames(S: HankelFunctional):
    """Eigenfactor the quotient matrix: columns of the returned W give the
    images of the canonical basis tuples in the quotient space C^rank."""
    K = quotient_matrix(S)
    evals, evecs = np.linalg.eigh(K)
    if evals.min() < -EPS_PSD:
        raise GnsError(f"functional is not psd (min eigenvalue {evals.min():.3e})")
    top = float(evals.max(initial=0.0))
    if top <= 0.0:
        raise ZeroFunctionalError("zero functional admits no model")
    keep = evals > EPS_NULL * top
    W = (np.sqrt(evals[keep])[:, None] * evecs[:, keep].conj().T)
    return W  # rank x (N(D) k)


def _span_basis(cols: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the column span (SVD): the left
    singular vectors whose singular values exceed SPAN_RTOL times the largest."""
    if cols.size == 0:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    U, s, _ = np.linalg.svd(cols, full_matrices=False)
    if s[0] == 0.0:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    return U[:, s > SPAN_RTOL * s[0]]


def gns_construct(S: HankelFunctional) -> WitnessModel:
    """Monoid-mode model from a functional with D = d + 1.

    The quotient space is cut down to the span of tuples supported in degree
    <= d; each Y_i is the compression of the left shift, fit on the degree
    <= d generators by least squares with the fit residual checked.
    """
    if S.mode != MONOID:
        raise GnsError("use gns_construct_unitary for group-mode functionals")
    if S.D < 1:
        raise GnsError("need functional degree D >= 1")
    d = S.D - 1
    k = S.k
    words = enumerate_words(S.g, S.D, MONOID)
    idx = {w: i for i, w in enumerate(words)}
    n_low = count_words(S.g, d, MONOID)

    W = _quotient_frames(S)
    low_cols = W[:, :n_low * k]       # graded order puts degree <= d first
    B = _span_basis(low_cols)
    e = B.shape[1]
    if e == 0:
        raise ZeroFunctionalError("functional is zero on degree <= d; no model")

    frames = B.conj().T @ W           # e x (N(D) k)
    C = frames[:, :n_low * k]
    ys = []
    fit_residual = 0.0
    for i in range(1, S.g + 1):
        target_cols = []
        for w in words[:n_low]:
            shifted = Word(MONOID, S.g, (i,) + w.letters)
            jj = idx[shifted]
            target_cols.append(frames[:, jj * k:(jj + 1) * k])
        T = np.hstack(target_cols)
        Yi, res = _fit_action(C, T)
        fit_residual = max(fit_residual, res)
        ys.append(Yi)
    if fit_residual > FIT_TOL:
        raise GnsError(f"shift action is not well defined numerically "
                       f"(fit residual {fit_residual:.3e})")

    gamma = vec(frames[:, 0:k])
    operators = OperatorTuple(MONOID, ys)
    return WitnessModel(mode=MONOID, k=k, d=d, dim=e, operators=operators,
                        gamma=gamma, functional=S, frames=frames)


def _fit_action(C: np.ndarray, T: np.ndarray):
    """Least-squares Y with Y C = T; returns (Y, fit residual)."""
    sol, *_ = np.linalg.lstsq(C.T, T.T, rcond=None)
    Y = sol.T
    res = float(np.linalg.norm(Y @ C - T))
    return Y, res


def gns_construct_unitary(S: HankelFunctional) -> WitnessModel:
    """Group-mode model from a functional with D = d: a 2g-tuple of unitaries.

    The shift by a letter y is isometric between the subspaces spanned by
    tuples supported on words of length <= d-1 extended by y^-1 resp. y; it
    is extended to a unitary by matching orthonormal bases of the two
    orthocomplements, mirroring the free-group Fock construction.  The
    frames span the whole quotient space, so the complements are taken in
    all of C^rank.
    """
    if S.mode != GROUP:
        raise GnsError("gns_construct_unitary expects a group-mode functional")
    d = S.D
    if d < 1:
        raise GnsError("need functional degree D >= 1")
    k = S.k
    words = enumerate_words(S.g, d, GROUP)
    idx = {w: i for i, w in enumerate(words)}
    cols = np.arange(len(words) * k).reshape(len(words), k)  # frame columns of each word

    frames = _quotient_frames(S)  # the whole quotient space is the model space

    def unitary_for(y: int) -> np.ndarray:
        # generators of the domain and codomain of the letter-y shift
        dom = [w for w in words if len(w) < d or w.letters[0] == -y]
        cod = [w for w in words if len(w) < d or w.letters[0] == y]
        shift = Word(GROUP, S.g, (y,))
        G_dom, G_tgt, G_cod = (frames[:, cols[[idx[w] for w in ws]].ravel()]
                               for ws in (dom, [concat(shift, w) for w in dom], cod))
        B_dom, B_cod = _span_basis(G_dom), _span_basis(G_cod)
        T_dom = _fit_action(G_dom, G_tgt)[0] @ B_dom
        iso_defect = opnorm(T_dom.conj().T @ T_dom - np.eye(T_dom.shape[1]))
        if iso_defect > FIT_TOL:
            raise GnsError(f"letter shift is not isometric (defect {iso_defect:.3e})")
        e = B_dom.shape[1]
        if e != B_cod.shape[1]:
            raise GnsError("domain and codomain subspaces have different dimensions")
        C_dom = np.linalg.svd(B_dom, full_matrices=True)[0][:, e:]
        C_cod = np.linalg.svd(B_cod, full_matrices=True)[0][:, e:]
        return T_dom @ B_dom.conj().T + C_cod @ C_dom.conj().T

    entries = [unitary_for(i) for i in range(1, S.g + 1)]
    # U_i* maps frame_{x_i w} back to frame_w, and the domain and codomain of
    # x_i^-1 are those of x_i swapped, so U_i* is the unitary of x_i^-1
    inverses = [U.conj().T for U in entries]
    operators = OperatorTuple(GROUP, entries, inverses=inverses)

    gamma = vec(frames[:, 0:k])
    return WitnessModel(mode=GROUP, k=k, d=d, dim=frames.shape[0], operators=operators,
                        gamma=gamma, functional=S, frames=frames)


def _word_images(model: WitnessModel, words: list) -> np.ndarray:
    """The images Z_w = Y^w Gamma, Gamma = unvec(gamma), side by side: column
    block j holds Z_{words[j]}.

    Each image is one product with the image of its suffix,
    Z_{a w'} = Y_a Z_{w'}; `words` must be graded (every suffix listed
    before its word), as enumerate_words returns them.
    """
    k = model.k
    Y = model.operators
    letters = {a + 1: X for a, X in enumerate(Y.entries)}
    if model.mode == GROUP:
        letters.update({-(a + 1): X for a, X in enumerate(Y.inverse_entries())})
    Z = np.empty((model.dim, len(words) * k), dtype=complex)
    pos = {}
    for j, w in enumerate(words):
        if w.letters:
            i = pos[w.letters[1:]]
            Z[:, j * k:(j + 1) * k] = letters[w.letters[0]] @ Z[:, i * k:(i + 1) * k]
        else:
            Z[:, j * k:(j + 1) * k] = unvec(model.gamma, k)
        pos[w.letters] = j
    return Z


def gns_verify(S: HankelFunctional, model: WitnessModel) -> float:
    """Largest defect |Tr(S_{v*w} Q^dagger P) - <p(Y)gamma, q(Y)gamma>| of the
    reproducing identity, p = P w and q = Q v, over every basis monomial pair
    (|v| <= d, |w| <= d + 1 in monoid mode, d in group mode) and every pair
    of coefficients P, Q of Frobenius norm sqrt(2) k.

    With Z_w = Y^w Gamma the inner product is Tr(Z_v^dagger Z_w P^T conj(Q)),
    so the defect is Tr(E P^T conj(Q)) with E = S_{v*w}^T - Z_v^dagger Z_w, and
    its maximum over the coefficient pairs is 2 k^2 ||E||_op.  All blocks come
    from one Gram product of the stacked word images.  The norm sqrt(2) k is
    the root-mean-square size of a k x k matrix with standard complex
    Gaussian entries.
    """
    k = model.k
    ws = enumerate_words(S.g, S.D, model.mode)  # degree d + 1 (monoid) or d (group)
    n_v = count_words(S.g, model.d, model.mode)
    Z = _word_images(model, ws)
    M = Z[:, :n_v * k].conj().T @ Z
    # rows v of degree <= d of the matrix with (v, w) block S_{v*w}^T
    E = quotient_matrix(S)[:n_v * k] - M
    blocks = E.reshape(n_v, k, len(ws), k).transpose(0, 2, 1, 3)
    return 2 * k * k * float(np.linalg.norm(blocks, ord=2, axis=(2, 3)).max())


def functional_from_model(X: OperatorTuple, frame: np.ndarray, g: int,
                          D: int, mode: str) -> HankelFunctional:
    """Blocks of the state phi(p) = <p(X) vec(frame), vec(frame)>.

    Tr(S_u P) must equal vdot(vec(frame), kron(P, X^u) vec(frame)), which
    pins S_u = (frame^dagger X^u frame)^T; the transposed-block assembly is
    then a Gram matrix, hence psd.
    """
    frame = np.atleast_2d(np.asarray(frame, dtype=complex))
    k = frame.shape[1]
    blocks = {}
    for u in enumerate_words(g, 2 * D, mode):
        blocks[u] = (frame.conj().T @ word_eval(u, X) @ frame).T
    return HankelFunctional(g=g, mode=mode, k=k, D=D, blocks=blocks)


def shift_defect(model: WitnessModel) -> float:
    """max || (I_k (x) Y^w) gamma - vec(frame of w) || over the stored words."""
    S = model.functional
    words = enumerate_words(S.g, S.D, S.mode)
    Z = _word_images(model, words)
    k = model.k
    return max(float(np.linalg.norm(Z[:, j * k:(j + 1) * k] - model.frame(j)))
               for j in range(len(words)))

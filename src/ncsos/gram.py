"""Gram representations p = V_d^dagger G V_d and their psd factorizations.

G is Hermitian of size (N*k) x (N*k), indexed blockwise by the degree-d word
basis (word-major layout: block (v, w) sits at rows v*k..(v+1)*k).  The word
u coefficient of the represented polynomial is the sum of blocks G_{v,w} over
all basis pairs with involute(v)*w = u; factoring a psd G column-group-wise
yields square factors r_j with p = sum_j r_j^* r_j.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .poly import NCPoly, opnorm
from .words import Word, count_words, enumerate_words, all_factorizations

EPS_PSD = 1e-8
EPS_RANK = 1e-10
EPS_CERT = 1e-7


class GramError(ValueError):
    pass


def constraint_index(g: int, d: int, mode: str) -> dict[Word, list[tuple[int, int]]]:
    """Map each product word u to the basis index pairs (v, w) with v* w = u.

    Every (v, w) pair over the degree-d basis appears in exactly one list.
    """
    words = enumerate_words(g, d, mode)
    classes: dict[Word, list[tuple[int, int]]] = {}
    seen = 0
    for u in _product_words(g, d, mode):
        pairs = list(all_factorizations(u, words))
        if pairs:
            classes[u] = pairs
            seen += len(pairs)
    n = len(words)
    if seen != n * n:
        raise GramError("factorization classes do not partition the index pairs")
    return classes


def _product_words(g: int, d: int, mode: str):
    # candidate products have length at most 2d in either mode
    return enumerate_words(g, 2 * d, mode)


@dataclass
class GramMatrix:
    g: int
    mode: str
    d: int
    k: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        n = count_words(self.g, self.d, self.mode) * self.k
        if self.matrix.shape != (n, n):
            raise GramError(f"Gram matrix has shape {self.matrix.shape}, want {(n, n)}")
        if opnorm(self.matrix - self.matrix.conj().T) > 1e-10:
            raise GramError("Gram matrix is not Hermitian")

    @property
    def n_words(self) -> int:
        return count_words(self.g, self.d, self.mode)

    def block(self, v: int, w: int) -> np.ndarray:
        k = self.k
        return self.matrix[v * k:(v + 1) * k, w * k:(w + 1) * k]


@dataclass
class SOSCertificate:
    gram: GramMatrix
    factors: list = field(default_factory=list)  # NCPoly squares of degree <= d
    residual: float = 0.0

    def reconstruction(self) -> NCPoly:
        out = NCPoly.zero(self.gram.g, self.gram.mode, self.gram.k)
        for r in self.factors:
            out = out + r.adjoint() * r
        return out


def gram_to_poly(G: GramMatrix) -> NCPoly:
    """p = V_d^* G V_d: coefficient P_u = sum of blocks over the class of u."""
    classes = constraint_index(G.g, G.d, G.mode)
    terms = {}
    for u, pairs in classes.items():
        c = sum(G.block(v, w) for v, w in pairs)
        terms[u] = c
    return NCPoly(G.g, G.mode, G.k, terms)


def factor_gram(G: GramMatrix, eps_rank: float = EPS_RANK) -> SOSCertificate:
    """Eigendecompose G, clip below eps_rank, split columns into k-wide groups.

    The column groups realize the splitting of a psd map into N rank-<=k
    pieces; each group yields one square factor r_j of degree <= d.
    """
    H = (G.matrix + G.matrix.conj().T) / 2
    evals, evecs = np.linalg.eigh(H)
    if evals.min() < -EPS_PSD:
        raise GramError(f"Gram matrix is not psd (min eigenvalue {evals.min():.3e})")
    clipped = np.where(evals > eps_rank, evals, 0.0)
    R = evecs * np.sqrt(clipped)

    words = enumerate_words(G.g, G.d, G.mode)
    k = G.k
    factors = []
    for j in range(G.n_words):
        Rj = R[:, j * k:(j + 1) * k]  # (N*k) x k, a map C^k -> C^{N*k}
        if np.linalg.norm(Rj) <= eps_rank:
            continue
        coeffs = {}
        for v, w in enumerate(words):
            coeffs[w] = Rj[v * k:(v + 1) * k, :].conj().T  # block of R_j^*
        factors.append(NCPoly(G.g, G.mode, k, coeffs))

    target = gram_to_poly(G)
    recon = NCPoly.zero(G.g, G.mode, G.k)
    for r in factors:
        recon = recon + r.adjoint() * r
    diff = recon - target
    residual = max((opnorm(c) for c in diff.terms.values()), default=0.0)
    return SOSCertificate(gram=G, factors=factors, residual=residual)

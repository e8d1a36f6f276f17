"""Gram representations p = V_d^dagger G V_d and their psd factorizations.

G is Hermitian of size (N*k) x (N*k), indexed blockwise by the degree-d word
basis (word-major layout: block (v, w) sits at rows v*k..(v+1)*k).  Basis pair
(v, w) contributes to exactly one coefficient, that of the word involute(v) w.
constraint_index writes this map down once, as an N x N table of product-word
indices; the word u coefficient of the represented polynomial is the sum of
the blocks G_{v,w} in u's class of that table (block_sums), and the same table
describes the Hankel matrices of the dual side.  Factoring a psd G
column-group-wise yields square factors r_j with p = sum_j r_j^* r_j.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .poly import NCPoly, opnorm
from .words import Word, concat, count_words, enumerate_words, involute

EPS_PSD = 1e-8    # psd tolerance of the Gram factorization, the GNS quotient and the gates
EPS_RANK = 1e-10
EPS_CERT = 1e-7


class GramError(ValueError):
    pass


def constraint_index(g: int, d: int, mode: str) -> tuple[list[Word], np.ndarray]:
    """The block structure of the degree-d basis: (products, table).

    table[v, w] is the index in products of the word involute(v) w, and
    products lists the distinct product words in order of first appearance
    in a row-major scan of the table, so every basis pair lies in exactly
    one class.
    """
    words = enumerate_words(g, d, mode)
    n = len(words)
    index: dict[Word, int] = {}
    table = np.empty((n, n), dtype=np.intp)
    for i, v in enumerate(words):
        vi = involute(v)
        for j, w in enumerate(words):
            table[i, j] = index.setdefault(concat(vi, w), len(index))
    return list(index), table


def class_labels(table: np.ndarray, k: int) -> np.ndarray:
    """Label of each entry of an (n k) x (n k) block matrix: c k^2 + a k + b
    for entry (v k + a, w k + b) with table[v, w] = c."""
    n = len(table)
    ab = np.arange(k * k).reshape(k, k)
    return (table[:, None, :, None] * k * k + ab[:, None, :]).reshape(n * k, n * k)


def block_sums(X: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Sum of the k x k blocks X_{v,w} over each class of table, as a stack
    indexed by class; each class is summed in increasing v."""
    n = len(table)
    k = X.shape[0] // n
    size = (int(table.max()) + 1) * k * k
    bins = (2 * class_labels(table, k).ravel()[:, None] + np.arange(2)).ravel()
    x = np.ascontiguousarray(X, dtype=complex).ravel()
    return np.bincount(bins, x.view(float), minlength=2 * size).view(complex).reshape(-1, k, k)


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
    products, table = constraint_index(G.g, G.d, G.mode)
    return NCPoly(G.g, G.mode, G.k, dict(zip(products, block_sums(G.matrix, table))))


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

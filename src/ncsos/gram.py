"""Gram representations p = V_d^dagger G V_d and their psd factorizations.

G is Hermitian of size (N*k) x (N*k), indexed blockwise by the degree-d word
basis (word-major layout: block (v, w) sits at rows v*k..(v+1)*k).  Basis pair
(v, w) contributes to exactly one coefficient, that of the word involute(v) w.
constraint_index writes this map down once, as an N x N table of product-word
indices, which a GramMatrix carries as the dual's HankelFunctional does: the
word u coefficient of the represented polynomial is the sum of the blocks
G_{v,w} in u's class of that table (block_sums).  Factoring a psd G
column-group-wise yields square factors r_j with p = sum_j r_j^* r_j; with
the factors stacked into R, the coefficients of that sum are the block sums
of R R^* over the word-pair table of R's rows (SOSCertificate.reconstruction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .poly import NCPoly, PolyError, opnorm
from .words import (
    GROUP, Word, enumerate_words, graded_key, involute, reduce_letters,
)

EPS_PSD = 1e-8    # psd tolerance of the Gram factorization, the GNS quotient and the gates
EPS_RANK = 1e-10
EPS_CERT = 1e-7


class GramError(ValueError):
    pass


def word_pair_table(words: list[Word]) -> tuple[list[Word], np.ndarray]:
    """The block structure of a word list: (products, table).

    table[i, j] is the index in products of the word involute(words[i])
    words[j], and products lists the distinct product words in order of
    first appearance in a row-major scan of the table, so every pair lies in
    exactly one class.
    """
    join = reduce_letters if words and words[0].mode == GROUP else tuple
    index: dict[tuple[int, ...], int] = {}  # keyed by letters: no Word per pair
    rows = [[index.setdefault(join(vi + w.letters), len(index)) for w in words]
            for vi in [involute(v).letters for v in words]]
    products = [Word(words[0].mode, words[0].g, letters) for letters in index]
    return products, np.array(rows, dtype=np.intp).reshape(len(words), len(words))


def mirror_classes(table: np.ndarray) -> np.ndarray:
    """The class of involute(u) for each class u of a word-pair table: the
    pair (w, v) lies in the mirror of the class of (v, w)."""
    mirror = np.empty(int(table.max()) + 1, dtype=np.intp)
    mirror[table] = table.T
    return mirror


def constraint_index(g: int, d: int, mode: str) -> tuple[list[Word], np.ndarray]:
    """The word-pair table of the degree-d basis, in enumerate_words order."""
    return word_pair_table(enumerate_words(g, d, mode))


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
    """G over the degree-d basis, on its word-pair table index =
    (products, table) = constraint_index(g, d, mode)."""

    g: int
    mode: str
    d: int
    k: int
    index: tuple
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        n = len(self.index[1]) * self.k
        if self.matrix.shape != (n, n):
            raise GramError(f"Gram matrix has shape {self.matrix.shape}, want {(n, n)}")
        if opnorm(self.matrix - self.matrix.conj().T) > 1e-10:
            raise GramError("Gram matrix is not Hermitian")


@dataclass
class SOSCertificate:
    gram: GramMatrix
    factors: list = field(default_factory=list)  # the NCPoly r_j of sum_j r_j^* r_j
    residual: float = 0.0

    def reconstruction(self) -> NCPoly:
        """sum_j r_j^* r_j: the block sums of R R^* over the word-pair table
        of the factors' support, with r_j's coefficients conjugate-transposed
        in column group j of R.  The support spans R, not a degree basis, so
        a factor costs what its terms cost, whatever the length of its words."""
        g, mode, k = self.gram.g, self.gram.mode, self.gram.k
        if any((r.g, r.mode, r.k) != (g, mode, k) for r in self.factors):
            raise PolyError("factor does not match the Gram matrix's (g, mode, k)")
        words = sorted(set().union(*(r.words for r in self.factors)), key=graded_key)
        if not words:
            return NCPoly.zero(g, mode, k)
        R = np.stack([r.on(words).conj().transpose(0, 2, 1) for r in self.factors], axis=2)
        R = R.reshape(len(words) * k, len(self.factors) * k)
        products, table = word_pair_table(words)
        return NCPoly(g, mode, k, dict(zip(products, block_sums(R @ R.conj().T, table))))


def gram_to_poly(G: GramMatrix) -> NCPoly:
    """p = V_d^* G V_d: coefficient P_u = sum of blocks over the class of u."""
    products, table = G.index
    return NCPoly(G.g, G.mode, G.k, dict(zip(products, block_sums(G.matrix, table))))


def factor_gram(G: GramMatrix) -> SOSCertificate:
    """Eigendecompose G, clip below EPS_RANK, split columns into k-wide groups.

    The column groups realize the splitting of a psd map into N rank-<=k
    pieces; each group yields one square factor r_j of degree <= d.  The
    certificate's residual is left at 0: the certificate gate of
    certify._refuse_certificate measures the factors against the input.
    """
    H = (G.matrix + G.matrix.conj().T) / 2
    evals, evecs = np.linalg.eigh(H)
    if evals.min() < -EPS_PSD:
        raise GramError(f"Gram matrix is not psd (min eigenvalue {evals.min():.3e})")
    R = evecs * np.sqrt(np.where(evals > EPS_RANK, evals, 0.0))

    words = enumerate_words(G.g, G.d, G.mode)
    n, k = len(words), G.k
    # blocks[j, v] is block (v, j) of R conjugate-transposed: r_j's coefficient of word v
    blocks = R.reshape(n, k, n, k).conj().transpose(2, 0, 3, 1)
    factors = [NCPoly(G.g, G.mode, k, dict(zip(words, Bj)))
               for Bj in blocks if np.linalg.norm(Bj) > EPS_RANK]
    return SOSCertificate(G, factors)

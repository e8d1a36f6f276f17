"""Gram representations p = V_d^dagger G V_d and their psd factorizations.

G is Hermitian of size (N*k) x (N*k), indexed blockwise by the degree-d word
basis (word-major layout: block (v, w) sits at rows v*k..(v+1)*k).  Basis pair
(v, w) contributes to exactly one coefficient, that of the word involute(v) w.
constraint_index writes this map down once, as an N x N table of product-word
indices, which a GramMatrix carries as the dual's HankelFunctional does: the
word u coefficient of the represented polynomial is the sum of the blocks
G_{v,w} in u's class of that table (block_sums).  The solver builds a psd G as
R R^* (FeasibilityResult.root), and column group j of R, conjugate-transposed,
holds the coefficients on the degree-d basis of a square factor r_j.  The
certificate keeps that stack: p = sum_j r_j^* r_j, the block sums of R R^*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import COEFF_DROP_TOL, NCPoly
from .words import enumerate_words, involute

EPS_PSD = 1e-8    # psd tolerance of the GNS quotient and the gates
EPS_CERT = 1e-7


class GramError(ValueError):
    pass


def word_pair_table(words: list[tuple], mode: str) -> tuple[list[tuple], np.ndarray]:
    """The block structure of a word list in enumerate_words order: (products, table).

    table[i, j] is the index in products of the word involute(words[i])
    words[j], and products lists the distinct product words in order of
    first appearance in a row-major scan of the table, so every pair lies in
    exactly one class.  Row 0 lists the basis, row v starts at the basis
    index of v*, and v* w is v* w' one letter on, where w = w' a.
    """
    at = {w: i for i, w in enumerate(words)}
    steps = [(at[w[:-1]], w[-1]) for w in words[1:]]  # (index of w', a) for each w = w' a
    step = {}  # (product, letter): the product one letter on, or its parent by a cancelling letter
    for j, (b, a) in enumerate(steps, 1):
        step[b, a], step[j, -a] = j, b
    products, rows = list(words), [range(len(words))]
    for v in words[1:]:
        row = [at[involute(v, mode)]]
        for b, a in steps:
            c = row[b]  # the product v* w'
            if (c, a) not in step:
                n = len(products)
                step[c, a], step[n, -a] = n, c
                products.append(products[c] + (a,))
            row.append(step[c, a])
        rows.append(row)
    return products, np.array(rows, dtype=np.intp).reshape(len(words), len(words))


def constraint_index(g: int, d: int, mode: str) -> tuple[list[tuple], np.ndarray]:
    """The word-pair table of the degree-d basis, in enumerate_words order."""
    return word_pair_table(enumerate_words(g, d, mode), mode)


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
    """G over a word basis, on its word-pair table index = (products, table),
    constraint_index(g, d, mode) for the degree-d basis: the table fixes the
    basis, whose words are products[:len(table)]."""

    g: int
    mode: str
    k: int
    index: tuple
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        n = len(self.index[1]) * self.k
        if self.matrix.shape != (n, n):
            raise GramError(f"Gram matrix has shape {self.matrix.shape}, want {(n, n)}")
        with np.errstate(over="ignore", invalid="ignore"):  # a difference that overflows is inf
            defect = np.linalg.norm(self.matrix - self.matrix.conj().T)
        if not defect <= 1e-10:  # Frobenius >= spectral
            raise GramError("Gram matrix is not Hermitian")


@dataclass
class SOSCertificate:
    gram: GramMatrix
    factors: np.ndarray  # (J, N, k, k): factors[j, v] is r_j's coefficient of basis word v
    residual: float = 0.0

    def reconstruction(self) -> np.ndarray:
        """The coefficients of sum_j r_j^* r_j, one per product word of the
        Gram matrix's table: the block sums of R R^* over it."""
        table = self.gram.index[1]
        R = self.factors.conj().transpose(1, 3, 0, 2).reshape(len(table) * self.gram.k, -1)
        return block_sums(R @ R.conj().T, table)


def gram_to_poly(G: GramMatrix) -> NCPoly:
    """p = V_d^* G V_d: coefficient P_u = sum of blocks over the class of u."""
    products, table = G.index
    return NCPoly(G.g, G.mode, G.k, dict(zip(products, block_sums(G.matrix, table))))


def factor_gram(G: GramMatrix, R: np.ndarray) -> SOSCertificate:
    """The squares of G = R R^*, R the root the solver built G from: R's
    columns, zero-padded in front to whole groups, split into k-wide groups,
    each one square factor r_j with its blocks at most COEFF_DROP_TOL zeroed.

    The certificate's residual is left at 0: the certificate gate
    certify.refuse_certificate, the one psd test, refuses a G that is not
    psd and measures the factors against the input.
    """
    n, k = len(G.index[1]), G.k
    R = np.pad(R, ((0, 0), (-R.shape[1] % k, 0)))
    # factors[j, v] is block (v, j) of R conjugate-transposed: r_j's coefficient of word v
    factors = R.reshape(n, k, -1, k).conj().transpose(2, 0, 3, 1)
    factors[np.linalg.norm(factors, axis=(2, 3)) <= COEFF_DROP_TOL] = 0
    return SOSCertificate(G, factors)

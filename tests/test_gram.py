import importlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncsos.fock import build_symmetrized, build_unitaries, extract_coeffs, gram_bound_constant
from ncsos import jsonio
from ncsos.certify import refuse_certificate
from ncsos.cli import DataError, _load_factors
from ncsos.gram import (
    GramError, GramMatrix, SOSCertificate, block_sums, constraint_index, factor_gram, gram_to_poly,
    word_pair_table,
)
from ncsos.poly import NCPoly, opnorm, poly_eval, poly_to_json
from ncsos.words import GROUP, MONOID, count_words, enumerate_words, involute, concat


def gram(g, mode, d, k, matrix) -> GramMatrix:
    """The Gram matrix on the degree-d word-pair table."""
    return GramMatrix(g, mode, k, constraint_index(g, d, mode), matrix)


def rand_psd_root(g, mode, d, k, rng):
    """A random psd Gram matrix G = R R* on the degree-d table, and R."""
    n = count_words(g, d, mode) * k
    R = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    return gram(g, mode, d, k, R @ R.conj().T), R


def rand_psd_gram(g, mode, d, k, rng):
    return rand_psd_root(g, mode, d, k, rng)[0]


def pairs_of(products, table, u):
    return np.argwhere(table == products.index(u)).tolist()


def test_constraint_index_monoid_example():
    products, table = constraint_index(2, 1, MONOID)
    words = enumerate_words(2, 1, MONOID)
    u = (1, 2)
    assert pairs_of(products, table, u) == [[words.index((1,)), words.index((2,))]]
    # v* w = empty iff v = w = empty in the monoid
    assert pairs_of(products, table, ()) == [[0, 0]]


def test_constraint_index_group_identity_class():
    products, table = constraint_index(2, 1, GROUP)
    # v^-1 w = empty iff v = w: all five diagonal pairs
    assert pairs_of(products, table, ()) == [[i, i] for i in range(5)]


@pytest.mark.parametrize("g,d,mode", [(2, 1, MONOID), (2, 2, MONOID), (2, 1, GROUP), (1, 2, GROUP)])
def test_constraint_index_partitions(g, d, mode):
    # each pair (v, w) lies in exactly the class its table entry names
    products, table = constraint_index(g, d, mode)
    words = enumerate_words(g, d, mode)
    n = count_words(g, d, mode)
    assert table.dtype == np.intp and table.shape == (n, n)
    for v in range(n):
        for w in range(n):
            assert products[table[v, w]] == concat(involute(words[v], mode), words[w], mode)
    assert len(set(products)) == len(products)
    # products are numbered in order of first appearance in a row-major scan
    first = list(dict.fromkeys(table.ravel().tolist()))
    assert first == list(range(len(products)))


def reference_word_pair_table(words, mode):
    """word_pair_table built directly: every product word hashed, ids in order
    of first appearance in a row-major scan."""
    index = {}
    rows = [[index.setdefault(concat(vi, w, mode), len(index)) for w in words]
            for vi in [involute(v, mode) for v in words]]
    return list(index), np.array(rows, dtype=np.intp).reshape(len(words), len(words))


@pytest.mark.parametrize("mode", [MONOID, GROUP])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_word_pair_table_matches_the_reference(g, mode):
    # degrees up to 8 and the largest whose basis has at most 128 words; the
    # table steps each product one letter on from an earlier one, in group
    # mode back to its parent when the letter cancels, and must give the
    # reference's ids in the reference's order
    fits = lambda d: count_words(g, d, mode) <= 128
    for d in [d for d in itertools.takewhile(fits, itertools.count()) if d <= 8 or not fits(d + 1)]:
        words = enumerate_words(g, d, mode)
        products, table = word_pair_table(words, mode)
        want_products, want_table = reference_word_pair_table(words, mode)
        assert products == want_products
        assert table.dtype == want_table.dtype and np.array_equal(table, want_table)


def test_gram_to_poly_rank_one():
    # r = x1 + x2 gives G = [[0,0,0],[0,1,1],[0,1,1]] over (1, x1, x2)
    G = gram(2, MONOID, 1, 1,
                   np.array([[0, 0, 0], [0, 1, 1], [0, 1, 1]], dtype=complex))
    p = gram_to_poly(G)
    x1, x2 = (NCPoly.monomial((i,), 2, MONOID) for i in (1, 2))
    assert p == x1 * x1 + x1 * x2 + x2 * x1 + x2 * x2


def test_gram_to_poly_identity_and_zero():
    words = enumerate_words(2, 1, MONOID)
    G = gram(2, MONOID, 1, 1, np.eye(3, dtype=complex))
    p = gram_to_poly(G)
    expected = NCPoly.zero(2, MONOID, 1)
    for w in words:
        expected = expected + NCPoly.monomial(involute(w, MONOID), 2) * NCPoly.monomial(w, 2)
    assert p == expected
    Z = gram(2, MONOID, 1, 1, np.zeros((3, 3)))
    assert gram_to_poly(Z) == NCPoly.zero(2, MONOID, 1)


def test_gram_to_poly_linear_and_hermitian(monkeypatch):
    rng = np.random.default_rng(5)
    m1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h1, h2 = (m1 + m1.conj().T), np.diag([1.0, 2.0, 3.0]).astype(complex)
    G1 = gram(2, MONOID, 1, 1, h1)
    G2 = gram(2, MONOID, 1, 1, h2)
    G12 = gram(2, MONOID, 1, 1, h1 + 2 * h2)
    p = gram_to_poly(G12)
    q = gram_to_poly(G1) + 2.0 * gram_to_poly(G2)
    assert p == q
    monkeypatch.setattr(importlib.import_module("ncsos.poly"), "EPS_HERM", 1e-10)
    assert p.is_hermitian()


def test_factor_rank_one():
    R = np.array([[0], [1], [1]], dtype=complex)
    G = gram(2, MONOID, 1, 1, R @ R.conj().T)
    cert = factor_gram(G, R)
    assert cert.factors.shape == (1, 3, 1, 1)
    assert _reconstruction_miss(cert, G) < 1e-10
    c0, c1, c2 = cert.factors[0, :, 0, 0]  # on the basis (1, x1, x2)
    assert c0 == 0 and abs(abs(c1) - 1.0) < 1e-10 and abs(c1 - c2) < 1e-10


def test_factor_identity_g1():
    G = gram(1, MONOID, 1, 1, np.eye(2, dtype=complex))
    cert = factor_gram(G, np.eye(2))
    assert _reconstruction_miss(cert, G) < 1e-10
    assert np.allclose(cert.reconstruction(), block_sums(G.matrix, G.index[1]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("g,mode,d,k", [(2, MONOID, 2, 2), (2, GROUP, 1, 2), (1, GROUP, 2, 1)])
def test_factor_random_psd_roundtrip(g, mode, d, k):
    rng = np.random.default_rng(12)
    for _ in range(5):
        G, R = rand_psd_root(g, mode, d, k, rng)
        cert = factor_gram(G, R)
        assert _reconstruction_miss(cert, G) <= 1e-9
        n = count_words(g, d, mode)
        assert len(cert.factors) <= n and cert.factors.shape[1:] == (n, k, k)
        # re-assembled Gram matches to rounding
        R = np.hstack([_factor_matrix(C, k) for C in cert.factors])
        assert opnorm(R @ R.conj().T - G.matrix) < 1e-8


def _factor_matrix(C, k):
    """Column group of R for the coefficients C of a factor on the basis."""
    out = np.zeros((len(C) * k, k), dtype=complex)
    for v, c in enumerate(C):
        out[v * k:(v + 1) * k, :] = c.conj().T
    return out


def sum_of_squares_reference(factors, g, mode, k):
    """sum_j r_j^* r_j through NCPoly products: the reference reconstruction."""
    out = NCPoly.zero(g, mode, k)
    for r in factors:
        out = out + r.adjoint() * r
    return out


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from([MONOID, GROUP]), g=st.integers(1, 2),
       d=st.integers(0, 2), k=st.integers(1, 2), n_factors=st.integers(0, 3), n_terms=st.integers(1, 6))
def test_reconstruction_matches_ncpoly_products(seed, mode, g, d, k, n_factors, n_terms):
    # sparse factors of degree <= d, summed on the Gram matrix's word-pair table
    from test_poly import rand_poly
    rng = np.random.default_rng(seed)
    factors = [rand_poly(g, mode, k, d, rng, n_terms) for _ in range(n_factors)]
    words = enumerate_words(g, d, mode)
    stack = np.array([r.on(words) for r in factors], dtype=complex).reshape(-1, len(words), k, k)
    n = len(words) * k
    cert = SOSCertificate(gram(g, mode, d, k, np.zeros((n, n))), stack)
    got, want = cert.reconstruction(), sum_of_squares_reference(factors, g, mode, k)
    products = cert.gram.index[0]
    assert set(want.words) <= set(products)
    assert max((opnorm(a - b) for a, b in zip(got, want.on(products))), default=0.0) <= 1e-12


def stored(*factors):
    """The factors as a certificate file holds them."""
    return json.loads(jsonio.dumps([poly_to_json(r) for r in factors]))


# a stored certificate's factors are refused by the reader of spotcheck, the
# one place they enter from outside, before they are stacked on the Gram basis
@pytest.mark.parametrize("mode", [MONOID, GROUP])
def test_reconstruction_refuses_factor_above_the_gram_degree(mode):
    # a factor must fit the degree-d basis the Gram matrix's table is built on
    w = (1, 2)
    G = gram(2, mode, 1, 1, np.eye(count_words(2, 1, mode)))
    with pytest.raises(DataError, match="c.json: a factor of degree above 1 does not fit the Gram basis"):
        _load_factors(stored(NCPoly.constant(1.0, 2, mode), NCPoly.monomial(w, 2, mode)), G, 1, "c.json")


@pytest.mark.parametrize("factor", [NCPoly.constant(np.eye(2), 1), NCPoly.constant(1.0, 2),
                                    NCPoly.constant(1.0, 1, GROUP)], ids=["k", "g", "mode"])
def test_reconstruction_refuses_mismatched_factor(factor):
    G = gram(1, MONOID, 0, 1, np.eye(1))
    with pytest.raises(DataError, match=r"does not match the Gram matrix's \(g, mode, k\)"):
        _load_factors(stored(NCPoly.constant(1.0, 1), factor), G, 0, "c.json")


def _reconstruction_miss(cert, G):
    """max_u ||P_u - F_u|| between sum_j r_j^* r_j and the polynomial of G."""
    got, want = cert.reconstruction(), block_sums(G.matrix, G.index[1])
    return max(opnorm(a - b) for a, b in zip(got, want))


def test_factor_reconstruction_is_the_block_sums():
    # R R^* rebuilds G up to rounding, and its block sums are the reconstruction
    rng = np.random.default_rng(4)
    G, R = rand_psd_root(2, GROUP, 1, 2, rng)
    assert _reconstruction_miss(factor_gram(G, R), G) <= 1e-12


def test_gram_matrix_side_must_fit_its_table():
    # the side is checked against the word-pair table the matrix carries
    with pytest.raises(GramError, match=r"want \(3, 3\)"):
        gram(2, MONOID, 1, 1, np.eye(2))
    with pytest.raises(GramError, match=r"want \(2, 2\)"):
        GramMatrix(2, MONOID, 1, constraint_index(1, 1, MONOID), np.eye(3))


def test_gram_matrix_must_be_hermitian():
    # the off-diagonal pair differs by 2e-10: ||G - G*||_F = 2.8e-10 > 1e-10
    with pytest.raises(GramError, match="^Gram matrix is not Hermitian$"):
        gram(1, MONOID, 1, 1, np.array([[1.0, 0.5], [0.5 + 2e-10, 1.0]]))
    gram(1, MONOID, 1, 1, np.array([[1.0, 0.5], [0.5, 1.0]]))  # the Hermitian pair is accepted


def test_indefinite_gram_is_factored_by_its_psd_part_and_refused_by_the_gate():
    # factor_gram regroups whatever root it is handed, here that of G's psd
    # part; the certificate gate is the one psd test, and refuses the factored G
    G = gram(1, MONOID, 1, 1, np.diag([1.0, -1.0]).astype(complex))
    cert = factor_gram(G, np.array([[1.0], [0.0]]))
    assert cert.factors.shape == (1, 2, 1, 1) and np.abs(cert.factors).ravel().tolist() == [1.0, 0.0]
    f = NCPoly.constant(1.0, 1) - NCPoly.monomial((1, 1), 1)
    note, _, low = refuse_certificate(f, cert)
    assert low == -1.0 and note == "Gram matrix is not psd (min eigenvalue -1.000e+00)"


def test_group_products_stay_short():
    rng = np.random.default_rng(3)
    for _ in range(5):
        G = rand_psd_gram(2, GROUP, 2, 1, rng)
        p = gram_to_poly(G)
        assert p.degree() <= 4


def test_gram_norm_bound_monoid():
    # ||G|| <= N(d)^3 lambda_{2d}^2 ||p(A)|| with the truncation at 2d
    rng = np.random.default_rng(8)
    d = 1
    mu = gram_bound_constant(2, d, MONOID)
    A = build_symmetrized(2, 2 * d)
    for k in (1, 2):
        for _ in range(10):
            G = rand_psd_gram(2, MONOID, d, k, rng)
            p = gram_to_poly(G)
            assert opnorm(G.matrix) <= mu * opnorm(poly_eval(p, A)) + 1e-9


@pytest.mark.parametrize("g,d", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_gram_norm_bound_group(g, d):
    rng = np.random.default_rng(21)
    tau = gram_bound_constant(g, d, GROUP)
    U = build_unitaries(g, d)
    for _ in range(5):
        G = rand_psd_gram(g, GROUP, d, 1, rng)
        p = gram_to_poly(G)
        assert opnorm(G.matrix) <= tau * opnorm(poly_eval(p, U)) + 1e-9


def test_peek_norm_bound_group():
    rng = np.random.default_rng(22)
    d = 2
    words = enumerate_words(2, d, GROUP)
    U = build_unitaries(2, d)
    for _ in range(5):
        from test_poly import rand_poly
        p = rand_poly(2, GROUP, 2, d, rng, n_terms=4)
        E = poly_eval(p, U)
        for block in extract_coeffs(E, 2, d, GROUP).on(words):
            assert opnorm(block) <= opnorm(E) + 1e-12

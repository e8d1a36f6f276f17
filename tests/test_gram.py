import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncsos.fock import (
    FockBasis, build_symmetrized, build_unitaries, coefficient_peek,
    gram_bound_constant, unitary_gram_bound_constant,
)
from ncsos.gram import (
    GramError, GramMatrix, SOSCertificate, constraint_index, factor_gram, gram_to_poly,
)
from ncsos.poly import NCPoly, PolyError, opnorm, poly_eval
from ncsos.words import GROUP, MONOID, Word, count_words, enumerate_words, identity, involute, concat


def gram(g, mode, d, k, matrix) -> GramMatrix:
    """The Gram matrix on the degree-d word-pair table."""
    return GramMatrix(g, mode, d, k, constraint_index(g, d, mode), matrix)


def rand_psd_gram(g, mode, d, k, rng):
    n = count_words(g, d, mode) * k
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return gram(g, mode, d, k, m @ m.conj().T / n)


def pairs_of(products, table, u):
    return np.argwhere(table == products.index(u)).tolist()


def test_constraint_index_monoid_example():
    products, table = constraint_index(2, 1, MONOID)
    words = enumerate_words(2, 1, MONOID)
    u = Word(MONOID, 2, (1, 2))
    assert pairs_of(products, table, u) == [[words.index(Word(MONOID, 2, (1,))),
                                             words.index(Word(MONOID, 2, (2,)))]]
    # v* w = empty iff v = w = empty in the monoid
    assert pairs_of(products, table, identity(2)) == [[0, 0]]


def test_constraint_index_group_identity_class():
    products, table = constraint_index(2, 1, GROUP)
    # v^-1 w = empty iff v = w: all five diagonal pairs
    assert pairs_of(products, table, identity(2, GROUP)) == [[i, i] for i in range(5)]


@pytest.mark.parametrize("g,d,mode", [(2, 1, MONOID), (2, 2, MONOID), (2, 1, GROUP), (1, 2, GROUP)])
def test_constraint_index_partitions(g, d, mode):
    # each pair (v, w) lies in exactly the class its table entry names
    products, table = constraint_index(g, d, mode)
    words = enumerate_words(g, d, mode)
    n = count_words(g, d, mode)
    assert table.dtype == np.intp and table.shape == (n, n)
    for v in range(n):
        for w in range(n):
            assert products[table[v, w]] == concat(involute(words[v]), words[w])
    assert len(set(products)) == len(products)
    # products are numbered in order of first appearance in a row-major scan
    first = list(dict.fromkeys(table.ravel().tolist()))
    assert first == list(range(len(products)))


def test_gram_to_poly_rank_one():
    # r = x1 + x2 gives G = [[0,0,0],[0,1,1],[0,1,1]] over (1, x1, x2)
    G = gram(2, MONOID, 1, 1,
                   np.array([[0, 0, 0], [0, 1, 1], [0, 1, 1]], dtype=complex))
    p = gram_to_poly(G)
    x1, x2 = (NCPoly.monomial(Word(MONOID, 2, (i,))) for i in (1, 2))
    assert p == x1 * x1 + x1 * x2 + x2 * x1 + x2 * x2


def test_gram_to_poly_identity_and_zero():
    words = enumerate_words(2, 1, MONOID)
    G = gram(2, MONOID, 1, 1, np.eye(3, dtype=complex))
    p = gram_to_poly(G)
    expected = NCPoly.zero(2, MONOID, 1)
    for w in words:
        expected = expected + NCPoly.monomial(involute(w)) * NCPoly.monomial(w)
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
    G = gram(2, MONOID, 1, 1,
                   np.array([[0, 0, 0], [0, 1, 1], [0, 1, 1]], dtype=complex))
    cert = factor_gram(G)
    assert len(cert.factors) == 1
    assert _reconstruction_miss(cert, G) < 1e-10
    r = cert.factors[0]
    c1 = r.coeff(Word(MONOID, 2, (1,)))[0, 0]
    c2 = r.coeff(Word(MONOID, 2, (2,)))[0, 0]
    assert abs(abs(c1) - 1.0) < 1e-10 and abs(c1 - c2) < 1e-10


def test_factor_identity_g1():
    G = gram(1, MONOID, 1, 1, np.eye(2, dtype=complex))
    cert = factor_gram(G)
    assert _reconstruction_miss(cert, G) < 1e-10
    assert cert.reconstruction() == gram_to_poly(G)


@pytest.mark.parametrize("g,mode,d,k", [(2, MONOID, 2, 2), (2, GROUP, 1, 2), (1, GROUP, 2, 1)])
def test_factor_random_psd_roundtrip(g, mode, d, k):
    rng = np.random.default_rng(12)
    for _ in range(5):
        G = rand_psd_gram(g, mode, d, k, rng)
        cert = factor_gram(G)
        assert _reconstruction_miss(cert, G) <= 1e-9
        assert len(cert.factors) <= count_words(g, d, mode)
        assert all(r.degree() <= d for r in cert.factors)
        # re-assembled Gram matches to clipping accuracy
        R = np.hstack([_factor_matrix(r, g, mode, d, k) for r in cert.factors])
        assert opnorm(R @ R.conj().T - G.matrix) < 1e-8


def _factor_matrix(r, g, mode, d, k):
    words = enumerate_words(g, d, mode)
    out = np.zeros((len(words) * k, k), dtype=complex)
    for v, w in enumerate(words):
        out[v * k:(v + 1) * k, :] = r.coeff(w).conj().T
    return out


def sum_of_squares_reference(factors, g, mode, k):
    """sum_j r_j^* r_j through NCPoly products: the reference reconstruction."""
    out = NCPoly.zero(g, mode, k)
    for r in factors:
        out = out + r.adjoint() * r
    return out


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from([MONOID, GROUP]), g=st.integers(1, 2),
       d=st.integers(0, 2), above=st.integers(0, 2), k=st.integers(1, 2),
       n_factors=st.integers(0, 3), n_terms=st.integers(1, 6))
def test_reconstruction_matches_ncpoly_products(seed, mode, g, d, above, k, n_factors, n_terms):
    # sparse factors, some of degree above the Gram degree d (which group-mode
    # certificates may carry), summed on the word-pair table of their support
    from test_poly import rand_poly
    rng = np.random.default_rng(seed)
    factors = [rand_poly(g, mode, k, d + above, rng, n_terms) for _ in range(n_factors)]
    n = count_words(g, d, mode) * k
    cert = SOSCertificate(gram(g, mode, d, k, np.zeros((n, n))), factors)
    got, want = cert.reconstruction(), sum_of_squares_reference(factors, g, mode, k)
    words = got.terms.keys() | want.terms.keys()
    assert max((opnorm(got.coeff(u) - want.coeff(u)) for u in words), default=0.0) <= 1e-12


@pytest.mark.parametrize("factor", [NCPoly.constant(np.eye(2), 1), NCPoly.constant(1.0, 2),
                                    NCPoly.constant(1.0, 1, GROUP)], ids=["k", "g", "mode"])
def test_reconstruction_refuses_mismatched_factor(factor):
    cert = SOSCertificate(gram(1, MONOID, 0, 1, np.eye(1)), [NCPoly.constant(1.0, 1), factor])
    with pytest.raises(PolyError):
        cert.reconstruction()


def _reconstruction_miss(cert, G):
    """max_u ||P_u - F_u|| between sum_j r_j^* r_j and the polynomial of G."""
    got, want = cert.reconstruction(), gram_to_poly(G)
    return max(opnorm(got.coeff(u) - want.coeff(u)) for u in got.terms.keys() | want.terms.keys())


def test_factor_reconstruction_is_the_block_sums():
    # R R^* rebuilds G up to clipping, and its block sums are the reconstruction
    rng = np.random.default_rng(4)
    G = rand_psd_gram(2, GROUP, 1, 2, rng)
    assert _reconstruction_miss(factor_gram(G), G) <= 1e-12


def test_gram_matrix_side_must_fit_its_table():
    # the side is checked against the word-pair table the matrix carries
    with pytest.raises(GramError, match=r"want \(3, 3\)"):
        gram(2, MONOID, 1, 1, np.eye(2))
    with pytest.raises(GramError, match=r"want \(2, 2\)"):
        GramMatrix(2, MONOID, 1, 1, constraint_index(1, 1, MONOID), np.eye(3))


def test_factor_rejects_indefinite():
    G = gram(1, MONOID, 1, 1, np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(GramError):
        factor_gram(G)


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
    mu = gram_bound_constant(2, d)
    basis = FockBasis(2, 2 * d, MONOID)
    A = build_symmetrized(basis)
    for k in (1, 2):
        for _ in range(10):
            G = rand_psd_gram(2, MONOID, d, k, rng)
            p = gram_to_poly(G)
            assert opnorm(G.matrix) <= mu * opnorm(poly_eval(p, A)) + 1e-9


@pytest.mark.parametrize("g,d", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_gram_norm_bound_group(g, d):
    rng = np.random.default_rng(21)
    tau = unitary_gram_bound_constant(g, d)
    U = build_unitaries(g, d)
    for _ in range(5):
        G = rand_psd_gram(g, GROUP, d, 1, rng)
        p = gram_to_poly(G)
        assert opnorm(G.matrix) <= tau * opnorm(poly_eval(p, U)) + 1e-9


def test_peek_norm_bound_group():
    rng = np.random.default_rng(22)
    d = 2
    basis = FockBasis(2, d, GROUP)
    U = build_unitaries(2, d)
    for _ in range(5):
        from test_poly import rand_poly
        p = rand_poly(2, GROUP, 2, d, rng, n_terms=4)
        E = poly_eval(p, U)
        for w in basis.words:
            assert opnorm(coefficient_peek(E, basis, 2, w)) <= opnorm(E) + 1e-12

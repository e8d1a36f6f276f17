import numpy as np
import pytest

from ncsos.fock import (
    FockBasis, FockError, build_creation, build_extraction, build_symmetrized,
    build_unitaries, coefficient_peek, extract_coeffs, vacuum_images,
)
from ncsos.poly import NCPoly, opnorm, poly_eval, word_eval
from ncsos.words import GROUP, MONOID, Word, identity

from test_poly import rand_poly


def vacuum_column(dim):
    e = np.zeros(dim, dtype=complex)
    e[0] = 1.0
    return e


def test_creation_g2_l1():
    basis = FockBasis(2, 1, MONOID)  # words: 1, x1, x2
    L1, L2 = build_creation(basis)
    e0, e1, e2 = np.eye(3)
    assert np.array_equal(L1 @ e0, e1)
    assert np.array_equal(L1 @ e1, np.zeros(3))  # |x1| = l, killed
    assert np.array_equal(L1 @ e2, np.zeros(3))
    assert np.array_equal(L2 @ e0, e2)


@pytest.mark.parametrize("g,l", [(2, 2), (3, 2), (2, 3)])
def test_creation_orthogonal_ranges(g, l):
    ls = build_creation(FockBasis(g, l, MONOID))
    for i in range(g):
        for j in range(g):
            if i != j:
                assert np.abs(ls[i].conj().T @ ls[j]).max() == 0.0


@pytest.mark.parametrize("g,l", [(2, 1), (2, 2), (3, 2)])
def test_creation_partial_isometry(g, l):
    basis = FockBasis(g, l, MONOID)
    words = basis.words
    proj = np.diag([1.0 if len(w) < l else 0.0 for w in words])
    for L in build_creation(basis):
        assert np.allclose(L.conj().T @ L, proj)


def test_symmetrized_g2_l1():
    A = build_symmetrized(FockBasis(2, 1, MONOID)).entries
    assert np.array_equal(A[0], np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex))


@pytest.mark.parametrize("g,l", [(1, 3), (2, 2), (3, 2)])
def test_symmetrized_exactly_hermitian(g, l):
    for A in build_symmetrized(FockBasis(g, l, MONOID)).entries:
        assert np.array_equal(A, A.conj().T)


def test_word_in_A_at_vacuum():
    basis = FockBasis(2, 2, MONOID)
    idx = basis.index()
    A = build_symmetrized(basis)
    w = Word(MONOID, 2, (1, 1))
    vec = word_eval(w, A) @ vacuum_column(basis.dim)
    expected = np.zeros(basis.dim, dtype=complex)
    expected[idx[w]] = 1.0
    expected[0] = 1.0  # A^{x1 x1} vacuum = e_{x1x1} + vacuum
    assert np.allclose(vec, expected)


@pytest.mark.parametrize("g,l", [(1, 4), (2, 3), (2, 4)])
def test_faithful_lower_order_support(g, l):
    # A^w vacuum - e_w lives on strictly shorter words
    basis = FockBasis(g, l, MONOID)
    words = basis.words
    idx = basis.index()
    A = build_symmetrized(basis)
    for w in words:
        vec = word_eval(w, A) @ vacuum_column(basis.dim)
        vec[idx[w]] -= 1.0
        for v, coeff in zip(words, vec):
            if len(v) >= len(w):
                assert abs(coeff) < 1e-12


def test_extraction_identity_at_l1():
    ext = build_extraction(FockBasis(2, 1, MONOID))
    assert np.allclose(ext.matrix, np.eye(3))


def test_extraction_g2_l2_entries():
    basis = FockBasis(2, 2, MONOID)
    idx = basis.index()
    ext = build_extraction(basis)
    assert ext.matrix[0, idx[Word(MONOID, 2, (1, 1))]] == 1.0
    assert ext.matrix[0, idx[Word(MONOID, 2, (1, 2))]] == 0.0


@pytest.mark.parametrize("g,l", [(1, 4), (2, 3), (3, 2)])
def test_extraction_triangular_unit_diagonal(g, l):
    ext = build_extraction(FockBasis(g, l, MONOID))
    m = ext.matrix
    assert np.abs(np.tril(m, -1)).max() <= 1e-12
    assert np.abs(np.diag(m) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("g,l", [(1, 4), (2, 3), (3, 2)])
def test_extraction_is_the_vacuum_images(g, l):
    # the columns A^w vacuum have small integer entries, so any evaluation
    # order gives them exactly; the extraction matrix is that matrix itself
    basis = FockBasis(g, l, MONOID)
    A = build_symmetrized(basis)
    expected = np.column_stack([word_eval(w, A) @ vacuum_column(basis.dim) for w in basis.words])
    M = vacuum_images(basis)
    assert M.dtype == expected.dtype and M.tobytes() == expected.tobytes()
    ext = build_extraction(basis)
    assert ext.matrix.tobytes() == expected.tobytes()
    assert ext.inverse.tobytes() == np.linalg.inv(expected).tobytes()
    assert ext.row_sum_bound == float(np.abs(ext.inverse).sum(axis=1).max())


def test_extract_constant_from_identity():
    basis = FockBasis(2, 2, MONOID)
    q = extract_coeffs(np.eye(basis.dim), basis, 1)
    assert q == NCPoly.constant(1.0, 2)


def test_extract_roundtrip_random():
    rng = np.random.default_rng(17)
    basis = FockBasis(2, 4, MONOID)
    A = build_symmetrized(basis)
    ext = build_extraction(basis)
    for _ in range(10):
        q = rand_poly(2, MONOID, 2, 2, rng, n_terms=5)
        E = poly_eval(q, A)
        rec = extract_coeffs(E, basis, 2, ext)
        diff = rec - q
        assert all(opnorm(c) < 1e-10 for c in diff.terms.values())


def test_extract_coefficient_bound_on_sos():
    rng = np.random.default_rng(23)
    basis = FockBasis(2, 2, MONOID)
    A = build_symmetrized(basis)
    ext = build_extraction(basis)
    for _ in range(10):
        r = rand_poly(2, MONOID, 2, 1, rng, n_terms=3)
        q = r.adjoint() * r
        E = poly_eval(q, A)
        rec = extract_coeffs(E, basis, 2, ext)
        bound = ext.row_sum_bound * opnorm(E)
        assert all(opnorm(c) <= bound + 1e-9 for c in rec.terms.values())


def test_extraction_rejects_group_mode():
    with pytest.raises(FockError):
        build_extraction(FockBasis(2, 2, GROUP))
    with pytest.raises(FockError):
        build_creation(FockBasis(2, 2, GROUP))


def test_unitaries_g1_d1_three_cycle():
    U = build_unitaries(1, 1)
    # basis (1, x1, x1^-1): the generator maps vacuum->x1, x1^-1->vacuum, x1->x1^-1
    expected = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    assert np.array_equal(U.entries[0], expected)


@pytest.mark.parametrize("g,d", [(1, 1), (1, 3), (2, 2), (2, 3)])
def test_unitaries_are_unitary(g, d):
    U = build_unitaries(g, d)
    n = U.dim
    for mat in U.entries + U.inverses:
        assert opnorm(mat @ mat.conj().T - np.eye(n)) <= 1e-10


@pytest.mark.parametrize("g,d", [(1, 2), (2, 2), (2, 3)])
def test_unitaries_reach_every_word(g, d):
    # U^w vacuum = e_w for every reduced |w| <= d
    U = build_unitaries(g, d)
    basis = FockBasis(g, d, GROUP)
    idx = basis.index()
    e0 = vacuum_column(basis.dim)
    for w in basis.words:
        vec = word_eval(w, U) @ e0
        expected = np.zeros(basis.dim, dtype=complex)
        expected[idx[w]] = 1.0
        assert np.allclose(vec, expected, atol=1e-12)


def test_peek_roundtrip_random():
    rng = np.random.default_rng(31)
    d = 2
    basis = FockBasis(2, d, GROUP)
    U = build_unitaries(2, d)
    for _ in range(5):
        p = rand_poly(2, GROUP, 2, d, rng, n_terms=5)
        E = poly_eval(p, U)
        for w in basis.words:
            block = coefficient_peek(E, basis, 2, w)
            assert opnorm(block - p.coeff(w)) < 1e-10
            assert opnorm(block) <= opnorm(E) + 1e-12


def test_peek_constant():
    basis = FockBasis(2, 1, GROUP)
    U = build_unitaries(2, 1)
    p = NCPoly.constant(np.eye(2), 2, GROUP)
    E = poly_eval(p, U)
    assert np.allclose(coefficient_peek(E, basis, 2, identity(2, GROUP)), np.eye(2))
    for w in basis.words[1:]:
        assert opnorm(coefficient_peek(E, basis, 2, w)) < 1e-12


def test_peek_rejects_unknown_word():
    basis = FockBasis(2, 1, GROUP)
    U = build_unitaries(2, 1)
    E = poly_eval(NCPoly.constant(1.0, 2, GROUP), U)
    with pytest.raises(FockError):
        coefficient_peek(E, basis, 1, Word(GROUP, 2, (1, 2)))

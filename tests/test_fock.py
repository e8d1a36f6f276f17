import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ncsos.fock import (
    build_symmetrized, build_unitaries, coefficient_bound, extract_coeffs, gram_bound_constant, vacuum_images,
)
from ncsos.poly import NCPoly, opnorm, poly_eval, word_eval, word_images
from ncsos.words import GROUP, MONOID, count_words, enumerate_words

from test_poly import rand_poly


def vacuum_column(dim):
    e = np.zeros(dim, dtype=complex)
    e[0] = 1.0
    return e


def creation(g, l):
    """The compressed creation operators L_i, read off A_i = L_i + L_i*:
    L_i is strictly lower triangular in graded order."""
    return [np.tril(A, -1) for A in build_symmetrized(g, l).entries]


def test_creation_g2_l1():
    L1, L2 = creation(2, 1)  # words: 1, x1, x2
    e0, e1, e2 = np.eye(3)
    assert np.array_equal(L1 @ e0, e1)
    assert np.array_equal(L1 @ e1, np.zeros(3))  # |x1| = l, killed
    assert np.array_equal(L1 @ e2, np.zeros(3))
    assert np.array_equal(L2 @ e0, e2)


@pytest.mark.parametrize("g,l", [(2, 2), (3, 2), (2, 3)])
def test_creation_orthogonal_ranges(g, l):
    ls = creation(g, l)
    for i in range(g):
        for j in range(g):
            if i != j:
                assert np.abs(ls[i].conj().T @ ls[j]).max() == 0.0


@pytest.mark.parametrize("g,l", [(2, 1), (2, 2), (3, 2)])
def test_creation_partial_isometry(g, l):
    proj = np.diag([1.0 if len(w) < l else 0.0 for w in enumerate_words(g, l, MONOID)])
    for L in creation(g, l):
        assert np.allclose(L.conj().T @ L, proj)


def test_symmetrized_g2_l1():
    A = build_symmetrized(2, 1).entries
    assert np.array_equal(A[0], np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex))


@pytest.mark.parametrize("g,l", [(1, 3), (2, 2), (3, 2)])
def test_symmetrized_exactly_hermitian(g, l):
    for A in build_symmetrized(g, l).entries:
        assert np.array_equal(A, A.conj().T)


def test_word_in_A_at_vacuum():
    words = enumerate_words(2, 2, MONOID)
    A = build_symmetrized(2, 2)
    w = (1, 1)
    vec = word_eval(w, A) @ vacuum_column(len(words))
    expected = np.zeros(len(words), dtype=complex)
    expected[words.index(w)] = 1.0
    expected[0] = 1.0  # A^{x1 x1} vacuum = e_{x1x1} + vacuum
    assert np.allclose(vec, expected)


@pytest.mark.parametrize("g,l", [(1, 4), (2, 3), (2, 4)])
def test_faithful_lower_order_support(g, l):
    # A^w vacuum - e_w lives on strictly shorter words
    words = enumerate_words(g, l, MONOID)
    A = build_symmetrized(g, l)
    for j, w in enumerate(words):
        vec = word_eval(w, A) @ vacuum_column(len(words))
        vec[j] -= 1.0
        for v, coeff in zip(words, vec):
            if len(v) >= len(w):
                assert abs(coeff) < 1e-12


def test_extraction_identity_at_l1():
    assert np.allclose(vacuum_images(2, 1, MONOID), np.eye(3))


def test_extraction_g2_l2_entries():
    words = enumerate_words(2, 2, MONOID)
    M = vacuum_images(2, 2, MONOID)
    assert M[0, words.index((1, 1))] == 1.0
    assert M[0, words.index((1, 2))] == 0.0


@pytest.mark.parametrize("g,l", [(1, 4), (2, 3), (3, 2)])
def test_extraction_triangular_unit_diagonal(g, l):
    m = vacuum_images(g, l, MONOID)
    assert np.abs(np.tril(m, -1)).max() <= 1e-12
    assert np.abs(np.diag(m) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("g,l", [(1, 4), (2, 3), (3, 2)])
def test_extraction_is_the_vacuum_images(g, l):
    # the columns A^w vacuum have small integer entries, so any evaluation
    # order gives them exactly; the extraction matrix is that matrix itself
    words = enumerate_words(g, l, MONOID)
    A = build_symmetrized(g, l)
    expected = np.column_stack([word_eval(w, A) @ vacuum_column(len(words)) for w in words])
    M = vacuum_images(g, l, MONOID)
    assert M.dtype == expected.dtype and M.tobytes() == expected.tobytes()
    assert vacuum_images(g, l, MONOID, A).tobytes() == expected.tobytes()  # read off the A a caller holds
    assert coefficient_bound(M) == float(np.abs(np.linalg.inv(expected)).sum(axis=1).max())


def test_extract_constant_from_identity():
    q = extract_coeffs(np.eye(7), 2, 2, MONOID)
    assert q == NCPoly.constant(1.0, 2)


def test_extract_roundtrip_random():
    rng = np.random.default_rng(17)
    A = build_symmetrized(2, 4)
    for _ in range(10):
        q = rand_poly(2, MONOID, 2, 2, rng, n_terms=5)
        E = poly_eval(q, A)
        rec = extract_coeffs(E, 2, 4, MONOID)
        diff = rec - q
        assert all(opnorm(c) < 1e-10 for c in diff.terms.values())


def test_extract_coefficient_bound_on_sos():
    rng = np.random.default_rng(23)
    A = build_symmetrized(2, 2)
    lam = coefficient_bound(vacuum_images(2, 2, MONOID))
    for _ in range(10):
        r = rand_poly(2, MONOID, 2, 1, rng, n_terms=3)
        q = r.adjoint() * r
        E = poly_eval(q, A)
        rec = extract_coeffs(E, 2, 2, MONOID)
        bound = lam * opnorm(E)
        assert all(opnorm(c) <= bound + 1e-9 for c in rec.terms.values())


def test_group_extraction_is_the_identity():
    # U^w vacuum = e_w, so M = M^-1 = I and lambda = 1: extraction reads P_w
    for g, l in [(1, 1), (2, 2), (3, 2)]:
        n = count_words(g, l, GROUP)
        M = vacuum_images(g, l, GROUP)
        assert np.array_equal(M, np.eye(n)) and np.array_equal(np.linalg.inv(M), np.eye(n))
        assert coefficient_bound(M) == 1.0


@pytest.mark.parametrize("g,d", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_group_gram_bound_constant_is_tau(g, d):
    assert gram_bound_constant(g, d, GROUP) == count_words(g, d, GROUP) ** 3


def test_unitaries_g1_d1_three_cycle():
    U = build_unitaries(1, 1)
    # basis (1, x1, x1^-1): the generator maps vacuum->x1, x1^-1->vacuum, x1->x1^-1
    expected = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    assert np.array_equal(U.entries[0], expected)


@pytest.mark.parametrize("g,d", [(1, 1), (1, 3), (2, 2), (2, 3)])
def test_unitaries_are_unitary(g, d):
    U = build_unitaries(g, d)
    n = U.dim
    for mat in U.entries:
        assert opnorm(mat @ mat.conj().T - np.eye(n)) <= 1e-10


@pytest.mark.parametrize("g,d", [(1, 2), (2, 2), (2, 3)])
def test_unitaries_reach_every_word(g, d):
    # U^w vacuum = e_w for every reduced |w| <= d
    U = build_unitaries(g, d)
    words = enumerate_words(g, d, GROUP)
    e0 = vacuum_column(len(words))
    for j, w in enumerate(words):
        vec = word_eval(w, U) @ e0
        expected = np.zeros(len(words), dtype=complex)
        expected[j] = 1.0
        assert np.allclose(vec, expected, atol=1e-12)


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_canonical_unitaries(g, d):
    # the tuple is its g permutation matrices, x_i^-1 acting as U_i*:
    # U^w e_vac = e_w for every basis word, so p(U) holds every P_w of a
    # degree <= d polynomial in its vacuum column; at d = 0, the 1 x 1 identities
    U = build_unitaries(g, d)
    words = enumerate_words(g, d, GROUP)
    n = len(words)
    assert U.g == g and U.dim == n
    for mat in U.entries:
        assert np.isin(mat, (0, 1)).all()
        assert np.array_equal(mat.sum(axis=0), np.ones(n))
        assert np.array_equal(mat.sum(axis=1), np.ones(n))
    images = word_images(U, words, np.eye(n, 1, dtype=complex))
    assert np.array_equal(images, np.eye(n))
    assert np.array_equal(vacuum_images(g, d, GROUP), images)
    p = rand_poly(g, GROUP, 2, d, np.random.default_rng(10 * g + d), n_terms=n)
    E = poly_eval(p, U)
    assert np.array_equal(extract_coeffs(E, g, d, GROUP).on(words), p.on(words))


def test_peek_roundtrip_random():
    # group extraction reads P_w straight off the vacuum column of p(U)
    rng = np.random.default_rng(31)
    d = 2
    words = enumerate_words(2, d, GROUP)
    U = build_unitaries(2, d)
    for _ in range(5):
        p = rand_poly(2, GROUP, 2, d, rng, n_terms=5)
        E = poly_eval(p, U)
        blocks = extract_coeffs(E, 2, d, GROUP).on(words)
        assert np.array_equal(blocks, p.on(words))
        assert all(opnorm(block) <= opnorm(E) + 1e-12 for block in blocks)


def test_peek_constant():
    words = enumerate_words(2, 1, GROUP)
    p = NCPoly.constant(np.eye(2), 2, GROUP)
    E = poly_eval(p, build_unitaries(2, 1))
    blocks = extract_coeffs(E, 2, 1, GROUP).on(words)
    assert np.array_equal(blocks[0], np.eye(2)) and not blocks[1:].any()


def test_fock_constants_script(capsys):
    # scripts/fock_constants.py tabulates the Gram-bound constants of both tuples
    path = Path(__file__).resolve().parents[1] / "scripts" / "fock_constants.py"
    spec = importlib.util.spec_from_file_location("fock_constants", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main()
    rows = capsys.readouterr().out.split("Gram norm bounds\n")[1].splitlines()[1:]
    table = {(int(g), int(d)): (mu, tau) for g, d, mu, tau in map(str.split, rows)}
    assert table == {(g, d): (f"{gram_bound_constant(g, d, MONOID):.1f}", f"{count_words(g, d, GROUP) ** 3:.1f}")
                     for g in (1, 2) for d in (1, 2)}

import json
import re
import tracemalloc

import numpy as np
import pytest

from ncsos import jsonio, sdp
from ncsos.certify import refuse_evaluation
from ncsos.poly import (
    NCPoly, OperatorTuple, PolyError, matrix_from_json, matrix_to_json, opnorm,
    poly_eval, poly_from_json, poly_to_json, tuple_from_json, tuple_to_json, word_eval,
)
from ncsos.words import GROUP, MONOID, graded_key, parse_word

RNG = np.random.default_rng(42)


def rand_matrix(n, rng=RNG):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rand_hermitian(n, rng=RNG):
    m = rand_matrix(n, rng)
    return (m + m.conj().T) / 2


def rand_unitary(n, rng=RNG):
    q, r = np.linalg.qr(rand_matrix(n, rng))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_poly(g, mode, k, deg, rng=RNG, n_terms=4):
    from ncsos.words import enumerate_words
    ws = enumerate_words(g, deg, mode)
    picks = rng.choice(len(ws), size=min(n_terms, len(ws)), replace=False)
    return NCPoly(g, mode, k, {ws[i]: rand_matrix(k, rng) for i in picks})


def x(i, g=2, mode=MONOID, k=1):
    return NCPoly.monomial((i,), g, mode, np.eye(k))


def test_monomial_product():
    p = x(1) * x(2)
    assert list(p.terms) == [(1, 2)]
    assert np.allclose(p.on([(1, 2)])[0], 1.0)


def test_group_inverse_product_is_constant():
    p = x(1, mode=GROUP) * NCPoly.monomial((-1,), 2, GROUP)
    assert p == NCPoly.constant(1.0, 2, GROUP)


def test_matrix_coefficient_product():
    rng = np.random.default_rng(7)
    A, B, C = (rand_matrix(2, rng) for _ in range(3))
    p = NCPoly(2, MONOID, 2, {(1,): A, (2,): B})
    q = NCPoly(2, MONOID, 2, {(1,): C})
    r = p * q
    assert np.allclose(r.on([(1, 1)])[0], A @ C)
    assert np.allclose(r.on([(2, 1)])[0], B @ C)
    assert len(r.terms) == 2


def test_adjoint_scalar_conjugation():
    p = 1j * (x(1) * x(2))
    q = p.adjoint()
    assert np.allclose(q.on([(2, 1)])[0], -1j)


def test_adjoint_hermitian_fixpoint():
    p = x(1) * x(2) + x(2) * x(1)
    assert p.adjoint() == p
    assert p.is_hermitian()


def test_adjoint_group_inverts_word():
    P = rand_matrix(2)
    p = NCPoly(1, GROUP, 2, {(1,): P})
    q = p.adjoint()
    assert np.allclose(q.on([(-1,)])[0], P.conj().T)


def test_adjoint_involutive_and_antimultiplicative():
    rng = np.random.default_rng(13)
    for mode in (MONOID, GROUP):
        p = rand_poly(2, mode, 2, 2, rng)
        q = rand_poly(2, mode, 2, 2, rng)
        assert p.adjoint().adjoint() == p
        assert (p * q).adjoint() == q.adjoint() * p.adjoint()


def test_is_hermitian_examples():
    assert (x(1) * x(1) + x(2) * x(2)).is_hermitian()
    assert not (1j * x(1)).is_hermitian()
    assert (x(1) * x(2) * x(1)).degree() == 3
    assert NCPoly.zero(2, MONOID, 1).degree() == 0


def test_eval_constant():
    X = OperatorTuple(MONOID, [rand_hermitian(3), rand_hermitian(3)])
    p = NCPoly.constant(np.eye(2), 2)
    assert np.allclose(poly_eval(p, X), np.eye(6))


def test_eval_scalar_point():
    X = OperatorTuple(MONOID, [np.array([[1.0]]), np.array([[-1.0]])])
    p = x(1) * x(2) + x(2) * x(1)
    assert np.allclose(poly_eval(p, X), [[-2.0]])


def test_eval_adjoint_compatibility_selfadjoint():
    rng = np.random.default_rng(3)
    X = OperatorTuple(MONOID, [rand_hermitian(3, rng), rand_hermitian(3, rng)])
    for _ in range(5):
        p = rand_poly(2, MONOID, 2, 2, rng)
        lhs = poly_eval(p.adjoint(), X)
        rhs = poly_eval(p, X).conj().T
        assert opnorm(lhs - rhs) < 1e-12


def test_eval_star_homomorphism():
    rng = np.random.default_rng(5)
    for _ in range(5):
        X = OperatorTuple(MONOID, [rand_hermitian(4, rng), rand_hermitian(4, rng)])
        p = rand_poly(2, MONOID, 2, 2, rng)
        q = rand_poly(2, MONOID, 2, 2, rng)
        lhs = poly_eval(p * q, X)
        rhs = poly_eval(p, X) @ poly_eval(q, X)
        assert opnorm(lhs - rhs) <= 1e-10 * max(1.0, opnorm(lhs))


def test_eval_group_star_homomorphism_and_adjoint():
    rng = np.random.default_rng(11)
    for _ in range(5):
        X = OperatorTuple(GROUP, [rand_unitary(3, rng), rand_unitary(3, rng)])
        p = rand_poly(2, GROUP, 2, 2, rng)
        q = rand_poly(2, GROUP, 2, 2, rng)
        assert opnorm(poly_eval(p * q, X) - poly_eval(p, X) @ poly_eval(q, X)) < 1e-10
        assert opnorm(poly_eval(p.adjoint(), X) - poly_eval(p, X).conj().T) < 1e-10


def test_eval_group_rejects_non_unitary():
    # x1^-1 is evaluated as the adjoint, whether or not the tuple is unitary:
    # a non-unitary tuple is refused where it enters (ncsos eval, the witness gate)
    X = OperatorTuple(GROUP, [2.0 * np.eye(2)])
    p = NCPoly.monomial((-1,), 1, GROUP)
    assert np.array_equal(poly_eval(p, X), 2.0 * np.eye(2))


def json_round_trip(p: NCPoly) -> dict:
    """poly_to_json(p) as read back from its jsonio text, arrays as lists."""
    return json.loads(jsonio.dumps(poly_to_json(p)))


def test_eval_sums_in_graded_order():
    # terms inserted as u1, u1^-1, 1; the JSON round trip inserts 1, u1, u1^-1
    u1 = NCPoly.monomial((1,), 1, GROUP)
    p = u1 + u1.adjoint() - NCPoly.constant(3.0, 1, GROUP)
    q = poly_from_json(json_round_trip(p))
    assert p.words == q.words
    rng = np.random.default_rng(11)
    for _ in range(20):
        U = rand_unitary(4, rng)
        X = OperatorTuple(GROUP, [U])
        assert poly_eval(p, X).tobytes() == poly_eval(q, X).tobytes()


def test_eval_takes_group_inverses_once():
    # inverse letters are the entries' adjoints, the same matrices in
    # poly_eval's shared-prefix products as in word_eval's word by word
    rng = np.random.default_rng(5)
    X = OperatorTuple(GROUP, [rand_unitary(3, rng), rand_unitary(3, rng)])
    p = NCPoly(2, GROUP, 2, {parse_word(w, 2, GROUP): rand_matrix(2, rng)
                             for w in ("1", "x1^-1", "x2^-1 x1", "x1 x2^-1", "x2^-1 x2^-1")})
    ref = np.zeros((6, 6), dtype=complex)  # the term-by-term sum, word_eval on its own
    for w in sorted(p.terms, key=graded_key):
        ref += np.kron(p.terms[w], word_eval(w, X))
    assert poly_eval(p, X).tobytes() == ref.tobytes()


def test_eval_holds_only_the_prefixes_a_later_word_reuses():
    # 1 - u1^200 - u1^-200 shares no prefix between its words: poly_eval holds
    # a few n x n arrays, not the 201 images of u1^200's prefixes
    n = 64
    X = OperatorTuple(GROUP, [rand_unitary(n, np.random.default_rng(7))])
    u = NCPoly.monomial((1,) * 200, 1, GROUP)
    p = NCPoly.constant(1.0, 1, GROUP) - u - u.adjoint()
    tracemalloc.start()
    try:
        value = poly_eval(p, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * n * n * 16
    ref = np.zeros((n, n), dtype=complex)  # the term-by-term sum, word_eval on its own
    for w in p.words:
        ref += np.kron(p.terms[w], word_eval(w, X))
    assert value.tobytes() == ref.tobytes()


def test_eval_holds_what_the_evaluation_budget_counts(monkeypatch):
    # each term is added one block row at a time, through a temporary of k n^2
    # that eval_bytes counts: at k = 64 it is 1/64 of f(X) (side 2048, 64 MiB),
    # at k = 1 the size of f(X) (side 256); x1 shares the prefix x1 with x1 x1,
    # and a group input holds the adjoint of its inverse letter
    rng = np.random.default_rng(5)
    for mode, k, n, words, held in ((MONOID, 64, 32, ((), (1,), (1, 1)), 1 + 2 + 64),
                                    (MONOID, 1, 256, ((), (1,), (1, 1)), 1 + 2 + 1),
                                    (GROUP, 1, 256, ((), (1,), (-1,)), 1 + 0 + 2 + 1)):
        p = NCPoly(1, mode, k, {w: rand_matrix(k, rng) for w in words})
        X = OperatorTuple(mode, [rand_hermitian(n, rng)])
        count = 16 * ((k * n) ** 2 + held * n ** 2)
        monkeypatch.setattr(sdp, "MARGIN_MAX_BYTES", count)
        assert refuse_evaluation(p, n) == ""
        monkeypatch.setattr(sdp, "MARGIN_MAX_BYTES", count - 1)
        assert refuse_evaluation(p, n) != ""
        tracemalloc.start()
        try:
            poly_eval(p, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * count, (mode, k, peak / count)


@pytest.mark.parametrize("build, message", [
    (lambda: NCPoly(1, MONOID, 0), "coefficient dimension must be >= 1"),
    (lambda: NCPoly(1, MONOID, 1, {(1,): np.eye(2)}), "coefficient for 'x1' has shape (2, 2), want (1, 1)"),
    (lambda: x(1) + x(1, g=3), "polynomials have mismatched (g, mode, k)"),
    (lambda: x(1, g=1) + x(1, g=1, mode=GROUP), "polynomials have mismatched (g, mode, k)"),
    (lambda: x(1) + x(1, k=2), "polynomials have mismatched (g, mode, k)"),
], ids=["k-0", "coefficient-shape", "add-g", "add-mode", "add-k"])
def test_polynomial_refuses_what_does_not_fit_it(build, message):
    with pytest.raises(PolyError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("obj", [{1, 2}, b"x1", 1j, object()], ids=["set", "bytes", "complex", "object"])
def test_jsonio_refuses_a_type_it_does_not_write(obj):
    with pytest.raises(TypeError, match=re.escape(f"cannot serialize {type(obj)} to JSON")):
        jsonio.dumps({"value": obj})


def test_eval_mode_mismatch():
    X = OperatorTuple(GROUP, [np.eye(2)])
    with pytest.raises(PolyError):
        poly_eval(x(1, g=1), X)


def test_canonical_form_drops_zero_coefficients():
    w = (1,)
    p = NCPoly(2, MONOID, 1, {w: np.array([[1e-16]])})
    assert p.terms == {}
    q = x(1) - x(1)
    assert q.terms == {}


@pytest.mark.parametrize("mode", [MONOID, GROUP])
@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf), complex(np.inf, np.nan)],
                         ids=["nan", "inf", "imaginary-inf", "complex-inf-nan"])
def test_non_finite_coefficient_is_refused(mode, value):
    # NaN failed the drop test and the term vanished; inf warned in the norm
    terms = {(): np.eye(2), (1,): np.array([[1.0, 0.0], [0.0, value]])}
    with pytest.raises(PolyError, match="coefficient for 'x1' is not finite"):
        NCPoly(1, mode, 2, terms)


def test_json_roundtrip():
    rng = np.random.default_rng(9)
    for mode in (MONOID, GROUP):
        p = rand_poly(2, mode, 2, 2, rng)
        q = poly_from_json(json_round_trip(p))
        assert q == p


@pytest.mark.parametrize("mode", [MONOID, GROUP])
def test_json_input_checks_each_word_once(mode, monkeypatch):
    # the text is tokenized unchecked and NCPoly checks the word it spells
    import ncsos.poly
    import ncsos.words
    p = rand_poly(2, mode, 2, 3, np.random.default_rng(5), n_terms=9)
    data, calls = json_round_trip(p), []

    def counted(w, g, mode, _check=ncsos.words.check_word):
        calls.append(w)
        return _check(w, g, mode)

    for module in (ncsos.poly, ncsos.words):
        monkeypatch.setattr(module, "check_word", counted)
    assert poly_from_json(data) == p
    assert sorted(calls) == sorted(p.words) and len(calls) == 9


def test_json_format_shape():
    p = NCPoly(2, MONOID, 1, {parse_word("x1 x2", 2): np.array([[1 + 2j]])})
    data = json_round_trip(p)
    assert data["g"] == 2 and data["mode"] == "monoid" and data["coeff_dim"] == 1
    assert data["terms"][0]["word"] == "x1 x2"
    assert data["terms"][0]["matrix"] == [[[1.0, 2.0]]]


def test_tuple_json_roundtrip():
    X = OperatorTuple(GROUP, [rand_unitary(3)])
    data = json.loads(jsonio.dumps(tuple_to_json(X)))
    assert set(data) == {"mode", "entries"}
    Y = tuple_from_json(data)
    assert Y.mode == GROUP
    assert np.allclose(Y.entries[0], X.entries[0])


@pytest.mark.parametrize("entry", [[10 ** 400, 0], [1, 0, 5], [1], {"re": 1, "im": 0},
                                   [True, False], ["1", "0"], [None, 0]])
def test_matrix_from_json_refuses_bad_entries(entry):
    with pytest.raises(PolyError, match="^bad matrix encoding: "):
        matrix_from_json([[entry]])


def test_matrix_json_roundtrip():
    m = rand_matrix(3)
    assert np.allclose(matrix_from_json(matrix_to_json(m)), m)

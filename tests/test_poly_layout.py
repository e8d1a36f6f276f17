"""Property tests of NCPoly's layout: the graded support words, the aligned
coefficient stack coeffs, the aligned read on(), and the consumers that
iterate them (is_hermitian, poly_eval)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from ncsos.poly import COEFF_DROP_TOL, NCPoly, OperatorTuple, opnorm, poly_eval, word_eval
from ncsos.words import GROUP, MODES, MONOID, graded_key, reduce_letters


@st.composite
def words(draw, g, mode, max_len=4):
    alphabet = [a for a in range(-g, g + 1) if a > 0 or (a < 0 and mode == GROUP)]
    letters = tuple(draw(st.lists(st.sampled_from(alphabet), max_size=max_len)))
    return reduce_letters(letters) if mode == GROUP else letters


def matrices(k, scale):
    return st.builds(lambda seed: scale * np.random.default_rng(seed).standard_normal((k, k, 2)) @ [1, 1j],
                     st.integers(0, 2**32 - 1))


@st.composite
def layouts(draw, prefixes=False):
    """(g, mode, k, items): the terms of a polynomial in a shuffled insertion
    order, some of them small enough to be dropped; with prefixes, every
    prefix of a support word is in the support too."""
    g, mode, k = draw(st.integers(1, 2)), draw(st.sampled_from(MODES)), draw(st.integers(1, 2))
    support = set(draw(st.lists(words(g, mode), max_size=8)))
    if prefixes:
        support |= {w[:i] for w in support for i in range(len(w))}
    scales = st.sampled_from([1.0, 1.0, 1.0, COEFF_DROP_TOL / 4])
    items = [(w, draw(matrices(k, draw(scales)))) for w in sorted(support, key=graded_key)]
    return g, mode, k, draw(st.permutations(items))


@settings(max_examples=60, deadline=None)
@given(layouts())
def test_words_are_graded_unique_and_kept(layout):
    g, mode, k, items = layout
    p = NCPoly(g, mode, k, dict(items))
    kept = {w: c for w, c in items if np.linalg.norm(c) > COEFF_DROP_TOL}
    assert p.words == sorted(kept, key=graded_key)
    assert p.coeffs.shape == (len(kept), k, k)
    for w, c in zip(p.words, p.coeffs):
        assert np.array_equal(c, kept[w])


def test_drop_takes_one_norm(monkeypatch):
    # COEFF_DROP_TOL is applied with one batched norm over the coefficient stack
    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **kw: calls.append(1) or norm(*a, **kw))
    small = COEFF_DROP_TOL / 4 * np.ones((2, 2))
    terms = {(a, b): (small if a == b else np.eye(2)) for a in (1, 2) for b in (1, 2)}
    p = NCPoly(2, MONOID, 2, terms)
    assert len(calls) == 1
    assert p.words == [(1, 2), (2, 1)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_on_is_a_dict_lookup(data):
    g, mode, k, items = data.draw(layouts())
    p = NCPoly(g, mode, k, dict(items))
    others = data.draw(st.lists(words(g, mode), max_size=6))
    ws = data.draw(st.permutations(others + [w for w, _ in items]))
    got = p.on(ws)
    assert got.shape == (len(ws), k, k)
    zero = np.zeros((k, k), dtype=complex)
    for w, c in zip(ws, got):
        assert np.array_equal(c, p.terms.get(w, zero))


@settings(max_examples=60, deadline=None)
@given(layouts(), st.sampled_from([None, 0.0, 1e-12, 1e-6]), st.sampled_from([1.0, 1e4]), st.integers(0, 2**32 - 1))
def test_is_hermitian_matches_the_difference_rule(layout, eps, scale, seed):
    # the rule is relative: a defect of 1e-6 is within it at coefficients of norm 1e4
    g, mode, k, items = layout
    p = scale * NCPoly(g, mode, k, dict(items))
    if eps is not None:  # a Hermitian polynomial, perturbed by eps on one word
        p = p + p.adjoint()
        if p.words and eps:
            rng = np.random.default_rng(seed)
            w = p.words[rng.integers(len(p.words))]
            p = p + NCPoly(g, mode, k, {w: eps * rng.standard_normal((k, k))})
    largest = max((opnorm(c) for c in p.coeffs), default=0.0)
    rule = all(opnorm(c) <= 1e-9 * max(1.0, largest) for c in (p - p.adjoint()).terms.values())
    assert p.is_hermitian() == rule


@settings(max_examples=40, deadline=None)
@given(layouts(prefixes=True), st.integers(0, 2**32 - 1))
def test_eval_is_the_graded_sum_of_word_products(layout, seed):
    g, mode, k, items = layout
    p = NCPoly(g, mode, k, dict(items))
    rng = np.random.default_rng(seed)
    entries = [np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
               for _ in range(g)]
    X = OperatorTuple(mode, entries)
    ref = np.zeros((3 * k, 3 * k), dtype=complex)
    for w, c in zip(p.words, p.coeffs):  # graded: test_words_are_graded_unique_and_kept
        ref += np.kron(c, word_eval(w, X))
    assert poly_eval(p, X).tobytes() == ref.tobytes()

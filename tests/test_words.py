import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncsos.poly import NCPoly
from ncsos.words import (
    GROUP, MODES, MONOID, WordError, check_word, concat, count_words, enumerate_words,
    format_word, graded_key, involute, left_shift, parse_word, suffix_table,
)


def test_concat_monoid_juxtaposes():
    assert concat((1,), (2,), MONOID) == (1, 2)


def test_concat_identity():
    w = (1, 2, 1)
    assert concat((), w, MONOID) == w
    assert concat(w, (), MONOID) == w


def test_concat_group_cancels():
    # (x1 x2) (x2^-1 x1) -> x1 x1, cancelling the adjacent inverse pair
    assert concat((1, 2), (-2, 1), GROUP) == (1, 1)


# a word is checked where it comes in: a tuple key of NCPoly, or text through parse_word
REFUSED = [((0,), MONOID, "letter 0 outside alphabet of size 2"),
           ((3,), GROUP, "letter 3 outside alphabet of size 2"),
           ((-1,), MONOID, "inverse letters are only allowed in group mode"),
           ([1], MONOID, r"word \[1\] is not a tuple of letters"),
           ("x1", MONOID, "word 'x1' is not a tuple of letters")]


@pytest.mark.parametrize("w, mode, message", REFUSED)
def test_polynomial_refuses_a_word_outside_its_alphabet_and_mode(w, mode, message):
    with pytest.raises(WordError, match=message):
        check_word(w, 2, mode)
    if isinstance(w, tuple):
        with pytest.raises(WordError, match=message):
            NCPoly(2, mode, 1, {(): np.eye(1), w: np.eye(1)})


def test_unreduced_group_word_rejected():
    with pytest.raises(WordError, match=r"group word \(1, -1\) is not reduced"):
        check_word((1, -1), 2, GROUP)
    with pytest.raises(WordError, match=r"group word \(2, 1, -1\) is not reduced"):
        NCPoly(2, GROUP, 1, {(2, 1, -1): np.eye(1)})


@pytest.mark.parametrize("text, g, mode, message", [
    ("x1^-1", 2, MONOID, "inverse letters are only allowed in group mode"),
    ("x2 x1^-1 x1", 2, MONOID, "inverse letters are only allowed in group mode"),
    ("x1", 2, "ring", "unknown mode 'ring'"),
    ("1", 0, GROUP, "alphabet size must be >= 1"),
])
def test_parse_refuses_words_outside_the_alphabet_and_mode(text, g, mode, message):
    with pytest.raises(WordError, match=message):
        parse_word(text, g, mode)


def test_parse_reduces_group_words():
    assert parse_word("x2 x1^-1 x1", 2, GROUP) == (2,)
    assert parse_word("x1 x1^-1", 2, GROUP) == ()


def test_involute_monoid_reverses():
    assert involute((1, 2), MONOID) == (2, 1)
    assert involute((), MONOID) == ()


def test_involute_group_inverts():
    w = (1, -2)
    assert involute(w, GROUP) == (2, -1)
    assert concat(w, involute(w, GROUP), GROUP) == ()


def test_enumerate_monoid_g2_d2():
    ws = enumerate_words(2, 2, MONOID)
    expected = ["1", "x1", "x2", "x1 x1", "x1 x2", "x2 x1", "x2 x2"]
    assert [format_word(w) for w in ws] == expected
    assert len(ws) == 7


def test_enumerate_group_g2_d1():
    ws = enumerate_words(2, 1, GROUP)
    assert [format_word(w) for w in ws] == ["1", "x1", "x1^-1", "x2", "x2^-1"]
    assert len(ws) == count_words(2, 1, GROUP) == 5


def test_enumerate_d0():
    for mode in (MONOID, GROUP):
        assert enumerate_words(1, 0, mode) == [()]


@pytest.mark.parametrize("call, message", [
    (lambda: enumerate_words(0, 1, MONOID), "alphabet size must be >= 1"),
    (lambda: enumerate_words(1, 1, "ring"), "unknown mode 'ring'"),
    (lambda: count_words(1, 1, "ring"), "unknown mode 'ring'"),
], ids=["enumerate-g-0", "enumerate-mode", "count-mode"])
def test_word_basis_refuses_an_empty_alphabet_or_an_unknown_mode(call, message):
    with pytest.raises(WordError, match=message):
        call()


def test_counts():
    assert count_words(2, 2, MONOID) == 7
    assert count_words(2, 2, GROUP) == 17  # 1 + 4 + 4*3
    assert count_words(5, 0, MONOID) == 1
    assert count_words(5, 0, GROUP) == 1
    assert count_words(1, 3, GROUP) == 7  # x1^m, m in -3..3


@pytest.mark.parametrize("g,d,mode", [(1, 4, MONOID), (2, 3, MONOID),
                                      (1, 4, GROUP), (2, 3, GROUP), (3, 2, GROUP)])
def test_enumerate_sorted_and_counted(g, d, mode):
    ws = enumerate_words(g, d, mode)
    keys = [graded_key(w) for w in ws]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert len(ws) == count_words(g, d, mode)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.sampled_from(MODES))
def test_suffix_table_and_left_shift(g, d, mode):
    ws = enumerate_words(g, d, mode)
    head, tail = suffix_table(ws)
    assert (head[0], tail[0]) == (0, -1) and ws[0] == ()
    for i in range(1, len(ws)):
        assert 0 <= tail[i] < i
        assert ws[i] == concat((int(head[i]),), ws[tail[i]], mode)
    index = {w: i for i, w in enumerate(ws)}
    for a in [*range(1, g + 1), *(range(-g, 0) if mode == GROUP else [])]:
        shift = left_shift(head, tail, a)
        assert [index.get(concat((a,), w, mode), -1) for w in ws] == shift.tolist()


@pytest.mark.parametrize("g,mode", [(2, MONOID), (3, MONOID), (2, GROUP), (3, GROUP)])
def test_involution_is_involutive_exhaustive(g, mode):
    d = 4 if g <= 2 else 3
    for w in enumerate_words(g, d, mode):
        assert involute(involute(w, mode), mode) == w


def test_involution_antimultiplicative_exhaustive():
    ws = enumerate_words(2, 2, GROUP)
    for w, v in itertools.product(ws, ws):
        assert involute(concat(w, v, GROUP), GROUP) == concat(involute(v, GROUP), involute(w, GROUP), GROUP)


@st.composite
def group_words(draw, g=2, max_len=6):
    raw = draw(st.lists(st.integers(min_value=-g, max_value=g).filter(lambda a: a != 0),
                        max_size=max_len))
    w = ()
    for a in raw:
        w = concat(w, (a,), GROUP)
    return w


@given(group_words(), group_words())
def test_group_concat_reduced_fixpoint(w, v):
    u = concat(w, v, GROUP)
    # re-reduction is a fixpoint: the product is a reduced word and concat of () changes nothing
    assert check_word(u, 2, GROUP) == u == concat(u, (), GROUP)


@given(group_words())
def test_group_word_times_inverse_is_identity(w):
    assert concat(w, involute(w, GROUP), GROUP) == ()
    assert concat(involute(w, GROUP), w, GROUP) == ()


def test_format_parse_roundtrip():
    for mode, g, d in [(MONOID, 2, 3), (GROUP, 2, 2)]:
        for w in enumerate_words(g, d, mode):
            assert parse_word(format_word(w), g, mode) == w


def test_parse_rejects_garbage():
    with pytest.raises(WordError):
        parse_word("y1", 2, MONOID)
    with pytest.raises(WordError):
        parse_word("x7", 2, MONOID)


# int() reads "+1", "1_0" and Arabic-Indic "\u0661" as 1, 10 and 1
BAD_TOKENS = {"sign": "x+1", "underscore": "x1_0", "arabic-indic-digit": "x\u0661", "negative": "x-1",
              "bare-x": "x", "plus-exponent": "x1^+1", "double-inverse": "x1^-1^-1",
              "over-int-digit-limit": "x" + "1" * 5000}


@pytest.mark.parametrize("token", BAD_TOKENS.values(), ids=BAD_TOKENS.keys())
def test_parse_refuses_tokens_outside_the_word_format(token):
    with pytest.raises(WordError, match="bad letter token"):
        parse_word(token, 12, GROUP)

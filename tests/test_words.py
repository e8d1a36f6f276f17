import importlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ncsos.words import (
    GROUP, MODES, MONOID, Word, WordError, concat, count_words, enumerate_words,
    format_word, graded_key, identity, involute, left_shift, letter_key, parse_word, suffix_table,
)


def W(mode, g, *letters):
    return Word(mode, g, tuple(letters))


def test_concat_monoid_juxtaposes():
    assert concat(W(MONOID, 2, 1), W(MONOID, 2, 2)) == W(MONOID, 2, 1, 2)


def test_concat_identity():
    w = W(MONOID, 2, 1, 2, 1)
    assert concat(identity(2), w) == w
    assert concat(w, identity(2)) == w


def test_concat_group_cancels():
    # (x1 x2) (x2^-1 x1) -> x1 x1, cancelling the adjacent inverse pair
    a = W(GROUP, 2, 1, 2)
    b = W(GROUP, 2, -2, 1)
    assert concat(a, b) == W(GROUP, 2, 1, 1)


def test_concat_mode_mismatch():
    with pytest.raises(WordError):
        concat(W(MONOID, 2, 1), W(GROUP, 2, 1))
    with pytest.raises(WordError):
        concat(W(MONOID, 2, 1), W(MONOID, 3, 1))


def test_unreduced_group_word_rejected():
    with pytest.raises(WordError):
        W(GROUP, 2, 1, -1)


def test_involute_monoid_reverses():
    assert involute(W(MONOID, 2, 1, 2)) == W(MONOID, 2, 2, 1)
    assert involute(identity(2)) == identity(2)


def test_involute_group_inverts():
    w = W(GROUP, 2, 1, -2)
    assert involute(w) == W(GROUP, 2, 2, -1)
    assert concat(w, involute(w)) == identity(2, GROUP)


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
        assert enumerate_words(1, 0, mode) == [identity(1, mode)]


def test_counts():
    assert count_words(2, 2, MONOID) == 7
    assert count_words(2, 2, GROUP) == 17  # 1 + 4 + 4*3
    assert count_words(5, 0, MONOID) == 1
    assert count_words(5, 0, GROUP) == 1
    assert count_words(1, 3, GROUP) == 7  # x1^m, m in -3..3


def test_group_words_hash_apart():
    # hash(-1) == hash(-2) in CPython: hashing raw letters left 6,349
    # distinct hashes among these words, so dict lookups compared many
    ws = enumerate_words(2, 8, GROUP)
    assert len(ws) == 13_121
    assert len({hash(w) for w in ws}) == 13_121


def test_word_hash_is_taken_once_at_construction(monkeypatch):
    # the value is the (mode, letter keys) hash, and hashing or comparing a
    # built word maps no letter again
    ws = enumerate_words(2, 3, GROUP) + enumerate_words(2, 3, MONOID)
    copies = [Word(w.mode, w.g, w.letters) for w in ws]
    want = [hash((w.mode, tuple(map(letter_key, w.letters)))) for w in ws]

    def refuse(a):
        raise AssertionError("letter_key called on a built word")

    monkeypatch.setattr(importlib.import_module("ncsos.words"), "letter_key", refuse)
    assert [hash(w) for w in ws] == [hash(w) for w in copies] == want
    index = {w: i for i, w in enumerate(ws)}
    assert [index[w] for w in copies] == list(range(len(ws)))


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
    assert (head[0], tail[0]) == (0, -1) and not ws[0].letters
    for i in range(1, len(ws)):
        assert 0 <= tail[i] < i
        assert ws[i] == concat(Word(mode, g, (int(head[i]),)), ws[tail[i]])
    index = {w: i for i, w in enumerate(ws)}
    for a in [*range(1, g + 1), *(range(-g, 0) if mode == GROUP else [])]:
        shift = left_shift(head, tail, a)
        assert [index.get(concat(Word(mode, g, (a,)), w), -1) for w in ws] == shift.tolist()


@pytest.mark.parametrize("g,mode", [(2, MONOID), (3, MONOID), (2, GROUP), (3, GROUP)])
def test_involution_is_involutive_exhaustive(g, mode):
    d = 4 if g <= 2 else 3
    for w in enumerate_words(g, d, mode):
        assert involute(involute(w)) == w


def test_involution_antimultiplicative_exhaustive():
    ws = enumerate_words(2, 2, GROUP)
    for w, v in itertools.product(ws, ws):
        assert involute(concat(w, v)) == concat(involute(v), involute(w))


@st.composite
def group_words(draw, g=2, max_len=6):
    raw = draw(st.lists(st.integers(min_value=-g, max_value=g).filter(lambda a: a != 0),
                        max_size=max_len))
    w = identity(g, GROUP)
    for a in raw:
        w = concat(w, Word(GROUP, g, (a,)))
    return w


@given(group_words(), group_words())
def test_group_concat_reduced_fixpoint(w, v):
    u = concat(w, v)
    # re-reduction is a fixpoint: constructing from the same letters changes nothing
    assert Word(GROUP, 2, u.letters) == u


@given(group_words())
def test_group_word_times_inverse_is_identity(w):
    assert not concat(w, involute(w)).letters
    assert not concat(involute(w), w).letters


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

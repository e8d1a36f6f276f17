"""Words of the free monoid <x1..xg> and the free group on g letters.

Letters are signed integers: +i stands for x_i, -i for x_i^{-1} (group mode
only).  A word is the plain tuple of its letters, and the empty tuple is the
identity word; the alphabet size and the mode belong to the polynomial, the
word basis or the call.  Group-mode words are kept reduced: no adjacent pair
+i, -i.  Words from outside are checked once, by check_word, where they come
in: parse_word (text) and NCPoly (tuples, and poly.poly_from_json's text,
which _parse_letters reads unchecked).

Graded lexicographic order uses the letter order
    monoid:  x1 < x2 < ... < xg
    group:   x1 < x1^-1 < x2 < x2^-1 < ...
"""

from __future__ import annotations

import re

import numpy as np

MONOID = "monoid"
GROUP = "group"
MODES = (MONOID, GROUP)


class WordError(ValueError):
    pass


def reduce_letters(letters: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def _check_alphabet(g: int, mode: str):
    """Refuse an alphabet of fewer than one letter, or an unknown mode."""
    if g < 1:
        raise WordError("alphabet size must be >= 1")
    if mode not in MODES:
        raise WordError(f"unknown mode {mode!r}")


def check_word(w, g: int, mode: str) -> tuple[int, ...]:
    """w itself, once it is a word over g letters in mode: a tuple of letters
    in +-1..+-g, inverse letters only in group mode, and reduced there."""
    _check_alphabet(g, mode)
    if not isinstance(w, tuple):
        raise WordError(f"word {w!r} is not a tuple of letters")
    for a in w:
        if a == 0 or abs(a) > g:
            raise WordError(f"letter {a} outside alphabet of size {g}")
        if a < 0 and mode == MONOID:
            raise WordError("inverse letters are only allowed in group mode")
    if mode == GROUP and reduce_letters(w) != w:
        raise WordError(f"group word {w} is not reduced")
    return w


def concat(w: tuple, v: tuple, mode: str) -> tuple[int, ...]:
    """Monoid: juxtaposition.  Group: juxtaposition followed by reduction."""
    return reduce_letters(w + v) if mode == GROUP else w + v


def involute(w: tuple, mode: str) -> tuple[int, ...]:
    """w* : reverse the letters; in group mode also flip every sign (w -> w^-1)."""
    if mode == GROUP:
        return tuple(-a for a in reversed(w))
    return w[::-1]


def letter_key(a: int) -> int:
    # monoid letters sort by index; group interleaving x1 < x1^-1 < x2 < ...
    return 2 * a - 2 if a > 0 else -2 * a - 1


def graded_key(w: tuple) -> tuple:
    return (len(w), tuple(map(letter_key, w)))


def _letters_in_order(g: int, mode: str) -> list[int]:
    if mode == MONOID:
        return list(range(1, g + 1))
    out = []
    for i in range(1, g + 1):
        out.extend((i, -i))
    return out


def enumerate_words(g: int, d: int, mode: str = MONOID) -> list[tuple[int, ...]]:
    """All words of length <= d in graded-lex order (reduced words in group mode)."""
    _check_alphabet(g, mode)
    alphabet = _letters_in_order(g, mode)
    out: list[tuple[int, ...]] = [()]
    level = [()]
    for _ in range(d):
        nxt: list[tuple[int, ...]] = []
        for ls in level:
            for a in alphabet:
                if mode == GROUP and ls and ls[-1] == -a:
                    continue
                nxt.append(ls + (a,))
        out.extend(nxt)
        level = nxt
    return out


def suffix_table(words: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """(head, tail): head[i] is the first letter of words[i] and tail[i] the
    index of the rest of it (0 and -1 for the identity).  Every suffix must
    be listed, as enumerate_words lists them."""
    index = {w: i for i, w in enumerate(words)}
    head = np.array([w[0] if w else 0 for w in words], dtype=np.intp)
    tail = np.array([index[w[1:]] if w else -1 for w in words], dtype=np.intp)
    return head, tail


def left_shift(head: np.ndarray, tail: np.ndarray, a: int) -> np.ndarray:
    """Index of the reduced word a w for each listed w, or -1 when a w is not
    listed; in group mode a cancels a leading a^-1."""
    out = np.full(len(head), -1, dtype=np.intp)
    rows = np.flatnonzero(head == a)
    out[tail[rows]] = rows
    cancel = head == -a
    out[cancel] = tail[cancel]
    return out


def count_words(g: int, d: int, mode: str = MONOID) -> int:
    """N(d) = sum_{i<=d} g^i (monoid); N_red(d) = 1 + sum_k 2g(2g-1)^{k-1} (group)."""
    _check_alphabet(g, mode)
    if mode == MONOID:
        return sum(g**i for i in range(d + 1))
    return 1 + sum(2 * g * (2 * g - 1) ** (k - 1) for k in range(1, d + 1))


def format_word(w: tuple) -> str:
    """Text form: `x1 x2^-1`; the empty word is spelled `1`."""
    if not w:
        return "1"
    parts = [f"x{a}" if a > 0 else f"x{-a}^-1" for a in w]
    return " ".join(parts)


_LETTER_TOKEN = re.compile(r"x([0-9]+)(\^-1)?")


def parse_word(text: str, g: int, mode: str = MONOID) -> tuple[int, ...]:
    """The word a text form spells, checked by check_word: in group mode
    reduced first, in monoid mode refused when it holds an inverse letter."""
    return check_word(_parse_letters(text, g, mode), g, mode)


def _parse_letters(text: str, g: int, mode: str) -> tuple[int, ...]:
    """The letters a text form spells, each of x1..xg or its inverse, reduced
    in group mode and otherwise unchecked: the caller's check_word checks them."""
    letters = []
    for tok in [] if text.strip() == "1" else text.split():
        # x and ASCII digits only: int() alone takes a sign, underscores and non-ASCII digits
        match = _LETTER_TOKEN.fullmatch(tok)
        if match is None:
            raise WordError(f"bad letter token {tok!r}")
        try:
            i, inv = int(match[1]), match[2] is not None
        except ValueError:  # more digits than int() converts
            raise WordError(f"bad letter token {tok!r}") from None
        if i < 1 or i > g:
            raise WordError(f"letter index {i} outside 1..{g}")
        letters.append(-i if inv else i)
    return reduce_letters(letters) if mode == GROUP else tuple(letters)

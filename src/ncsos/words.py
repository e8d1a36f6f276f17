"""Words of the free monoid <x1..xg> and the free group on g letters.

Letters are signed integers: +i stands for x_i, -i for x_i^{-1} (group mode
only).  Group-mode words are kept reduced: no adjacent pair +i, -i.  The
empty tuple is the identity word.

Graded lexicographic order uses the letter order
    monoid:  x1 < x2 < ... < xg
    group:   x1 < x1^-1 < x2 < x2^-1 < ...
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Word:
    """An immutable word; value semantics, hash keyed on (mode, letters)."""

    mode: str
    g: int
    letters: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.mode not in MODES:
            raise WordError(f"unknown mode {self.mode!r}")
        if self.g < 1:
            raise WordError("alphabet size must be >= 1")
        for a in self.letters:
            if a == 0 or abs(a) > self.g:
                raise WordError(f"letter {a} outside alphabet of size {self.g}")
            if a < 0 and self.mode == MONOID:
                raise WordError("inverse letters are only allowed in group mode")
        if self.mode == GROUP and reduce_letters(self.letters) != self.letters:
            raise WordError(f"group word {self.letters} is not reduced")

    def __hash__(self):
        return hash((self.mode, self.letters))

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        return f"Word({format_word(self)!r})"

    @property
    def is_identity(self) -> bool:
        return not self.letters


def identity(g: int, mode: str = MONOID) -> Word:
    return Word(mode, g, ())


def concat(w: Word, v: Word) -> Word:
    """Monoid: juxtaposition.  Group: juxtaposition followed by reduction."""
    if w.mode != v.mode or w.g != v.g:
        raise WordError("cannot concatenate words over different alphabets or modes")
    letters = w.letters + v.letters
    if w.mode == GROUP:
        letters = reduce_letters(letters)
    return Word(w.mode, w.g, letters)


def involute(w: Word) -> Word:
    """w* : reverse the letters; in group mode also flip every sign (w -> w^-1)."""
    if w.mode == GROUP:
        return Word(w.mode, w.g, tuple(-a for a in reversed(w.letters)))
    return Word(w.mode, w.g, tuple(reversed(w.letters)))


def letter_key(a: int) -> int:
    # monoid letters sort by index; group interleaving x1 < x1^-1 < x2 < ...
    return 2 * a - 2 if a > 0 else -2 * a - 1


def graded_key(w: Word) -> tuple:
    return (len(w.letters), tuple(letter_key(a) for a in w.letters))


def _letters_in_order(g: int, mode: str) -> list[int]:
    if mode == MONOID:
        return list(range(1, g + 1))
    out = []
    for i in range(1, g + 1):
        out.extend((i, -i))
    return out


def enumerate_words(g: int, d: int, mode: str = MONOID) -> list[Word]:
    """All words of length <= d in graded-lex order (reduced words in group mode)."""
    if g < 1:
        raise WordError("alphabet size must be >= 1")
    if mode not in MODES:
        raise WordError(f"unknown mode {mode!r}")
    alphabet = _letters_in_order(g, mode)
    out = [identity(g, mode)]
    level: list[tuple[int, ...]] = [()]
    for _ in range(d):
        nxt: list[tuple[int, ...]] = []
        for ls in level:
            for a in alphabet:
                if mode == GROUP and ls and ls[-1] == -a:
                    continue
                nxt.append(ls + (a,))
        out.extend(Word(mode, g, ls) for ls in nxt)
        level = nxt
    return out


def count_words(g: int, d: int, mode: str = MONOID) -> int:
    """N(d) = sum_{i<=d} g^i (monoid); N_red(d) = 1 + sum_k 2g(2g-1)^{k-1} (group)."""
    if g < 1:
        raise WordError("alphabet size must be >= 1")
    if mode == MONOID:
        return sum(g**i for i in range(d + 1))
    if mode == GROUP:
        return 1 + sum(2 * g * (2 * g - 1) ** (k - 1) for k in range(1, d + 1))
    raise WordError(f"unknown mode {mode!r}")


def format_word(w: Word) -> str:
    """Text form: `x1 x2^-1`; the empty word is spelled `1`."""
    if not w.letters:
        return "1"
    parts = [f"x{a}" if a > 0 else f"x{-a}^-1" for a in w.letters]
    return " ".join(parts)


def parse_word(text: str, g: int, mode: str = MONOID) -> Word:
    text = text.strip()
    if text == "1" or text == "":
        return identity(g, mode)
    letters = []
    for tok in text.split():
        inv = tok.endswith("^-1")
        body = tok[:-3] if inv else tok
        if not body.startswith("x"):
            raise WordError(f"bad letter token {tok!r}")
        try:
            i = int(body[1:])
        except ValueError:
            raise WordError(f"bad letter token {tok!r}") from None
        if i < 1 or i > g:
            raise WordError(f"letter index {i} outside 1..{g}")
        letters.append(-i if inv else i)
    if mode == GROUP:
        letters = list(reduce_letters(tuple(letters)))
    return Word(mode, g, tuple(letters))

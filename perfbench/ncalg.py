"""A small, independent model of nc polynomials for the benchmark.

The generator and the evidence checker use this module instead of ncsos, so
that neither the inputs nor the verdict on a result depend on the code under
test.  Words are tuples of nonzero ints: ``i`` is the letter ``x_i`` and, in
group mode, ``-i`` is its inverse.  A polynomial is a dict word -> k x k
complex matrix; evaluation puts the coefficient as the left Kronecker factor,
as the polynomial JSON format specifies.
"""

from __future__ import annotations

import json

import numpy as np

MONOID = "monoid"
GROUP = "group"


def reduce_word(letters, mode: str) -> tuple:
    if mode == MONOID:
        return tuple(letters)
    out: list[int] = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def involute(w: tuple, mode: str) -> tuple:
    return tuple(reversed(w)) if mode == MONOID else tuple(-a for a in reversed(w))


def words_up_to(g: int, d: int, mode: str) -> list[tuple]:
    """All words of length <= d (reduced in group mode), shortest first."""
    alphabet = list(range(1, g + 1)) if mode == MONOID else [s * i for i in range(1, g + 1) for s in (1, -1)]
    out, level = [()], [()]
    for _ in range(d):
        level = [w + (a,) for w in level for a in alphabet if not (w and w[-1] == -a)]
        out.extend(level)
    return out


def format_word(w: tuple) -> str:
    return " ".join(f"x{a}" if a > 0 else f"x{-a}^-1" for a in w) or "1"


def parse_word(text: str, g: int, mode: str) -> tuple:
    letters = []
    for tok in text.split():
        if tok == "1":
            continue
        inv = tok.endswith("^-1")
        body = tok[:-3] if inv else tok
        if not body.startswith("x") or not body[1:].isdigit():
            raise ValueError(f"bad letter {tok!r}")
        i = int(body[1:])
        if not 1 <= i <= g or (inv and mode != GROUP):
            raise ValueError(f"letter {tok!r} outside the alphabet")
        letters.append(-i if inv else i)
    return reduce_word(letters, mode)


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(e[0], e[1]) for e in row] for row in rows], dtype=complex)


def matrix_to_json(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(m)]


def poly_from_json(data: dict) -> tuple[int, str, int, dict]:
    g, mode, k = int(data["g"]), data["mode"], int(data["coeff_dim"])
    terms: dict = {}
    for item in data["terms"]:
        w = parse_word(item["word"], g, mode)
        c = matrix_from_json(item["matrix"])
        if c.shape != (k, k):
            raise ValueError(f"coefficient of {item['word']!r} has shape {c.shape}")
        terms[w] = terms.get(w, 0) + c
    return g, mode, k, terms


def poly_to_json(g: int, mode: str, k: int, terms: dict) -> dict:
    keys = sorted(terms, key=lambda w: (len(w), [(abs(a), a < 0) for a in w]))
    return {"g": g, "mode": mode, "coeff_dim": k,
            "terms": [{"word": format_word(w), "matrix": matrix_to_json(terms[w])} for w in keys]}


def dumps(obj) -> str:
    """Canonical JSON text: the same object always gives the same bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def gram_poly(G: np.ndarray, basis: list[tuple], k: int, mode: str) -> dict:
    """V* G V over `basis`: the block (v, w) of G is added to the word v* w."""
    terms: dict = {}
    for i, v in enumerate(basis):
        vi = involute(v, mode)
        for j, w in enumerate(basis):
            u = reduce_word(vi + w, mode)
            block = G[i * k:(i + 1) * k, j * k:(j + 1) * k]
            terms[u] = terms.get(u, 0) + block
    return terms


def hermitian_square(r: dict, mode: str) -> dict:
    """r* r for a polynomial r given as word -> coefficient."""
    out: dict = {}
    for v, a in r.items():
        va, ah = involute(v, mode), a.conj().T
        for w, b in r.items():
            u = reduce_word(va + w, mode)
            out[u] = out.get(u, 0) + ah @ b
    return out


def evaluate(terms: dict, k: int, ops: list[np.ndarray], mode: str) -> np.ndarray:
    """f(Y) = sum_w F_w (x) Y^w; in group mode Y_i^-1 is taken as Y_i*."""
    n = ops[0].shape[0]
    inv = [Y.conj().T for Y in ops] if mode == GROUP else None
    out = np.zeros((k * n, k * n), dtype=complex)
    for w, c in terms.items():
        Yw = np.eye(n, dtype=complex)
        for a in w:
            Yw = Yw @ (ops[a - 1] if a > 0 else inv[-a - 1])
        out += np.kron(c, Yw)
    return out


def min_eig(H: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((H + H.conj().T) / 2).min())

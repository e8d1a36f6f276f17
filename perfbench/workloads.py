"""Seeded inputs for the three workloads, with their ground truth.

Ground truth comes from the construction, never from a solver:
  * an SOS input is V_d* G V_d for a Gram matrix G = B B*/m + I that is psd
    by construction (interior, min eigenvalue >= 1);
  * a witness input is V_d* G V_d - c with G = B B*/m psd and c chosen so that
    f(Y0) has min eigenvalue -WITNESS_MARGIN at a seeded self-adjoint
    (monoid) or unitary (group) tuple Y0 of size WITNESS_N, so f is not SOS.
The program only ever sees the polynomial JSON files written here.

The witness-dual instances are built from the fixed WITNESS_INSTANCE_SEED and
the benchmark seed only sets their order.  Whether the dual decides a
group-mode point flips from one random instance to the next, and an
undecided point costs the whole delta ladder: over benchmark seeds 1-6 the
seeded instances took 23-58 s and decided 16-19 of 20, which would swamp
both the bound on decided_frac and a run's time budget.  A fixed set keeps
the work equal from run to run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ncalg import GROUP, MONOID, dumps, evaluate, gram_poly, min_eig, poly_to_json, words_up_to

SOS = "sos"
WITNESS = "witness"
WITNESS_N = 3
WITNESS_MARGIN = 0.5
SOS_LADDER_M_MAX = 30
WITNESS_INSTANCE_SEED = 0


@dataclass(frozen=True)
class Case:
    name: str
    command: str  # the ncsos subcommand that decides it
    truth: str    # SOS or WITNESS
    poly: dict    # polynomial JSON


def _p(g, mode, terms):
    return {"g": g, "mode": mode, "coeff_dim": 1,
            "terms": [{"word": w, "matrix": [[[c, 0.0]]]} for w, c in terms]}


FIXTURES = [
    ("sum_of_squares", SOS, _p(2, MONOID, [("x1 x1", 1.0), ("x2 x2", 1.0)])),
    ("perfect_square", SOS, _p(2, MONOID, [("x1 x1", 1.0), ("x1 x2", 1.0),
                                           ("x2 x1", 1.0), ("x2 x2", 1.0)])),
    ("one_plus_square", SOS, _p(1, MONOID, [("1", 1.0), ("x1 x1", 1.0)])),
    ("group_laplacian", SOS, _p(1, GROUP, [("1", 2.0), ("x1", -1.0), ("x1^-1", -1.0)])),
    ("negative_one", WITNESS, _p(2, MONOID, [("1", -1.0)])),
    ("anticommutator", WITNESS, _p(2, MONOID, [("x1 x2", 1.0), ("x2 x1", 1.0)])),
    ("odd_cube", WITNESS, _p(1, MONOID, [("x1 x1 x1", 1.0)])),
]

# (mode, g, d, k) points of the witness ladder; monoid d=2 stops at g=1
# because g=2 needs minutes per input.
WITNESS_LADDER = (
    [(MONOID, g, 1, k) for g in (1, 2, 3) for k in (1, 2)]
    + [(MONOID, 1, 2, k) for k in (1, 2)]
    + [(GROUP, g, 1, k) for g in (1, 2, 3) for k in (1, 2)]
    + [(GROUP, g, 2, k) for g in (1, 2) for k in (1, 2)]
    + [(GROUP, 1, 3, k) for k in (1, 2)]
)


def sos_ladder_points() -> list[tuple]:
    """Every (mode, g, d, k) with g, d in 1..3, k in 1..2 whose primal m <= 30."""
    return [(mode, g, d, k) for mode in (MONOID, GROUP) for g in (1, 2, 3)
            for d in (1, 2, 3) for k in (1, 2)
            if len(words_up_to(g, d, mode)) * k <= SOS_LADDER_M_MAX]


def _random_psd(m: int, rng) -> np.ndarray:
    B = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
    G = B @ B.conj().T / m
    return (G + G.conj().T) / 2


def _random_tuple(g: int, mode: str, n: int, rng) -> list[np.ndarray]:
    out = []
    for _ in range(g):
        A = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        if mode == MONOID:
            out.append((A + A.conj().T) / (2 * np.sqrt(n)))
        else:
            Q, R = np.linalg.qr(A)
            out.append(Q * (np.diag(R) / np.abs(np.diag(R))))
    return out


def _tag(mode, g, d, k) -> str:
    return f"{mode}-g{g}-d{d}-k{k}"


def sos_ladder(seed: int) -> list[Case]:
    rng = np.random.default_rng([seed, 1])
    cases = []
    for mode, g, d, k in sos_ladder_points():
        basis = words_up_to(g, d, mode)
        m = len(basis) * k
        G = _random_psd(m, rng) + np.eye(m)
        terms = gram_poly(G, basis, k, mode)
        cases.append(Case(_tag(mode, g, d, k), "certify", SOS, poly_to_json(g, mode, k, terms)))
    return cases


def _shuffled(cases: list[Case], seed: int) -> list[Case]:
    return [cases[i] for i in np.random.default_rng([seed, 0]).permutation(len(cases))]


def witness_dual(seed: int) -> list[Case]:
    rng = np.random.default_rng([WITNESS_INSTANCE_SEED, 2])
    cases = []
    for mode, g, d, k in WITNESS_LADDER:
        basis = words_up_to(g, d, mode)
        G = _random_psd(len(basis) * k, rng)
        terms = gram_poly(G, basis, k, mode)
        Y0 = _random_tuple(g, mode, WITNESS_N, rng)
        c = min_eig(evaluate(terms, k, Y0, mode)) + WITNESS_MARGIN
        terms[()] = terms.get((), 0) - c * np.eye(k)
        cases.append(Case(_tag(mode, g, d, k), "witness", WITNESS, poly_to_json(g, mode, k, terms)))
    return _shuffled(cases, seed)


def fixtures(seed: int) -> list[Case]:
    """The seven acceptance fixtures; the seed only sets their order."""
    return _shuffled([Case(name, "certify", truth, poly) for name, truth, poly in FIXTURES], seed)


WORKLOADS = {"fixtures": fixtures, "sos-ladder": sos_ladder, "witness-dual": witness_dual}


def write_inputs(workload: str, seed: int, directory: str) -> list[tuple[Case, str]]:
    """Write one polynomial JSON per case; return (case, path) in run order."""
    os.makedirs(directory, exist_ok=True)
    out = []
    for i, case in enumerate(WORKLOADS[workload](seed)):
        path = os.path.join(directory, f"{i:02d}-{case.name}.json")
        with open(path, "w") as fh:
            fh.write(dumps(case.poly) + "\n")
        out.append((case, path))
    return out

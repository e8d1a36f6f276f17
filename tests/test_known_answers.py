"""Inputs whose answer is known by construction never get the opposite kind,
and every decisive outcome passes `ncsos spotcheck`.

An SOS input is a sum of one or two seeded squares r* r, with r = sum_w R_w w
over every word of degree <= d and complex Gaussian k x k coefficients R_w.
A non-SOS input is r* r - eps with r = r0 - lambda, lambda an eigenvalue of
r0(Y0) at a seeded 3 x 3 tuple Y0 (self-adjoint, or unitary in group mode):
f(Y0) v = -eps v for lambda's eigenvector v.  Each point (mode, g, d, k)
with g, d, k in {1, 2} and Gram side count_words(g, d) k <= 14 gets seed 0,
one SOS input and a non-SOS input for each eps in {1e-2, 1e-4}.
`undecided` is allowed: near the boundary of the cone the solver may not
conclude, and a wrong kind, not a missing one, is what this guards.
scripts/known_answers.py runs the same generator at seeds 0-2 and Gram side
<= 34.
"""

import json

import numpy as np
import pytest

from ncsos import jsonio
from ncsos.certify import certify
from ncsos.cli import main
from ncsos.poly import NCPoly, OperatorTuple, poly_eval, poly_to_json
from ncsos.words import GROUP, MONOID, count_words, enumerate_words

def points(side: int) -> list[tuple]:
    """Each (mode, g, d, k) with g, d, k in {1, 2} and Gram side at most side."""
    return [(mode, g, d, k) for mode in (MONOID, GROUP) for g in (1, 2) for d in (1, 2) for k in (1, 2)
            if count_words(g, d, mode) * k <= side]


EPSILONS = (None, 1e-2, 1e-4)  # None: a sum of squares
POINTS = points(14)
CASES = [(*point, eps) for point in POINTS for eps in EPSILONS]


def random_root(rng, mode, g, d, k) -> NCPoly:
    """sum_w R_w w over every word of degree <= d, R_w complex Gaussian."""
    return NCPoly(g, mode, k, {w: (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2)
                               for w in enumerate_words(g, d, mode)})


def random_tuple(rng, mode, g, n=3) -> OperatorTuple:
    draws = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(g)]
    return OperatorTuple(mode, [(A + A.conj().T) / 2 if mode == MONOID else np.linalg.qr(A)[0] for A in draws])


def known_answer_input(seed, mode, g, d, k, eps) -> tuple[NCPoly, OperatorTuple | None]:
    """The input, and for a non-SOS one the tuple Y0 at which it is negative."""
    rng = np.random.default_rng([seed, g, d, k, mode == GROUP])
    if eps is None:
        roots = [random_root(rng, mode, g, d, k) for _ in range(rng.integers(1, 3))]
        return sum((r.adjoint() * r for r in roots[1:]), roots[0].adjoint() * roots[0]), None
    r0, Y0 = random_root(rng, mode, g, d, k), random_tuple(rng, mode, g)
    r = r0 - NCPoly.constant(np.linalg.eigvals(poly_eval(r0, Y0))[0] * np.eye(k), g, mode)
    return r.adjoint() * r - NCPoly.constant(eps * np.eye(k), g, mode), Y0


def test_points_stay_small():
    # 14 points and 42 inputs: the whole file runs in a few seconds
    assert len(POINTS) == 14 and len(CASES) == 42


@pytest.mark.parametrize("mode, g, d, k, eps", CASES,
                         ids=[f"{m}-g{g}-d{d}-k{k}-" + ("sos" if eps is None else f"eps{eps:g}")
                              for m, g, d, k, eps in CASES])
def test_known_answer_never_gets_the_opposite_kind(tmp_path, capsys, mode, g, d, k, eps):
    f, Y0 = known_answer_input(0, mode, g, d, k, eps)
    if Y0 is not None:  # the construction holds: f(Y0) has the eigenvalue -eps
        fY = poly_eval(f, Y0)
        assert np.linalg.eigvalsh((fY + fY.conj().T) / 2).min() <= -eps / 2
    path, outcome = tmp_path / "f.json", tmp_path / "outcome.json"
    path.write_text(jsonio.dumps(poly_to_json(f)))
    main(["certify", str(path), "--out", str(outcome)])
    kind = json.loads(outcome.read_text())["outcome"]
    assert kind != ("witness" if eps is None else "sos")
    if kind != "undecided":
        capsys.readouterr()
        assert main(["spotcheck", str(path), str(outcome)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True


@pytest.mark.parametrize("scale", [1e6, 1e9])
def test_scaled_inputs_are_read_and_never_get_the_opposite_kind(scale):
    # c f for the seed-0 SOS and eps = 1e-2 inputs of every point: Hermitian
    # up to rounding relative to c, so certify reads each one (against an
    # absolute tolerance, 6 are "not Hermitian" at 1e6 and 16 at 1e9) and
    # never gives the opposite kind; below c = 1 an absolute EPS_WIT and
    # solver tolerance still let some r* r - eps decide sos
    for point in POINTS:
        for eps in (None, 1e-2):
            kind = certify(known_answer_input(0, *point, eps)[0] * scale).kind
            assert kind != ("witness" if eps is None else "sos"), (point, eps, kind)

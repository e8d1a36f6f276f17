"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
The decision fixtures run with default solver settings and are shared
between the decision and exclusivity criteria.
"""

import numpy as np
import pytest

from ncsos import jsonio
from ncsos.certify import certify, run_dual, run_primal
from ncsos.fock import build_extraction, build_symmetrized, build_unitaries, extract_coeffs, gram_bound_constant
from ncsos.gns import gns_construct, gns_construct_unitary, gns_verify
from ncsos.gram import gram_to_poly
from ncsos.poly import NCPoly, OperatorTuple, opnorm, poly_eval, poly_to_json, word_eval
from ncsos.words import GROUP, MONOID, count_words, enumerate_words

from test_gns import functional_from_model, shift_defect
from test_gram import gram
from test_poly import rand_hermitian, rand_poly, rand_unitary


def report(criterion, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def x(i, g=2, mode=MONOID):
    return NCPoly.monomial((i,), g, mode)


SOS_FIXTURES = {
    "x1^2+x2^2": x(1) * x(1) + x(2) * x(2),
    "(x1+x2)^2": (x(1) + x(2)).adjoint() * (x(1) + x(2)),
    "1+x1^2": NCPoly.constant(1.0, 1) + x(1, g=1) * x(1, g=1),
    "2-u1-u1^-1": (NCPoly.constant(2.0, 1, GROUP)
                   - x(1, g=1, mode=GROUP)
                   - NCPoly.monomial((-1,), 1, GROUP)),
}

WITNESS_FIXTURES = {
    "-1": NCPoly.constant(-1.0, 2),
    "x1x2+x2x1": x(1) * x(2) + x(2) * x(1),
    "x1^3": x(1, g=1) * x(1, g=1) * x(1, g=1),
}


@pytest.fixture(scope="module")
def decisions():
    return {name: certify(f) for name, f in {**SOS_FIXTURES, **WITNESS_FIXTURES}.items()}


def test_criterion_1_fock_structure():
    worst_tri, worst_faithful = 0.0, 0.0
    for g in (1, 2, 3):
        for l in (1, 2, 3, 4):
            ext = build_extraction(g, l, MONOID)
            M = ext.matrix
            worst_tri = max(worst_tri,
                            np.abs(np.tril(M, -1)).max(),
                            np.abs(np.diag(M) - 1.0).max())
            words = enumerate_words(g, l, MONOID)
            A = build_symmetrized(g, l)
            e0 = np.zeros(len(words), dtype=complex)
            e0[0] = 1.0
            for j, w in enumerate(words):
                v = word_eval(w, A) @ e0
                v[j] -= 1.0
                tail = max((abs(c) for u, c in zip(words, v) if len(u) >= len(w)),
                           default=0.0)
                worst_faithful = max(worst_faithful, tail)
    ok = worst_tri <= 1e-12 and worst_faithful <= 1e-12
    report("criterion 1 (fock structure)", ok,
           f"triangularity defect {worst_tri:.2e}, support defect {worst_faithful:.2e}")


def test_criterion_2_extraction_roundtrip():
    rng = np.random.default_rng(2024)
    worst = 0.0
    tuples = {}
    for trial in range(100):
        g = int(rng.integers(1, 3))
        k = int(rng.integers(1, 3))
        deg = int(rng.integers(1, 4))
        q = rand_poly(g, MONOID, k, deg, rng, n_terms=4)
        l = max(q.degree(), 1)
        key = (g, l)
        if key not in tuples:
            tuples[key] = build_symmetrized(g, l)
        E = poly_eval(q, tuples[key])
        rec = extract_coeffs(E, g, l, k, MONOID)
        diff = rec - q
        worst = max(worst, max((opnorm(c) for c in diff.terms.values()), default=0.0))
    report("criterion 2 (extraction roundtrip)", worst <= 1e-10,
           f"100 polynomials, worst coefficient error {worst:.2e}")


def test_criterion_3_gram_bound():
    rng = np.random.default_rng(31)
    d = 1
    mu = gram_bound_constant(2, d, MONOID)
    A = build_symmetrized(2, 2 * d)
    worst_ratio = 0.0
    for trial in range(50):
        k = 1 + trial % 2
        n = count_words(2, d, MONOID) * k
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        G = gram(2, MONOID, d, k, m @ m.conj().T / n)
        p = gram_to_poly(G)
        worst_ratio = max(worst_ratio, opnorm(G.matrix) / (mu * opnorm(poly_eval(p, A))))
    ok = worst_ratio <= 1.0 + 1e-12

    worst_group = 0.0
    taus = {}
    for g in (1, 2):
        for d_g in (1, 2):
            tau = gram_bound_constant(g, d_g, GROUP)
            taus[(g, d_g)] = tau
            U = build_unitaries(g, d_g)
            for _ in range(10):
                n = count_words(g, d_g, GROUP)
                m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                G = gram(g, GROUP, d_g, 1, m @ m.conj().T / n)
                p = gram_to_poly(G)
                pU = poly_eval(p, U)
                worst_group = max(worst_group, opnorm(G.matrix) / (tau * opnorm(pU)))
            q = rand_poly(g, GROUP, 2, d_g, rng, n_terms=4)
            E = poly_eval(q, U)
            for block in extract_coeffs(E, g, d_g, 2, GROUP).on(enumerate_words(g, d_g, GROUP)):
                assert opnorm(block) <= opnorm(E) + 1e-12
    ok = ok and worst_group <= 1.0 + 1e-12
    report("criterion 3 (gram norm bound)", ok,
           f"monoid ratio {worst_ratio:.3f} of mu_1={mu:.0f}; "
           f"group ratio {worst_group:.3f} with tau=N_red(d)^3 {sorted(taus.items())}")


def test_criterion_4_unitary_suite():
    worst_unit, worst_reach = 0.0, 0.0
    for g in (1, 2):
        for d in (1, 2, 3):
            U = build_unitaries(g, d)
            n = U.dim
            for mat in U.entries:  # x_i^-1 acts as U_i*, unitary with U_i
                worst_unit = max(worst_unit, opnorm(mat @ mat.conj().T - np.eye(n)))
            e0 = np.zeros(n, dtype=complex)
            e0[0] = 1.0
            for j, w in enumerate(enumerate_words(g, d, GROUP)):
                v = word_eval(w, U) @ e0
                expected = np.zeros(n, dtype=complex)
                expected[j] = 1.0
                worst_reach = max(worst_reach, float(np.abs(v - expected).max()))
    ok = worst_unit <= 1e-10 and worst_reach <= 1e-10
    report("criterion 4 (unitary construction)", ok,
           f"unitarity defect {worst_unit:.2e}, reach defect {worst_reach:.2e}")


def test_criterion_5_decision_fixtures(decisions):
    details = []
    ok = True
    for name, f in SOS_FIXTURES.items():
        out = decisions[name]
        good = out.kind == "sos" and out.certificate.residual <= 1e-7
        ok = ok and good
        details.append(f"{name}: {out.kind} residual "
                       f"{out.certificate.residual if out.certificate else None}")
    for name, f in WITNESS_FIXTURES.items():
        out = decisions[name]
        good = out.kind == "witness" and out.min_eig <= -1e-6
        if good:
            fY = poly_eval(f, out.model.operators)
            direct = float(np.linalg.eigvalsh((fY + fY.conj().T) / 2).min())
            good = direct <= -1e-6
        ok = ok and good
        details.append(f"{name}: {out.kind} min_eig {out.min_eig}")
    report("criterion 5 (decision fixtures)", ok, "; ".join(details))


def test_criterion_6_gns_reproduction():
    rng = np.random.default_rng(66)
    worst_res, worst_shift, worst_op = 0.0, 0.0, 0.0
    for trial in range(25):
        mode = MONOID if trial % 2 == 0 else GROUP
        g = 1 + trial % 2
        k = 1 + (trial // 2) % 2
        d = 1 + (trial // 4) % 2
        n = 2 + trial % 2
        if mode == MONOID:
            X = OperatorTuple(MONOID, [rand_hermitian(n, rng) for _ in range(g)])
        else:
            X = OperatorTuple(GROUP, [rand_unitary(n, rng) for _ in range(g)])
        frame = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        S = functional_from_model(X, frame, g, d, mode)  # the dual's degree, in both modes
        model = gns_construct(S) if mode == MONOID else gns_construct_unitary(S)
        worst_res = max(worst_res, gns_verify(S, model))
        worst_shift = max(worst_shift, shift_defect(S, model))
        worst_op = max(worst_op, model.operators.hermitian_defect() if mode == MONOID
                       else model.operators.unitary_defect())
    ok = worst_res <= 1e-8 and worst_shift <= 1e-8 and worst_op <= 1e-10
    report("criterion 6 (GNS reproduction)", ok,
           f"25 models: verify {worst_res:.2e}, shift {worst_shift:.2e}, operator defect {worst_op:.2e}")


def test_criterion_7_exclusivity(decisions):
    ok = True
    details = []
    for name, f in SOS_FIXTURES.items():
        assert decisions[name].kind == "sos"
        d = decisions[name].degree
        good = run_dual(f, d).model is None
        ok = ok and good
        details.append(f"{name}: dual produced {'nothing' if good else 'a witness!'}")
    for name, f in WITNESS_FIXTURES.items():
        assert decisions[name].kind == "witness"
        d = decisions[name].degree
        good = run_primal(f, d)[0].certificate is None
        ok = ok and good
        details.append(f"{name}: primal produced {'nothing' if good else 'a certificate!'}")
    report("criterion 7 (duality exclusivity)", ok, "; ".join(details))


def test_criterion_8_determinism(tmp_path):
    from ncsos.cli import main
    path = tmp_path / "f.json"
    path.write_text(jsonio.dumps(poly_to_json(WITNESS_FIXTURES["x1x2+x2x1"])))
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = main(["certify", str(path), "--out", str(out_a)])
    code_b = main(["certify", str(path), "--out", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()
    ok = identical and code_a == code_b == 1
    report("criterion 8 (determinism)", ok,
           f"exit codes {code_a}/{code_b}, byte-identical={identical}")

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncsos import jsonio
from ncsos.certify import (
    CertifyError, CertifyOutcome, certify, dual_degree, free_state,
    gram_system, functional_from_solution, infer_degree, run_dual, run_primal, spotcheck,
)
from ncsos.cli import main
from ncsos.gram import EPS_PSD, constraint_index, gram_to_poly
from ncsos.poly import NCPoly, OperatorTuple, opnorm, poly_eval, poly_to_json
from ncsos.sdp import (
    DEFAULT_MAX_ITER, DEFAULT_TOL, AffineSystem, FeasibilityResult, _Farkas, _low_eig, max_margin,
    solve_feasibility,
)
from ncsos.words import GROUP, MONOID, Word, concat, count_words, enumerate_words, graded_key, involute

from test_gram import gram
from test_poly import rand_hermitian, rand_matrix


def x(i, g=2, mode=MONOID, k=1):
    return NCPoly.monomial(Word(mode, g, (i,)), np.eye(k))


def u(i, g=1):
    return NCPoly.monomial(Word(GROUP, g, (i,)))


def anticommutator():
    return x(1) * x(2) + x(2) * x(1)


def group_fixture():
    return NCPoly.constant(2.0, 1, GROUP) - u(1) - u(-1)


def gram_system_at(f, d):
    """The Gram system of f on its degree-d word-pair table."""
    return gram_system(f, constraint_index(f.g, d, f.mode))


# -- primal ------------------------------------------------------------------


def test_gram_system_sum_of_squares_unique_solution():
    f = x(1) * x(1) + x(2) * x(2)
    sys = gram_system_at(f, 1)
    res = solve_feasibility(sys)
    assert res.feasible
    assert np.allclose(res.X, np.diag([0.0, 1.0, 1.0]), atol=1e-8)


def test_primal_inconclusive_on_anticommutator():
    cert, diag, _ = run_primal(anticommutator(), 1)
    assert cert is None


def interior_sos_input(seed, g, mode, d, k):
    """V_d* (B B*/m + I) V_d, built without NCPoly products."""
    rng = np.random.default_rng(seed)
    m = count_words(g, d, mode) * k
    B = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
    return gram_to_poly(gram(g, mode, d, k, B @ B.conj().T / m + np.eye(m)))


def test_gram_point_not_psd_is_refused_not_factored(monkeypatch):
    # a solver point that meets the constraints but is psd only to 1e-5:
    # the certificate gate refuses it before factor_gram sees it.  On x1^2 +
    # x2^2 at d = 1 the (1, x1) class sums to 0, so i t there is allowed,
    # and the (1, x1) block [[0, i t], [-i t, 1]] has min eig about -t^2
    f = x(1) * x(1) + x(2) * x(2)
    t = np.sqrt(1e-5)
    X = np.diag([0.0, 1.0, 1.0]).astype(complex)
    X[0, 1], X[1, 0] = 1j * t, -1j * t
    assert gram_system_at(f, 1).residual(X) == 0 and np.linalg.eigvalsh(X)[0] < -9e-6
    solved = FeasibilityResult(True, X, 1, 0.0)
    monkeypatch.setattr(importlib.import_module("ncsos.certify"), "solve_feasibility",
                        lambda *args, **kwargs: solved)
    cert, diag, _ = run_primal(f, 1)
    assert cert is None
    assert diag.note.startswith("Gram matrix is not psd (min eigenvalue -")
    assert certify(f).kind != "witness"


@pytest.mark.parametrize("f", [interior_sos_input(1, 2, MONOID, 1, 2), interior_sos_input(2, 1, GROUP, 2, 1),
                               group_fixture()], ids=["monoid", "group", "group-boundary"])
def test_sos_path_runs_no_ncpoly_product(f, monkeypatch):
    # the certificate is built and checked on the word-pair table alone
    def refuse(self, other):
        raise AssertionError("NCPoly product on the decision path")

    monkeypatch.setattr(NCPoly, "__mul__", refuse)
    out = certify(f)
    assert out.kind == "sos" and out.certificate.residual <= 1e-7
    rep = spotcheck(f, out)
    assert rep.ok, rep.note


@pytest.mark.parametrize("f", [interior_sos_input(1, 2, MONOID, 1, 2), interior_sos_input(2, 1, GROUP, 2, 1),
                               group_fixture()], ids=["monoid", "group", "group-boundary"])
def test_spotcheck_sos_runs_no_poly_eval(f, monkeypatch):
    # an sos answer is proved by its Gram matrix and its squares; f is evaluated nowhere
    out = certify(f)
    assert out.kind == "sos"

    def refuse(*args):
        raise AssertionError("poly_eval in the sos spot check")

    monkeypatch.setattr(importlib.import_module("ncsos.certify"), "poly_eval", refuse)
    rep = spotcheck(f, out)
    assert rep.ok, rep.note


def test_certify_sum_of_squares():
    out = certify(x(1) * x(1) + x(2) * x(2))
    assert out.kind == "sos"
    assert len(out.certificate.factors) == 2
    assert out.certificate.residual < 1e-9


def test_certify_perfect_square():
    f = (x(1) + x(2)).adjoint() * (x(1) + x(2))
    out = certify(f)
    assert out.kind == "sos"
    diff = out.certificate.reconstruction() - f
    assert all(opnorm(c) < 1e-9 for c in diff.terms.values())


def test_certify_matrix_coefficients_sos():
    rng = np.random.default_rng(19)
    A, B = rand_matrix(2, rng), rand_matrix(2, rng)
    r = NCPoly(2, MONOID, 2, {Word(MONOID, 2, (1,)): A, Word(MONOID, 2, (2,)): B})
    f = r.adjoint() * r
    out = certify(f)
    assert out.kind == "sos"
    assert out.certificate.residual <= 1e-7


def test_certify_group_sos_fixture():
    out = certify(group_fixture())
    assert out.kind == "sos"
    assert out.certificate.residual <= 1e-7
    # factors reconstruct 2 - u1 - u1^-1; each factor has degree <= 1
    assert all(r.degree() <= 1 for r in out.certificate.factors)


def test_interior_point_polish_boundary_gram_system():
    # every Gram matrix of 2 - u1 - u1^-1 has (1, 1, 1) in its kernel: Dykstra
    # spends its budget, and the max-margin handover returns a boundary point
    f = group_fixture()
    sys = gram_system_at(f, 1)
    res = solve_feasibility(sys, interior=free_state(f, 1))
    assert res.feasible and res.iterations == DEFAULT_MAX_ITER and res.newton_steps > 0
    X = res.X
    assert np.abs(sys.nearest(X) - X).max() < 1e-10
    assert _low_eig(X)[0] >= -DEFAULT_TOL
    assert abs(np.ones(3) @ X @ np.ones(3)) < 1e-10
    assert abs(max_margin(sys).t) < 1e-8


def test_interior_point_polish_infeasible_returns_none(monkeypatch):
    # with no Dykstra budget the handover decides alone: Tr X = -1 has a
    # negative best margin, so it returns no point, and S^-1 certifies
    sys = AffineSystem(2, [[0, -1], [-1, 0]], [-1.0])
    assert max_margin(sys).t < 0
    monkeypatch.setattr(importlib.import_module("ncsos.sdp"), "DEFAULT_MAX_ITER", 0)
    res = solve_feasibility(sys)
    assert not res.feasible and res.X is None and res.newton_steps > 0
    assert res.certificate is not None and res.pairing < 0


def test_interior_point_polish_bit_identical():
    f = group_fixture()
    sys = gram_system_at(f, 1)
    X1 = solve_feasibility(sys, interior=free_state(f, 1)).X
    X2 = solve_feasibility(sys, interior=free_state(f, 1)).X
    assert X1.tobytes() == X2.tobytes()


def test_handover_certificate_is_the_inverse_slack(monkeypatch):
    # one Dykstra iteration leaves this near-boundary system undecided; the
    # certificate is the inverse slack of the max-margin solve, built from
    # its eigh and passed through the one certificate test
    f = monoid_witness_input(0, 1, 1, 2, margin=1e-3)
    sys, K = gram_system_at(f, 1), free_state(f, 1)
    monkeypatch.setattr(importlib.import_module("ncsos.sdp"), "DEFAULT_MAX_ITER", 1)
    res = solve_feasibility(sys, interior=K)
    assert res.iterations == 1 and res.certificate is not None
    mm = max_margin(sys)
    assert res.newton_steps == mm.iterations and mm.bound < -DEFAULT_TOL
    lam, Q = np.linalg.eigh(mm.X - mm.t * np.eye(sys.m))
    H, pairing = _Farkas(sys, K)((Q / lam) @ Q.conj().T)
    assert np.array_equal(res.certificate, H) and res.pairing == pairing < 0


def test_handover_over_its_memory_budget_is_undecided_with_a_reason(monkeypatch):
    monkeypatch.setattr(importlib.import_module("ncsos.sdp"), "MARGIN_MAX_BYTES", 0)
    out = certify(group_fixture())
    assert out.kind == "undecided" and out.primal.iterations == DEFAULT_MAX_ITER
    assert out.primal.note.startswith("max-margin handover needs ")


# -- dual ----------------------------------------------------------------------


def test_dual_layout_degree_bump():
    f = anticommutator()
    assert dual_degree(f, 1) == 2  # monoid searches at d + 1
    assert dual_degree(group_fixture(), 1) == 1


def _pair_classes(g, d, mode):
    """Basis index pairs by product word, found pair by pair with concat and
    listed in graded order of the products."""
    words = enumerate_words(g, d, mode)
    classes = {}
    for v, word_v in enumerate(words):
        for w, word_w in enumerate(words):
            classes.setdefault(concat(involute(word_v), word_w), []).append((v, w))
    return {u: classes[u] for u in sorted(classes, key=graded_key)}


@pytest.mark.parametrize("mode", [MONOID, GROUP])
@pytest.mark.parametrize("k", [1, 2])
def test_block_readouts_match_per_pair_loop(mode, k):
    g, d = 2, 2 if mode == MONOID else 1
    rng = np.random.default_rng([k, mode == GROUP])
    n = count_words(g, d, mode)
    X = rand_hermitian(n * k, rng)
    classes = _pair_classes(g, d, mode)

    def block(v, w):
        return X[v * k:(v + 1) * k, w * k:(w + 1) * k]

    p = gram_to_poly(gram(g, mode, d, k, X))
    coeffs = {u: sum(block(v, w) for v, w in pairs) for u, pairs in classes.items()}
    assert set(p.terms) == set(coeffs)
    assert all(p.terms[u].tobytes() == c.tobytes() for u, c in coeffs.items())

    index = constraint_index(g, d, mode)
    S = functional_from_solution(X, NCPoly.zero(g, mode, k), d, index)
    blocks = {}
    for u, pairs in classes.items():
        acc = np.zeros((k, k), dtype=complex)
        for v, w in pairs:
            acc += block(v, w).T
        blocks[u] = acc / len(pairs)
    for u in list(blocks):
        ui = involute(u)
        avg = (blocks[u] + blocks[ui].conj().T) / 2
        blocks[u] = avg
        blocks[ui] = avg.conj().T
    # equal in value: the loop conjugates a self-mirror block twice, which
    # may flip the sign of a zero entry
    assert set(index[0]) == set(blocks)
    assert all(np.array_equal(S_u, blocks[u]) for u, S_u in zip(index[0], S.blocks))


def test_certify_anticommutator_witness():
    f = anticommutator()
    out = certify(f)
    assert out.kind == "witness"
    assert out.min_eig <= -1e-6
    assert out.refuted_value.real < 0
    # independent scalar refutation exists at Y = (1, -1)
    Y = OperatorTuple(MONOID, [np.array([[1.0]]), np.array([[-1.0]])])
    assert poly_eval(f, Y)[0, 0].real == -2.0
    # soundness of the returned model
    assert out.model.operators.hermitian_defect() <= 1e-10
    fY = poly_eval(f, out.model.operators)
    assert np.linalg.eigvalsh((fY + fY.conj().T) / 2).min() <= -1e-6


def test_certify_negative_constant():
    out = certify(NCPoly.constant(-1.0, 2))
    assert out.kind == "witness"
    assert out.min_eig <= -1e-6
    fY = poly_eval(NCPoly.constant(-1.0, 2), out.model.operators)
    assert np.allclose(fY, -np.eye(fY.shape[0]))


def test_certify_odd_degree_witness():
    f = x(1, g=1) * x(1, g=1) * x(1, g=1)
    out = certify(f)
    assert out.kind == "witness"
    assert out.min_eig <= -1e-6


def test_certify_zero_polynomial():
    out = certify(NCPoly.zero(2, MONOID, 1))
    assert out.kind == "sos"
    assert out.certificate.factors == []


def test_certify_group_witness():
    # u1 + u1^-1 has spectrum in [-2, 2]; adding 1 leaves it indefinite
    f = NCPoly.constant(1.0, 1, GROUP) + u(1) + u(-1)
    out = certify(f)
    assert out.kind == "witness"
    assert out.model.operators.unitary_defect() <= 1e-10
    fU = poly_eval(f, out.model.operators)
    assert np.linalg.eigvalsh((fU + fU.conj().T) / 2).min() <= -1e-6


def test_certify_matrix_coefficient_witness():
    out = certify(NCPoly.constant(np.diag([1.0, -1.0]), 2))
    assert out.kind == "witness" and out.min_eig <= -1e-6


def test_certify_matrix_coefficient_witness_with_letter():
    C = np.array([[0, 1], [1, 0]], dtype=complex)
    f = NCPoly(1, MONOID, 2, {Word(MONOID, 1, (1,)): C})
    out = certify(f)
    assert out.kind == "witness" and out.min_eig <= -1e-6
    assert out.model.operators.hermitian_defect() <= 1e-10


def test_certify_group_matrix_coefficient_witness():
    C = np.array([[0, 1], [1, 0]], dtype=complex)
    f = NCPoly(1, GROUP, 2, {Word(GROUP, 1, ()): 0.5 * np.eye(2),
                             Word(GROUP, 1, (1,)): C / 2,
                             Word(GROUP, 1, (-1,)): C / 2})
    out = certify(f)
    assert out.kind == "witness" and out.min_eig <= -1e-6
    assert out.model.operators.unitary_defect() <= 1e-10


# -- exclusivity ---------------------------------------------------------------


def test_exclusivity_on_decided_instances():
    f_sos = x(1) * x(1) + x(2) * x(2)
    model, *_ , diag = run_dual(f_sos, 1)
    assert model is None

    f_wit = anticommutator()
    cert, diag, _ = run_primal(f_wit, 1)
    assert cert is None


@pytest.mark.parametrize("f", [x(1) * x(1) + x(2) * x(2), group_fixture()],
                         ids=["x1^2+x2^2", "2-u1-u1^-1"])
def test_dual_never_builds_a_model_for_boundary_sos(f, monkeypatch):
    # these inputs vanish somewhere, so the dual's Gram system has a psd
    # point, found by Dykstra or by the handover after it stalls: either way
    # there is no Farkas certificate, and no functional reaches GNS
    module = importlib.import_module("ncsos.certify")  # ncsos.certify is the function
    calls = []
    for name in ("gns_construct", "gns_construct_unitary"):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda S, _f=original: calls.append(S) or _f(S))
    model, *_ = run_dual(f, 1)
    assert model is None
    assert calls == []


def monoid_witness_input(seed, g, d, k, n=3, margin=0.5):
    """V_d* (B B*/m) V_d - c with c putting eigenvalue -margin into f(Y0) at
    a seeded self-adjoint n x n tuple Y0, so f is not SOS."""
    rng = np.random.default_rng(seed)
    m = count_words(g, d, MONOID) * k
    B = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
    f = gram_to_poly(gram(g, MONOID, d, k, B @ B.conj().T / m))
    Y0 = OperatorTuple(MONOID, [(A + A.conj().T) / (2 * np.sqrt(n))
                                for A in (rand_matrix(n, rng) / np.sqrt(2) for _ in range(g))])
    fY = poly_eval(f, Y0)
    c = np.linalg.eigvalsh((fY + fY.conj().T) / 2).min() + margin
    return f - NCPoly.constant(c * np.eye(k), g, MONOID)


@pytest.mark.parametrize("seed", [2, 8])
def test_dual_witness_operators_are_self_adjoint(seed):
    # on these inputs GNS fits a shift action whose Y is 3e-8 to 2e-7 away
    # from self-adjoint at every delta; such a tuple is no witness
    model, min_eig, _, diag = run_dual(monoid_witness_input(seed, 1, 2, 2), 2)
    if model is None:
        assert "self-adjointness" in diag.note
    else:
        assert model.operators.hermitian_defect() <= 1e-8 and min_eig <= -1e-6


@pytest.mark.parametrize("seed", [0, 6, 10, 48, 52, 55, 56, 79])
def test_near_boundary_witness_decides(seed):
    # Dykstra spends its budget on the dual's system of these barely non-SOS
    # inputs; the handover's inverse slack is the witness functional
    f = monoid_witness_input(seed, 1, 1, 2, margin=1e-3)
    out = certify(f)
    assert out.kind == "witness", out.dual.note
    assert out.dual.note.startswith("max-margin handover")
    assert spotcheck(f, out).ok


def group_witness_input(seed, g, d, k, n=3, margin=0.5):
    """The group-mode twin of monoid_witness_input, with a seeded n x n
    unitary tuple Y0."""
    rng = np.random.default_rng(seed)
    m = count_words(g, d, GROUP) * k
    B = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
    f = gram_to_poly(gram(g, GROUP, d, k, B @ B.conj().T / m))
    Y0 = OperatorTuple(GROUP, [np.linalg.qr(rand_matrix(n, rng))[0] for _ in range(g)])
    fY = poly_eval(f, Y0)
    c = np.linalg.eigvalsh((fY + fY.conj().T) / 2).min() + margin
    return f - NCPoly.constant(c * np.eye(k), g, GROUP)


@pytest.mark.parametrize("seed, g, d, k", [(0, 2, 2, 1), (1, 1, 3, 2), (3, 2, 1, 2)])
def test_group_witness_does_not_depend_on_the_quotient_basis(seed, g, d, k, monkeypatch):
    # a unitary change of basis of the quotient space must give a unitarily
    # equivalent model, so the completion of each letter's partial isometry
    # may not depend on the complement bases an SVD happens to return
    f = group_witness_input(seed, g, d, k)
    min_eig = run_dual(f, d)[1]
    module = importlib.import_module("ncsos.gns")
    frames = module._quotient_frames
    rng = np.random.default_rng(seed)

    def rotated(S):
        W = frames(S)
        return np.linalg.qr(rand_matrix(len(W), rng))[0] @ W

    monkeypatch.setattr(module, "_quotient_frames", rotated)
    for _ in range(3):
        model, rotated_min_eig, *_ = run_dual(f, d)
        assert model is not None and abs(rotated_min_eig - min_eig) <= 1e-10


@pytest.mark.parametrize("f", [monoid_witness_input(seed, 1, 2, 2) for seed in range(1, 31)]
                         + [group_witness_input(1, 1, 2, 2)],
                         ids=[f"monoid-{seed}" for seed in range(1, 31)] + ["group-1"])
def test_dual_decides_at_the_first_rung(f, monkeypatch):
    # with the free state mixed in, the Farkas certificate of the one
    # degree-D system the dual builds is a witness functional
    module = importlib.import_module("ncsos.certify")
    calls = []
    monkeypatch.setattr(module, "hankel_system",
                        lambda *a, _f=module.hankel_system: calls.append(a) or _f(*a))
    model, min_eig, _, diag = run_dual(f, 2)
    assert model is not None, diag.note
    assert len(calls) == 1
    defect = (model.operators.hermitian_defect() if f.mode == MONOID
              else model.operators.unitary_defect())
    assert defect <= 1e-8 and min_eig <= -1e-6


@pytest.mark.parametrize("f, degrees", [(group_witness_input(1, 1, 2, 2), [2]),
                                         (monoid_witness_input(1, 1, 2, 2), [2, 3])],
                         ids=["group", "monoid"])
def test_certify_solves_each_distinct_system_once(f, degrees, monkeypatch):
    # in group mode the dual's system is the primal's, so the dual reads the
    # primal's certificate; in monoid mode it solves its own at degree d + 1
    module = importlib.import_module("ncsos.certify")
    sizes = []
    monkeypatch.setattr(module, "solve_feasibility",
                        lambda sys, _f=module.solve_feasibility, **kw: sizes.append(sys.m) or _f(sys, **kw))
    out = certify(f)
    assert out.kind == "witness"
    assert sizes == [count_words(f.g, D, f.mode) * f.k for D in degrees]


@pytest.mark.parametrize("f", [group_witness_input(1, 1, 2, 2), monoid_witness_input(1, 1, 2, 2)],
                         ids=["group", "monoid"])
def test_dual_builds_its_word_pair_table_once(f, monkeypatch):
    # run_dual builds the degree-D table once; GNS and its verification read
    # the functional's own, and certify builds each degree's table once: in
    # group mode D = d and the dual reads the primal's
    gram_module = importlib.import_module("ncsos.gram")
    module = importlib.import_module("ncsos.certify")
    builds, inside = [], {}
    monkeypatch.setattr(gram_module, "word_pair_table",
                        lambda words, _f=gram_module.word_pair_table: builds.append(len(words)) or _f(words))
    for name in ("gns_construct", "gns_construct_unitary", "gns_verify"):
        def counted(*args, _f=getattr(module, name), _name=name):
            before = len(builds)
            out = _f(*args)
            inside[_name] = len(builds) - before
            return out
        monkeypatch.setattr(module, name, counted)
    model = run_dual(f, 2)[0]
    assert model is not None
    construct = "gns_construct" if f.mode == MONOID else "gns_construct_unitary"
    assert builds == [count_words(f.g, dual_degree(f, 2), f.mode)]
    assert inside == {construct: 0, "gns_verify": 0}
    builds.clear()
    assert certify(f).kind == "witness"
    assert builds == [count_words(f.g, D, f.mode) for D in dict.fromkeys((2, dual_degree(f, 2)))]


@pytest.mark.parametrize("command, f, code, builds", [
    ("certify", interior_sos_input(1, 2, MONOID, 1, 1), 0, 2),
    ("certify", interior_sos_input(1, 2, GROUP, 1, 1), 0, 2),
    ("certify", group_witness_input(1, 1, 2, 2), 1, 1),
    ("certify", monoid_witness_input(1, 1, 2, 2), 1, 2),
    ("witness", monoid_witness_input(1, 1, 2, 2), 1, 1),
], ids=["sos-monoid", "sos-group", "witness-group", "witness-monoid", "witness-command"])
def test_each_command_builds_its_word_pair_tables_once(command, f, code, builds, tmp_path, capsys,
                                                       monkeypatch):
    # one table per degree, carried by the evidence it indexes, through the
    # JSON output too: an SOS decision adds only reconstruction's table over
    # the factors' support, and in group mode the dual reads the primal's
    gram_module = importlib.import_module("ncsos.gram")
    sizes = []
    monkeypatch.setattr(gram_module, "word_pair_table",
                        lambda words, _f=gram_module.word_pair_table: sizes.append(len(words)) or _f(words))
    path = tmp_path / "f.json"
    path.write_text(jsonio.dumps(poly_to_json(f)))
    assert main([command, str(path)]) == code
    capsys.readouterr()
    assert len(sizes) == builds


# -- the Farkas certificate ------------------------------------------------------


@pytest.mark.parametrize("c, kind", [(1e-3, "witness"), (1e-6, "witness"),
                                     (1e-9, "undecided"), (1e-12, "undecided")])
def test_small_negative_constant_is_never_sos(c, kind):
    # the certificate is a proof at any scale and is tested before the tol
    # stop, so -c is refuted at the first iteration however small c is; a
    # witness then needs f(Y) = -c <= -EPS_WIT
    out = certify(NCPoly.constant(-c, 1))
    assert out.kind == kind
    assert out.primal.iterations == 1 and out.primal.note.startswith("Farkas certificate")


def _gram_poly(seed, g, mode, k, d=1):
    """sum_j r_j* r_j = V_d* B B* V_d for a seeded square B."""
    rng = np.random.default_rng(seed)
    m = count_words(g, d, mode) * k
    B = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
    return gram_to_poly(gram(g, mode, d, k, B @ B.conj().T / m))


def _primal_solve(f, d=1):
    return solve_feasibility(gram_system_at(f, d), interior=free_state(f, d))


@settings(max_examples=25, deadline=None)
@given(mode=st.sampled_from([MONOID, GROUP]), k=st.sampled_from([1, 2]), g=st.sampled_from([1, 2]),
       seed=st.integers(0, 2 ** 32 - 1), eps=st.floats(1e-3, 1.0))
def test_squares_plus_identity_get_no_certificate(mode, k, g, seed, eps):
    f = _gram_poly(seed, g, mode, k) + NCPoly.constant(eps * np.eye(k), g, mode)
    assert _primal_solve(f).certificate is None
    assert certify(f).kind == "sos"


@settings(max_examples=25, deadline=None)
@given(mode=st.sampled_from([MONOID, GROUP]), k=st.sampled_from([1, 2]), g=st.sampled_from([1, 2]),
       seed=st.integers(0, 2 ** 32 - 1), c=st.floats(1e-3, 1.0))
def test_negated_squares_get_a_certificate_and_a_witness(mode, k, g, seed, c):
    f = -_gram_poly(seed, g, mode, k) - NCPoly.constant(c * np.eye(k), g, mode)
    res = _primal_solve(f)
    assert res.certificate is not None and res.pairing < 0
    out = certify(f)
    assert out.kind == "witness"
    assert spotcheck(f, out).ok


# -- the free state ----------------------------------------------------------------


FREE_POINTS = [(mode, g, D, k) for mode in (MONOID, GROUP) for g in (1, 2, 3)
               for D in (1, 2, 3) for k in (1, 2)]


@pytest.mark.parametrize("mode, g, D, k", FREE_POINTS,
                         ids=[f"{mode}-g{g}-D{D}-k{k}" for mode, g, D, k in FREE_POINTS])
def test_free_state_is_a_positive_definite_state(mode, g, D, k):
    K = free_state(NCPoly.zero(g, mode, k), D)
    n = count_words(g, D, mode)
    assert K.shape == (n * k, n * k)
    assert abs(np.trace(K) - 1) <= 1e-12
    assert np.linalg.eigvalsh(K)[0] > 0


def test_free_state_monoid_g1_has_semicircle_moments():
    # phi(x^j) is the Catalan number C_{j/2} for even j, and 0 for odd j
    K = free_state(NCPoly.zero(1, MONOID, 1), 3)
    moments = np.array([1, 0, 1, 0, 2, 0, 5])
    lengths = np.arange(4)  # the basis words are 1, x, x^2, x^3
    assert np.allclose(K / K[0, 0], moments[lengths[:, None] + lengths[None, :]], atol=1e-14)


@pytest.mark.parametrize("g, D, k", [(1, 2, 2), (2, 1, 1), (3, 2, 2)])
def test_free_state_group_is_the_normalized_trace(g, D, k):
    nk = count_words(g, D, GROUP) * k
    assert np.array_equal(free_state(NCPoly.zero(g, GROUP, k), D), np.eye(nk) / nk)


# -- guards ----------------------------------------------------------------------


def test_certify_rejects_non_hermitian():
    with pytest.raises(CertifyError):
        certify(1j * x(1))


def test_degree_override_guard():
    f = x(1) * x(2) * x(2) * x(1)
    assert infer_degree(f) == 2
    with pytest.raises(CertifyError):
        infer_degree(f, 1)


# -- spotcheck --------------------------------------------------------------------


def test_spotcheck_sos():
    f = (x(1) + x(2)).adjoint() * (x(1) + x(2))
    out = certify(f)
    rep = spotcheck(f, out)
    assert rep.ok
    G = out.certificate.gram.matrix
    assert rep.min_eig == float(np.linalg.eigvalsh((G + G.conj().T) / 2).min())
    assert rep.threshold == -EPS_PSD


def test_spotcheck_witness():
    f = anticommutator()
    out = certify(f)
    rep = spotcheck(f, out)
    assert rep.ok
    assert rep.min_eig <= -1e-6


def test_spotcheck_zero():
    f = NCPoly.zero(2, MONOID, 1)
    out = certify(f)
    rep = spotcheck(f, out)
    assert abs(rep.min_eig) <= 1e-12


def test_spotcheck_refuses_undecided():
    with pytest.raises(CertifyError):
        spotcheck(anticommutator(), CertifyOutcome("undecided"))


def test_spotcheck_group_sos():
    f = group_fixture()
    out = certify(f)
    assert out.kind == "sos"
    rep = spotcheck(f, out)
    assert rep.ok and rep.min_eig >= -1e-9

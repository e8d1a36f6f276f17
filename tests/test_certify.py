import importlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncsos import jsonio
from ncsos.certify import (
    EPS_WIT, CertifyError, _lowest, _rounding, _suffixes, certify, free_state, gram_system, infer_degree,
    point_functional, refuse_certificate, refuse_evaluation, refuse_witness, run_dual, run_primal, tuple_search,
)
from ncsos.cli import _sos_json, main
from ncsos.fock import build_symmetrized, build_unitaries
from ncsos.gns import GnsError, WitnessModel, gns_verify, quotient_matrix
from ncsos.gram import (
    EPS_CERT, EPS_RANK, block_sums, constraint_index, factor_gram, gram_to_poly,
)
from ncsos.poly import COEFF_DROP_TOL, NCPoly, OperatorTuple, opnorm, poly_eval, poly_to_json, word_images
from ncsos.sdp import DEFAULT_MAX_ITER, DEFAULT_TOL, MAX_BYTES, FeasibilityResult, _low_eig, solve_feasibility
from ncsos.words import GROUP, MONOID, concat, count_words, enumerate_words, graded_key, involute

from test_gram import gram
from test_known_answers import known_answer_input
from test_poly import rand_hermitian, rand_matrix


def x(i, g=2, mode=MONOID, k=1):
    return NCPoly.monomial((i,), g, mode, np.eye(k))


def u(i, g=1):
    return NCPoly.monomial((i,), g, GROUP)


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
    res = solve_feasibility(sys, free_state(f, 1))
    assert res.feasible
    assert np.allclose(res.X, np.diag([0.0, 1.0, 1.0]), atol=1e-8)


def test_primal_inconclusive_on_anticommutator():
    out, _ = run_primal(anticommutator(), 1)
    assert out.kind == "undecided" and out.certificate is None


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
    out, _ = run_primal(f, 1)
    assert out.certificate is None
    assert out.note.startswith("Gram matrix is not psd (min eigenvalue -")
    assert certify(f).kind != "witness"


@pytest.mark.parametrize("f", [interior_sos_input(1, 2, MONOID, 1, 2), interior_sos_input(2, 1, GROUP, 2, 1),
                               group_fixture()], ids=["monoid", "group", "group-boundary"])
def test_sos_path_runs_no_ncpoly_product(f, monkeypatch):
    # the certificate is built and checked on the word-pair table alone: its
    # factors are one stack, and run_primal makes no NCPoly at all
    def refuse(self, other):
        raise AssertionError("NCPoly product on the decision path")

    monkeypatch.setattr(NCPoly, "__mul__", refuse)
    made, init = [], NCPoly.__init__
    monkeypatch.setattr(NCPoly, "__init__",
                        lambda self, *args, **kwargs: made.append(args) or init(self, *args, **kwargs))
    out, _ = run_primal(f, infer_degree(f))
    assert out.certificate is not None and made == []
    out = certify(f)
    assert out.kind == "sos" and out.certificate.residual <= 1e-7
    assert refuse_certificate(f, out.certificate)[0] == ""


def _miss(p, f):
    """max_u ||P_u - F_u||, how far p is from f coefficientwise: the
    certificate gate's measure when it compared NCPolys."""
    words = list(dict.fromkeys(p.words + f.words))
    return float(np.linalg.norm(p.on(words) - f.on(words), 2, axis=(1, 2)).max(initial=0.0))


def ncpoly_factors(G):
    """factor_gram's factors as one NCPoly each: the reference for its stack."""
    evals, evecs = np.linalg.eigh((G.matrix + G.matrix.conj().T) / 2)
    R = evecs * np.sqrt(np.where(evals > EPS_RANK, evals, 0.0))
    words = G.index[0][:len(G.index[1])]
    n, k = len(words), G.k
    blocks = R.reshape(n, k, n, k).conj().transpose(2, 0, 3, 1)
    return [NCPoly(G.g, G.mode, k, dict(zip(words, Bj))) for Bj in blocks if np.linalg.norm(Bj) > EPS_RANK]


def ncpoly_reconstruction(factors, G):
    """sum_j r_j^* r_j of per-factor NCPolys, summed on G's table."""
    products, table = G.index
    words = products[:len(table)]
    n, k = len(words), G.k
    C = np.array([r.on(words) for r in factors], dtype=complex).reshape(-1, n, k, k)
    R = C.conj().transpose(1, 3, 0, 2).reshape(n * k, -1)
    return NCPoly(G.g, G.mode, k, dict(zip(products, block_sums(R @ R.conj().T, table))))


@pytest.mark.parametrize("above", [0.0, 3e-14, 1e-3])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("mode", [MONOID, GROUP])
def test_certificate_stack_matches_per_factor_ncpolys(mode, k, above):
    # the gate and the JSON read the factor stack to the bit as they read one
    # NCPoly per factor.  G couples the empty word to no other basis word, so
    # factors have all-zero coefficient blocks; the class of x1 x2 sums to at
    # most COEFF_DROP_TOL; and unless above is 0, f has a word above 2d,
    # missed by all of it
    g, d = 2, 1
    rng = np.random.default_rng(7)
    m = count_words(g, d, mode) * k
    B = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    X = B @ B.conj().T / m + np.eye(m)
    X[:k, k:] = X[k:, :k] = 0
    products, table = constraint_index(g, d, mode)
    tiny = products.index((1, 2))
    (v, w), = np.argwhere(table == tiny)
    X[v * k:(v + 1) * k, w * k:(w + 1) * k] = X[w * k:(w + 1) * k, v * k:(v + 1) * k] = 9e-15 / k
    G = gram(g, mode, d, k, X)
    cube = (1, 1, 1)
    f = gram_to_poly(G) + NCPoly.monomial(cube, g, mode, above * np.eye(k))
    assert 0 < np.linalg.norm(block_sums(X, table)[tiny]) <= COEFF_DROP_TOL and cube not in products
    assert (cube in f.words) == (above > 0)

    cert, reference = factor_gram(G), ncpoly_factors(G)
    assert not all(C.any(axis=(1, 2)).all() for C in cert.factors)
    note, residual, _ = refuse_certificate(f, cert)
    want = max(_miss(gram_to_poly(G), f), _miss(ncpoly_reconstruction(reference, G), f))
    assert residual == want and residual >= above
    assert note == ("" if want <= EPS_CERT else f"Gram matrix miss the input by {want:.3e}")
    assert jsonio.dumps(_sos_json(cert)["factors"]) == jsonio.dumps([poly_to_json(r) for r in reference])


@pytest.mark.parametrize("f", [interior_sos_input(1, 2, MONOID, 1, 2), interior_sos_input(2, 1, GROUP, 2, 1),
                               group_fixture()], ids=["monoid", "group", "group-boundary"])
def test_spotcheck_sos_runs_no_poly_eval(f, monkeypatch):
    # an sos answer is proved by its Gram matrix and its squares; f is evaluated nowhere
    out = certify(f)
    assert out.kind == "sos"

    def refuse(*args):
        raise AssertionError("poly_eval in the sos spot check")

    monkeypatch.setattr(importlib.import_module("ncsos.certify"), "poly_eval", refuse)
    assert refuse_certificate(f, out.certificate)[0] == ""


def test_certify_sum_of_squares():
    out = certify(x(1) * x(1) + x(2) * x(2))
    assert out.kind == "sos"
    assert len(out.certificate.factors) == 2
    assert out.certificate.residual < 1e-9


def test_certify_perfect_square():
    f = (x(1) + x(2)).adjoint() * (x(1) + x(2))
    out = certify(f)
    assert out.kind == "sos"
    products = out.certificate.gram.index[0]
    assert set(f.words) <= set(products)
    assert all(opnorm(c) < 1e-9 for c in out.certificate.reconstruction() - f.on(products))


def test_certify_matrix_coefficients_sos():
    rng = np.random.default_rng(19)
    A, B = rand_matrix(2, rng), rand_matrix(2, rng)
    r = NCPoly(2, MONOID, 2, {(1,): A, (2,): B})
    f = r.adjoint() * r
    out = certify(f)
    assert out.kind == "sos"
    assert out.certificate.residual <= 1e-7


def test_certify_group_sos_fixture():
    out = certify(group_fixture())
    assert out.kind == "sos"
    assert out.certificate.residual <= 1e-7
    # factors reconstruct 2 - u1 - u1^-1; each factor lies on the degree-1 basis (1, u1, u1^-1)
    assert out.certificate.factors.shape[1:] == (3, 1, 1)


def test_factor_search_finds_a_boundary_point():
    # every Gram matrix of 2 - u1 - u1^-1 has (1, 1, 1) in its kernel: Dykstra
    # spends its budget, and the factor search returns a boundary point
    f = group_fixture()
    sys = gram_system_at(f, 1)
    res = solve_feasibility(sys, interior=free_state(f, 1))
    assert res.feasible and res.iterations == DEFAULT_MAX_ITER and res.rank == 2
    X = res.X
    assert np.abs(sys.nearest(X) - X).max() < 1e-10
    assert _low_eig(X)[0] >= -DEFAULT_TOL
    # 1* X 1 adds up the five class sums, whose targets sum to 0: it is the
    # sum of the class misses, each at most DEFAULT_TOL
    miss = sys._class_sums(X) - sys.targets
    assert np.abs(miss.view(float)).max() <= DEFAULT_TOL
    assert abs(np.ones(3) @ X @ np.ones(3) - miss.sum()) < 1e-14


def test_factor_search_is_bit_identical():
    f = group_fixture()
    sys = gram_system_at(f, 1)
    X1 = solve_feasibility(sys, interior=free_state(f, 1)).X
    X2 = solve_feasibility(sys, interior=free_state(f, 1)).X
    assert X1.tobytes() == X2.tobytes()


def test_evaluation_budget_counts_the_prefix_images():
    # f(X) alone is 64 MiB, inside the 0.25 GiB budget; poly_eval also holds
    # the identity, the images of x1^7, the prefix x1^7 shares with x1^8, the
    # running product and one term: 1 + 7 + 1 + 1 more arrays of side 2048
    f = sum((NCPoly.monomial((1,) * i, 1) for i in range(2, 9)), NCPoly.monomial((1,), 1))
    assert 16 * 2048 ** 2 < MAX_BYTES
    assert refuse_evaluation(f, 2048) == "f(X) of side 2048 would take 0.688 GiB, over the 0.25 GiB budget"
    assert refuse_evaluation(f, 1024) == ""


# -- dual ----------------------------------------------------------------------


def test_dual_works_at_the_primal_degree():
    # the dual works at the primal's degree in both modes, a constant input
    # at d = 0 too: every letter shift has an empty domain, so GNS completes
    # it to the zero operator (monoid) or the identity (group)
    group_witness = NCPoly.constant(1.0, 1, GROUP) + u(1) + u(-1)
    for f, d in ((anticommutator(), 1), (anticommutator(), 2), (group_witness, 1)):
        assert run_dual(f, d).model.functional.index[1].shape == (count_words(f.g, d, f.mode),) * 2
    for mode, plain in ((MONOID, np.zeros((1, 1))), (GROUP, np.eye(1))):
        model = run_dual(NCPoly.constant(-1.0, 2, mode), 0).model
        assert model.functional.index[1].shape == (1, 1) and model.dim == 1
        assert all(np.array_equal(Y, plain) for Y in model.operators.entries)


def _pair_classes(g, d, mode):
    """Basis index pairs by product word, found pair by pair with concat and
    listed in graded order of the products."""
    words = enumerate_words(g, d, mode)
    classes = {}
    for v, word_v in enumerate(words):
        for w, word_w in enumerate(words):
            classes.setdefault(concat(involute(word_v, mode), word_w, mode), []).append((v, w))
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
    assert out.certificate.factors.shape == (0, 1, 1, 1)


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
    f = NCPoly(1, MONOID, 2, {(1,): C})
    out = certify(f)
    assert out.kind == "witness" and out.min_eig <= -1e-6
    assert out.model.operators.hermitian_defect() <= 1e-10


def test_certify_group_matrix_coefficient_witness():
    C = np.array([[0, 1], [1, 0]], dtype=complex)
    f = NCPoly(1, GROUP, 2, {(): 0.5 * np.eye(2), (1,): C / 2, (-1,): C / 2})
    out = certify(f)
    assert out.kind == "witness" and out.min_eig <= -1e-6
    assert out.model.operators.unitary_defect() <= 1e-10


# -- exclusivity ---------------------------------------------------------------


def test_exclusivity_on_decided_instances():
    f_sos = x(1) * x(1) + x(2) * x(2)
    assert run_dual(f_sos, 1).model is None

    f_wit = anticommutator()
    assert run_primal(f_wit, 1)[0].certificate is None


@pytest.mark.parametrize("f", [x(1) * x(1) + x(2) * x(2), group_fixture()],
                         ids=["x1^2+x2^2", "2-u1-u1^-1"])
def test_dual_never_builds_a_model_for_boundary_sos(f, monkeypatch):
    # these inputs vanish somewhere, so the dual's Gram system has a psd
    # point, found by Dykstra or by the factor search after it stalls: either way
    # there is no Farkas certificate, and no functional reaches GNS
    module = importlib.import_module("ncsos.certify")  # ncsos.certify is the function
    calls = []
    for name in ("gns_construct", "gns_construct_unitary"):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda S, _f=original: calls.append(S) or _f(S))
    assert run_dual(f, 1).model is None
    assert calls == []


def _raise_gns_error(S):
    raise GnsError("shift action is not well defined numerically (fit residual 1.000e+00)")


@pytest.mark.parametrize("name, value, note, kind, search", [
    ("ncsos.certify.gns_construct", _raise_gns_error,
     "GNS failed: shift action is not well defined numerically (fit residual 1.000e+00)",
     "witness", "tuple search, side 1"),
    ("ncsos.certify.gns_verify", lambda S, model: 1.0, "GNS verification residual 1.000e+00",
     "undecided", "tuple search to side 3: GNS verification residual 1.000e+00"),
    ("ncsos.sdp.MAX_BYTES", 0, "f(X) of side 3 would take 0.000245 GiB, over the 0.00 GiB budget",
     "undecided", "tuple search: f(X) of side 1 would take 0.000244 GiB, over the 0.00 GiB budget"),
], ids=["gns-error", "verify-residual", "evaluation-budget"])
def test_dual_states_why_it_builds_no_witness(name, value, note, kind, search, monkeypatch):
    # past the Farkas certificate, GNS raising, a verification residual above
    # GNS_VERIFY_TOL and an f(Y) over refuse_evaluation's budget each leave
    # the dual without a GNS witness, with the certificate's pairing and then
    # its own reason; the tuple search follows, with its own note: x1 x2 +
    # x2 x1 is -2 at the scalars (1, -1), so it finds a witness at side 1
    # unless its gate or the budget refuses it too
    f = anticommutator()
    assert run_dual(f, 1).model.dim == 3
    module, _, attr = name.rpartition(".")
    monkeypatch.setattr(importlib.import_module(module), attr, value)
    out = run_dual(f, 1)
    assert out.kind == kind and (out.model is None) == (out.min_eig is None) == (kind == "undecided")
    pairing, refusal, searched = out.note.split("; ")
    assert pairing.startswith("Farkas certificate, pairing -") and refusal == note and searched == search
    if kind == "witness":
        assert out.model.dim == 1 and out.min_eig <= -EPS_WIT


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
    # GNS completes each letter shift to an exactly self-adjoint operator
    out = run_dual(monoid_witness_input(seed, 1, 2, 2), 2)
    assert out.kind == "witness", out.note
    assert out.model.operators.hermitian_defect() == 0.0 and out.min_eig <= -1e-6


def test_paper_single_square_decides(tmp_path, capsys):
    # the paper's p = r* r at g=2, d=3, k=2 (m = 30): its top-degree Gram
    # block is fixed and of rank 2, so no Gram matrix is positive definite
    # and Dykstra spends its budget; the factor search finds r at rank 2
    rng = np.random.default_rng(3)
    N = rng.standard_normal
    r = NCPoly(2, MONOID, 2, {w: (N((2, 2)) + 1j * N((2, 2))) / np.sqrt(2) for w in enumerate_words(2, 3)})
    path, outcome = tmp_path / "f.json", tmp_path / "outcome.json"
    path.write_text(jsonio.dumps(poly_to_json(r.adjoint() * r)))
    assert main(["certify", str(path), "--out", str(outcome)]) == 0
    diagnostics = json.loads(outcome.read_text())["diagnostics"]
    assert diagnostics["iterations"] == DEFAULT_MAX_ITER and diagnostics["note"] == "factor search, rank 2"
    capsys.readouterr()
    assert main(["spotcheck", str(path), str(outcome)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def boundary_family(g):
    """sum_i (1 - u_i)* (1 - u_i) + sum_{i<j} [u_i, u_j]* [u_i, u_j], SOS and
    zero at the identity tuple, so no Gram matrix is positive definite."""
    u = [NCPoly.monomial((i,), g, GROUP) for i in range(1, g + 1)]
    one = NCPoly.constant(1.0, g, GROUP)
    squares = [one - a for a in u] + [a * b - b * a for i, a in enumerate(u) for b in u[i + 1:]]
    return sum((r.adjoint() * r for r in squares[1:]), squares[0].adjoint() * squares[0])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="regression: the factor search descends sublinearly on these faces and ends "
                          "undecided; the removed interior-point handover decided both sos")
@pytest.mark.parametrize("case", ["boundary-family-g3", "known-answer-seed-1-monoid-g2-d2-k1"])
def test_boundary_sos_the_factor_search_leaves_undecided(case):
    # Gram side 37, and side 7: the ladder ends at rank 2 (phi rises from
    # rank 1) and at rank 5 (phi stalls near 1e-8), with no psd point
    if case == "boundary-family-g3":
        f = boundary_family(3)
    else:
        f = known_answer_input(1, MONOID, 2, 2, 1, None)[0]
    assert run_primal(f, 2)[0].kind == "sos"


@pytest.mark.parametrize("mode", [MONOID, GROUP])
def test_point_functional_is_reproduced_by_its_tuple(mode):
    # the tuple search's evidence: the functional of a tuple and a vector,
    # which gns_verify reproduces up to rounding and whose quotient is psd
    rng = np.random.default_rng(5)
    f = _gram_poly(5, 2, mode, 2, d=2)
    Z = [rand_matrix(3, rng) for _ in range(2)]
    Y = OperatorTuple(mode, [(z + z.conj().T) / 2 if mode == MONOID else np.linalg.qr(z)[0] for z in Z])
    gamma = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    S = point_functional(f, constraint_index(2, 2, mode), Y, gamma)
    assert gns_verify(S, WitnessModel(Y, gamma, S)) <= 1e-12
    assert np.linalg.eigvalsh(quotient_matrix(S)).min() >= -1e-12


def test_tuple_search_is_deterministic():
    # r* r - 1e-4 at monoid g=1, d=1, k=2: no Farkas certificate at degree 1,
    # and the tuple search finds the same witness each time, with no random draw
    f = known_answer_input(0, MONOID, 1, 1, 2, 1e-4)[0]
    first, second = run_dual(f, 1), run_dual(f, 1)
    assert first.kind == "witness" and "; tuple search, side 1; " in first.note
    assert first.note == second.note and first.min_eig == second.min_eig <= -EPS_WIT
    assert first.model.gamma.tobytes() == second.model.gamma.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first.model.operators.entries,
                                                          second.model.operators.entries))


def test_tuple_search_gradient_reads_a_long_word():
    # x1^1500 at y = 1.0001, a word longer than Python's recursion limit:
    # each suffix image is one product with the one before it
    f = NCPoly.monomial((1,) * 1500, 1, MONOID)
    low, grad, _ = _lowest(f, _suffixes(f), OperatorTuple(MONOID, [np.array([[1.0001]])]))
    assert low == pytest.approx(1.0001 ** 1500) and grad.real == pytest.approx(1500 * 1.0001 ** 1499)


def test_tuple_search_reads_an_overflowing_value_as_infinite():
    # x1^2 at y = 1e200 overflows float64: the value is +inf, with a zero
    # gradient and no eigenvector, so lbfgs backtracks from such a step
    f = NCPoly.monomial((1, 1), 1, MONOID)
    with np.errstate(over="ignore", invalid="ignore"):
        low, grad, v = _lowest(f, _suffixes(f), OperatorTuple(MONOID, [np.array([[1e200]])]))
    assert low == np.inf and v is None and grad.shape == (1, 1, 1) and not grad.any()


@pytest.mark.parametrize("scale", [1e9, 1e12])
def test_tuple_search_does_not_call_rounding_a_witness(scale):
    # scale (2 - u1 - u1^-1) = scale (1 - u1)* (1 - u1) is SOS, and its solve
    # ends with neither a point nor a certificate; the tuple search drives
    # the computed min eig of f(Y) below -EPS_WIT by rounding alone, and the
    # witness gate refuses it by _rounding's bound
    u1 = NCPoly.monomial((1,), 1, GROUP)
    out = certify((NCPoly.constant(2.0, 1, GROUP) - u1 - u1.adjoint()) * scale)
    assert out.kind == "undecided" and "; tuple search to side 3: min eig -" in out.note, out.note
    assert " on rounding and the operator defect; " in out.note
    assert float(out.note.split("min eig ")[1].split()[0]) <= -EPS_WIT


def test_rounding_covers_the_operator_defect():
    # at y = 1 + 1e-9, unitary within OPERATOR_DEFECT_TOL, 1e9 (2 - u1 - u1^-1)
    # is -2: _rounding counts it as the defect's, and refuse_witness refuses it
    u1 = NCPoly.monomial((1,), 1, GROUP)
    f = (NCPoly.constant(2.0, 1, GROUP) - u1 - u1.adjoint()) * 1e9
    Y = OperatorTuple(GROUP, [np.array([[1 + 1e-9]])])
    refusal, low, _ = refuse_witness(f, Y)
    bound = _rounding(f, Y)
    assert low < -1 and bound >= -low
    assert refusal == f"min eig {low:.3e} is within the bound {bound:.3e} on rounding and the operator defect"


def test_tuple_search_finds_no_witness_on_a_scaled_square():
    # 1e9 r* r, r over the 5 words of group degree 1 at g=2, has 17 words;
    # at side 3 rounding takes the computed min eig below -EPS_WIT, and the
    # witness gate refuses it by _rounding's bound
    rng = np.random.default_rng(0)
    r = NCPoly(2, GROUP, 1, {w: rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
                             for w in enumerate_words(2, 1, GROUP)})
    f = r.adjoint() * r * 1e9
    note, evidence = tuple_search(f, constraint_index(2, 1, GROUP))
    assert len(f.words) == 17 and evidence == {} and note.startswith("tuple search to side 3: min eig -")
    assert note.endswith(" on rounding and the operator defect")
    assert float(note.split("min eig ")[1].split()[0]) <= -EPS_WIT


@pytest.mark.parametrize("seed", [0, 6, 10, 48, 52, 55, 56, 79])
def test_near_boundary_witness_decides(seed):
    # Dykstra spends its budget on the dual's system of these barely non-SOS
    # inputs; the residual of the factor search is the witness functional
    f = monoid_witness_input(seed, 1, 1, 2, margin=1e-3)
    out = certify(f)
    assert out.kind == "witness", out.note
    assert out.note.startswith("Farkas certificate, pairing -") and out.note.endswith("; factor search, rank 2")
    assert refuse_witness(f, out.model.operators)[0] == ""


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
    min_eig = run_dual(f, d).min_eig
    module = importlib.import_module("ncsos.gns")
    frames = module._quotient_frames
    rng = np.random.default_rng(seed)

    def rotated(S):
        W = frames(S)
        return np.linalg.qr(rand_matrix(len(W), rng))[0] @ W

    monkeypatch.setattr(module, "_quotient_frames", rotated)
    for _ in range(3):
        out = run_dual(f, d)
        assert out.model is not None and abs(out.min_eig - min_eig) <= 1e-10


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
    out = run_dual(f, 2)
    assert out.kind == "witness", out.note
    assert len(calls) == 1
    defect = (out.model.operators.hermitian_defect() if f.mode == MONOID
              else out.model.operators.unitary_defect())
    assert defect <= 1e-8 and out.min_eig <= -1e-6


@pytest.mark.parametrize("f", [monoid_witness_input(1, 1, 2, 2), group_witness_input(1, 1, 2, 2)],
                         ids=["monoid", "group"])
def test_dual_functional_is_the_conjugated_certificate(f):
    # the Hankel storage of the dual's functional is the conjugate of the
    # Farkas certificate's matrix A*(h) at unit trace, to the bit
    index = constraint_index(f.g, 2, f.mode)
    sys = gram_system(f, index)
    res = solve_feasibility(sys, interior=free_state(f, 2))
    out = run_dual(f, 2, (index, res))
    assert out.kind == "witness", out.note
    Z = sys.broadcast(res.certificate)
    assert np.array_equal(quotient_matrix(out.model.functional), Z.conj() / np.trace(Z).real)


@pytest.mark.parametrize("f", [group_witness_input(1, 1, 2, 2), monoid_witness_input(1, 1, 2, 2),
                               anticommutator(), NCPoly.constant(-1.0, 2, MONOID),
                               NCPoly.constant(-1.0, 2, GROUP),
                               NCPoly.constant(np.diag([1.0, -2.0]), 2, GROUP)],
                         ids=["group", "monoid", "anticommutator", "constant-monoid", "constant-group",
                              "constant-group-k2"])
def test_certify_solves_each_distinct_system_once(f, monkeypatch):
    # in both modes the dual's system is the primal's, so the dual reads the
    # primal's certificate: one solve, a constant's of side k at degree 0
    # too, and its witness passes the spot check
    module = importlib.import_module("ncsos.certify")
    sizes = []
    monkeypatch.setattr(module, "solve_feasibility",
                        lambda sys, _f=module.solve_feasibility, **kw: sizes.append(sys.m) or _f(sys, **kw))
    out = certify(f)
    assert out.kind == "witness"
    assert sizes == [count_words(f.g, out.degree, f.mode) * f.k]
    if f.mode == MONOID:
        assert out.model.operators.hermitian_defect() == 0.0
    else:
        assert out.model.operators.unitary_defect() <= 1e-10
    assert refuse_witness(f, out.model.operators)[0] == ""


@pytest.mark.parametrize("f", [group_witness_input(1, 1, 2, 2), monoid_witness_input(1, 1, 2, 2)],
                         ids=["group", "monoid"])
def test_dual_builds_its_word_pair_table_once(f, monkeypatch):
    # run_dual builds the degree-d table once; GNS and its verification read
    # the functional's own, and certify builds it once: in both modes the
    # dual reads the primal's
    gram_module = importlib.import_module("ncsos.gram")
    module = importlib.import_module("ncsos.certify")
    builds, inside = [], {}
    monkeypatch.setattr(gram_module, "word_pair_table", lambda words, mode, _f=gram_module.word_pair_table:
                        builds.append(len(words)) or _f(words, mode))
    for name in ("gns_construct", "gns_construct_unitary", "gns_verify"):
        def counted(*args, _f=getattr(module, name), _name=name):
            before = len(builds)
            out = _f(*args)
            inside[_name] = len(builds) - before
            return out
        monkeypatch.setattr(module, name, counted)
    assert run_dual(f, 2).model is not None
    construct = "gns_construct" if f.mode == MONOID else "gns_construct_unitary"
    assert builds == [count_words(f.g, 2, f.mode)]
    assert inside == {construct: 0, "gns_verify": 0}
    builds.clear()
    assert certify(f).kind == "witness"
    assert builds == [count_words(f.g, 2, f.mode)]


@pytest.mark.parametrize("command, f, code, builds", [
    ("certify", interior_sos_input(1, 2, MONOID, 1, 1), 0, 1),
    ("certify", interior_sos_input(1, 2, GROUP, 1, 1), 0, 1),
    ("decompose", interior_sos_input(1, 2, MONOID, 1, 1), 0, 1),
    ("spotcheck", interior_sos_input(1, 2, GROUP, 1, 1), 0, 1),
    ("certify", group_witness_input(1, 1, 2, 2), 1, 1),
    ("certify", monoid_witness_input(1, 1, 2, 2), 1, 1),
    ("witness", monoid_witness_input(1, 1, 2, 2), 1, 1),
    ("certify", NCPoly.constant(-1.0, 2, MONOID), 1, 1),
    ("certify", NCPoly.constant(-1.0, 2, GROUP), 1, 1),
], ids=["sos-monoid", "sos-group", "decompose", "spotcheck-sos", "witness-group", "witness-monoid",
        "witness-command", "constant-monoid", "constant-group"])
def test_each_command_builds_its_word_pair_tables_once(command, f, code, builds, tmp_path, capsys,
                                                       monkeypatch):
    # one table per degree, carried by the evidence it indexes, through the
    # JSON output too: the factors are summed on the Gram matrix's table, and
    # in both modes the dual reads the primal's, a constant's at degree 0 too
    path = tmp_path / "f.json"
    path.write_text(jsonio.dumps(poly_to_json(f)))
    argv = [command, str(path)]
    if command == "spotcheck":
        cert = tmp_path / "cert.json"
        assert main(["certify", str(path), "--out", str(cert)]) == 0
        argv.append(str(cert))
    gram_module = importlib.import_module("ncsos.gram")
    sizes = []
    monkeypatch.setattr(gram_module, "word_pair_table", lambda words, mode, _f=gram_module.word_pair_table:
                        sizes.append(len(words)) or _f(words, mode))
    assert main(argv) == code
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
    assert out.iterations == 1 and out.note.startswith("Farkas certificate")


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
    assert refuse_witness(f, out.model.operators)[0] == ""


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


@pytest.mark.parametrize("mode", [MONOID, GROUP])
@pytest.mark.parametrize("g, D, k", [(g, D, k) for g in (1, 2) for D in (1, 2) for k in (1, 2)])
def test_free_state_is_the_vacuum_state_of_the_canonical_tuple(mode, g, D, k):
    # K = kron(M* M, I_k) / trace, M's columns T^w vacuum for the canonical
    # tuple T: A = L + L* (monoid) or the unitaries U (group)
    T = build_symmetrized(g, D) if mode == MONOID else build_unitaries(g, D)
    M = word_images(T, enumerate_words(g, D, mode), np.eye(T.dim, 1, dtype=complex))
    K = np.kron(M.conj().T @ M, np.eye(k))
    assert np.array_equal(free_state(NCPoly.zero(g, mode, k), D), K / np.trace(K).real)


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


@pytest.mark.parametrize("mode", [MONOID, GROUP])
@pytest.mark.parametrize("word, d", [(None, 0), ((), 0), ((1,), 1), ((1, 2), 1), ((1, 2, 2), 2),
                                     ((1, 2, 2, 1), 2), ((2,) * 7, 4)],
                         ids=["zero", "constant", "deg1", "deg2", "deg3", "deg4", "deg7"])
def test_infer_degree_is_half_the_input_degree_rounded_up(mode, word, d):
    if word is None:
        f = NCPoly.zero(2, mode, 1)
    else:
        w = NCPoly.monomial(word, 2, mode)
        f = w + w.adjoint()
    assert f.degree() == (0 if word is None else len(word))
    assert infer_degree(f) == d


def test_infer_degree_refuses_coefficients_that_would_overflow_and_oversized_alphabets():
    # squares of entries up to MAX_COEFF stay finite through the solve; an
    # alphabet over MAX_GRAM_SIDE letters is refused before any word is built
    assert infer_degree(NCPoly.constant(-1e150, 1)) == 0
    with pytest.raises(CertifyError, match=r"^a coefficient's real or imaginary part 1\.000e\+151 "
                                           r"is above the limit 1e\+150$"):
        infer_degree(NCPoly.constant(-1e151, 1))
    with pytest.raises(CertifyError, match=r"imaginary part 2\.000e\+151 is above"):
        infer_degree(NCPoly.constant(np.array([[0, 2e151j], [-2e151j, 0]]), 1))
    assert infer_degree(NCPoly.constant(-1.0, 512)) == 0
    with pytest.raises(CertifyError, match="^513 letters are above the limit 512 on the Gram side$"):
        infer_degree(NCPoly.constant(-1.0, 513))


def test_a_solve_that_cannot_start_runs_once(monkeypatch):
    # x1^34: at degree 17 no class-constant matrix of one letter is
    # numerically positive definite, the free state included, so the solve
    # ends before its first iteration; certify's dual reads that one result
    # and never solves again, and its tuple search finds no witness, x1^34
    # being a square
    module = importlib.import_module("ncsos.certify")
    sizes = []
    monkeypatch.setattr(module, "solve_feasibility",
                        lambda sys, _f=module.solve_feasibility, **kw: sizes.append(sys.m) or _f(sys, **kw))
    reason = "the interior point is not positive definite on the classes"
    out = certify(NCPoly.monomial((1,) * 34, 1, MONOID))
    assert out.kind == "undecided" and out.degree == 17 and sizes == [18]
    assert out.iterations == 0
    farkas, searched, ended = out.note.split("; ")
    assert farkas == "no Farkas certificate at degree 17" and ended == reason
    assert searched.startswith("tuple search to side 3, min eig ") and float(searched.split()[-1]) > -EPS_WIT


# -- the certificate gate ------------------------------------------------------------
# spotcheck on certify's own files is tested in test_cli.py, fixture by fixture


def test_spotcheck_zero():
    # the zero polynomial's certificate is the zero Gram matrix
    f = NCPoly.zero(2, MONOID, 1)
    out = certify(f)
    note, residual, low = refuse_certificate(f, out.certificate)
    assert note == "" and residual == 0.0 and abs(low) <= 1e-12

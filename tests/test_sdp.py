import numpy as np
import pytest

from ncsos import sdp
from ncsos.certify import free_state, hankel_system
from ncsos.gram import GramMatrix, constraint_index, factor_gram
from ncsos.poly import NCPoly
from ncsos.sdp import (
    DEFAULT_MAX_ITER, DEFAULT_TOL, EPS, EPS_RANK, AffineSystem, SdpError, _low_eig, factor_search, lbfgs,
    project_affine, project_psd, solve_feasibility,
)
from ncsos.words import GROUP, MONOID, concat, enumerate_words, involute

from test_certify import (
    gram_system_at, group_fixture, group_witness_input, interior_sos_input, monoid_witness_input,
)
from test_known_answers import known_answer_input
from test_poly import rand_hermitian, rand_matrix


def trace_system(m, value):
    """Tr X = value, and the off-diagonal entries sum to 0: two classes.
    The diagonal is one class, so np.eye(m) is an interior point."""
    labels = np.ones((m, m), dtype=int)
    np.fill_diagonal(labels, 0)
    return AffineSystem(m, labels, [value, 0.0])


def pinned_entry_system(m, i, j, value, trace):
    """X[i, j] = value (and X[j, i] = conj(value)), i != j, Tr X = trace,
    and the other off-diagonal entries, if any, sum to 0."""
    labels = np.full((m, m), 3)
    np.fill_diagonal(labels, 2)
    labels[i, j], labels[j, i] = 0, 1
    return AffineSystem(m, labels, [value, np.conj(value), trace, 0.0][:4 if m > 2 else 3])


def linear_part(sys, X):
    """The linear part of the affine projection at X."""
    return project_affine(X, sys)[0] - project_affine(np.zeros_like(X), sys)[0]


def test_project_psd_clips():
    # the projection comes with the eigenpairs of X it clipped
    X = np.diag([2.0, -1.0]).astype(complex)
    P, lam, Q = project_psd(X)
    assert np.allclose(P, np.diag([2.0, 0.0]))
    assert lam.tolist() == [-1.0, 2.0] and np.allclose((Q * lam) @ Q.conj().T, X)


def test_project_psd_fixpoint():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    P = m @ m.conj().T
    assert np.linalg.norm(project_psd(P)[0] - P) < 1e-12


def test_project_psd_nearest_point():
    rng = np.random.default_rng(1)
    X = rand_hermitian(4, rng)
    PX = project_psd(X)[0]
    dist = np.linalg.norm(X - PX)
    for _ in range(100):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        P = m @ m.conj().T
        assert dist <= np.linalg.norm(X - P) + 1e-12


def test_project_affine_trace_hyperplane():
    sys = trace_system(2, 1.0)
    X, _ = project_affine(np.zeros((2, 2), dtype=complex), sys)
    assert np.allclose(X, np.eye(2) / 2)


def test_project_affine_fixpoint_and_idempotent():
    rng = np.random.default_rng(2)
    sys = trace_system(3, 2.0)
    X = rand_hermitian(3, rng)
    off = (X.sum() - np.trace(X)).real  # already satisfies Tr = 2 and sums 0 off the diagonal
    X = X - (np.trace(X).real - 2.0) * np.eye(3) / 3 - off / 6 * (1 - np.eye(3))
    assert np.linalg.norm(project_affine(X, sys)[0] - X) < 1e-12
    Y = rand_hermitian(3, rng)
    P1, _ = project_affine(Y, sys)
    P2, _ = project_affine(P1, sys)
    assert np.linalg.norm(P2 - P1) < 1e-10


def test_project_affine_entry_pinning():
    m = 3
    sys = pinned_entry_system(m, 0, 1, 0.25 - 0.5j, trace=1.0)
    X, _ = project_affine(np.zeros((m, m), dtype=complex), sys)
    assert abs(X[0, 1] - (0.25 - 0.5j)) < 1e-10
    assert abs(X[1, 0] - (0.25 + 0.5j)) < 1e-10


def test_inconsistent_system_ends_the_solve_with_its_reason(monkeypatch):
    # a class and its mirror pinned to targets conjugate only within EPS_HERM:
    # no Hermitian matrix meets both, and every projection leaves half the
    # gap, which ends the solve at its first iteration once it is over EPS_AFFINE
    sys = pinned_entry_system(2, 0, 1, 1.0, trace=2.0)
    sys = AffineSystem(2, sys.labels, [1.0, 1.0 + 8e-10, 2.0])
    residual = project_affine(np.zeros((2, 2), dtype=complex), sys)[1]
    assert abs(residual - 4e-10) < 1e-15
    monkeypatch.setattr(sdp, "EPS_AFFINE", 1e-10)
    res = solve_feasibility(sys, np.eye(2))
    assert not res.feasible and res.X is None and res.certificate is None
    assert res.iterations == 1 and res.final_gap == residual
    assert res.reason == "affine residual 4.000e-10, above 1e-10"


def test_affine_residual_from_rounding_stops_the_solve_where_it_came_in():
    # at 1e18 (2 - u1 - u1^-1) the projections of the first seven Dykstra
    # steps meet the class sums within EPS_AFFINE, and the eighth's rounding
    # does not
    f = group_fixture() * 1e18
    res = solve_feasibility(gram_system_at(f, 1), free_state(f, 1))
    assert not res.feasible and res.X is None and res.certificate is None
    assert res.iterations == 8 and res.final_gap > sdp.EPS_AFFINE
    assert res.reason == f"affine residual {res.final_gap:.3e}, above 1e-07"


def test_non_hermitian_constraint_rejected():
    # the sum of a Hermitian matrix over a transpose-closed class is real,
    # and a class target must be a number
    with pytest.raises(SdpError):
        trace_system(2, 1j)
    with pytest.raises(SdpError):
        trace_system(2, np.nan)


def test_non_hermitian_class_pattern_rejected():
    # a class's transpose must be one class, pinned to the conjugate target
    with pytest.raises(SdpError):
        AffineSystem(2, [[2, 0], [1, 1]], [1.0, 1.0, 1.0])
    with pytest.raises(SdpError):
        AffineSystem(2, [[2, 0], [1, 2]], [1.0, 2.0, 1.0])
    with pytest.raises(SdpError):
        AffineSystem(2, [[0, 1], [1, 0]], [1j, 0.0])  # a diagonal sum is real
    with pytest.raises(SdpError):
        AffineSystem(2, [[2, 0], [1, 2]], [1.0, np.nan, 1.0])


@pytest.mark.parametrize("labels, targets", [([[-1, 0], [1, 2]], [1.0, 1.0, 0.0]),
                                             ([[0, 1], [1, 2]], [1.0, 0.0])],
                         ids=["negative-label", "unnamed-class"])
def test_labels_must_partition_the_entries_into_the_classes(labels, targets):
    # every entry lies in exactly one class, as each Gram index pair (v, w)
    # lies in the class of v* w, and each class has a target
    with pytest.raises(SdpError, match="labels must"):
        AffineSystem(2, labels, targets)


# -- the closed-form projection against an explicit constraint matrix --------


def _rand_hermitian_poly(g, mode, k, rng):
    r = NCPoly(g, mode, k, {w: rand_matrix(k, rng) for w in enumerate_words(g, 1, mode)})
    return r.adjoint() * r + NCPoly.constant(rand_hermitian(k, rng), g, mode)


def _reference_rows(f, d):
    """Real-linear constraints on the (Re, Im) coordinates of all m x m
    matrices, written out one by one from the classes of basis pairs with
    equal products concat(involute(v), w): the class sums, and X = X^*."""
    words = enumerate_words(f.g, d, f.mode)
    classes = {}
    for v, word_v in enumerate(words):
        for w, word_w in enumerate(words):
            classes.setdefault(concat(involute(word_v, f.mode), word_w, f.mode), []).append((v, w))
    k, n = f.k, len(words)
    m = n * k
    rows, rhs = [], []

    def add(coeffs, value):  # sum of coeffs[(i, j)] * X[i, j] == value, complex
        for part in (lambda z: z.real, lambda z: z.imag):
            row = np.zeros(2 * m * m)
            for (i, j), c in coeffs.items():
                # Re / Im of c * X[i, j] in terms of Re X[i, j] and Im X[i, j]
                row[i * m + j] += part(c)
                row[m * m + i * m + j] += part(1j * c)
            rows.append(row)
            rhs.append(part(value))

    for u, pairs in classes.items():
        for a in range(k):
            for b in range(k):
                add({(v * k + a, w * k + b): 1.0 for v, w in pairs}, f.on([u])[0][a, b])
    for i in range(m):
        for j in range(i, m):  # Re X[i, j] = Re X[j, i], Im X[i, j] = -Im X[j, i]
            re, im = np.zeros(2 * m * m), np.zeros(2 * m * m)
            re[i * m + j] += 1.0
            re[j * m + i] -= 1.0
            im[m * m + i * m + j] += 1.0
            im[m * m + j * m + i] += 1.0
            rows += [re, im]
            rhs += [0.0, 0.0]
    return np.array(rows), np.array(rhs)


@pytest.mark.parametrize("mode", [MONOID, GROUP])
@pytest.mark.parametrize("g, k", [(1, 1), (2, 1), (1, 2), (2, 2)])
@pytest.mark.parametrize("kind", ["gram", "hankel"])
def test_project_affine_matches_least_squares(mode, g, k, kind):
    # the dual's system is the Gram system too, built from the word-pair table it holds
    rng = np.random.default_rng([g, k, mode == GROUP])
    f = _rand_hermitian_poly(g, mode, k, rng)
    sys = gram_system_at(f, 1) if kind == "gram" else hankel_system(f, constraint_index(g, 1, mode))
    A, b = _reference_rows(f, 1)
    m = sys.m
    X = rand_hermitian(m, rng)
    x = np.concatenate([X.real.ravel(), X.imag.ravel()])
    ref = x - np.linalg.lstsq(A, A @ x - b, rcond=None)[0]
    assert np.abs(A @ ref - b).max() <= 1e-10  # the reference itself
    ref = ref[:m * m].reshape(m, m) + 1j * ref[m * m:].reshape(m, m)

    P, res = project_affine(X, sys)
    assert np.abs(P - ref).max() <= 1e-10
    assert np.abs(project_affine(P, sys)[0] - P).max() <= 1e-10
    assert res == sys.residual(P) <= 1e-12
    flat = np.concatenate([P.real.ravel(), P.imag.ravel()])
    assert np.abs(A @ flat - b).max() <= 1e-12


@pytest.mark.parametrize("mode", [MONOID, GROUP])
@pytest.mark.parametrize("k", [1, 2])
def test_dykstra_hands_project_psd_exactly_hermitian_matrices(mode, k, monkeypatch):
    # project_psd gives its input to eigh as it is, and eigh reads one
    # triangle: every x + p the loop forms must be Hermitian bit for bit.
    # An interior SOS input, a barely non-SOS one and a single square r* r
    # (1,000 iterations, then the factor search)
    seen = []

    def checked(X):
        seen.append(np.array_equal(X, X.conj().T))
        return project_psd(X)

    monkeypatch.setattr(sdp, "project_psd", checked)
    witness_input = monoid_witness_input if mode == MONOID else group_witness_input
    for f in (interior_sos_input(0, 2, mode, 1, k), witness_input(0, 2, 1, k, margin=1e-3),
              known_answer_input(0, mode, 2, 1, k, None)[0]):
        solve_feasibility(gram_system_at(f, 1), free_state(f, 1))
    assert len(seen) > DEFAULT_MAX_ITER and all(seen)


def test_feasible_trace_one():
    sys = trace_system(3, 1.0)
    res = solve_feasibility(sys, np.eye(3))
    assert res.feasible
    assert np.linalg.eigvalsh((res.X + res.X.conj().T) / 2).min() >= -1e-9
    assert sys.residual(res.X) <= 1e-9
    assert abs(np.trace(res.X).real - 1.0) < 1e-9


def test_feasible_with_entry_constraints():
    # pin an off-diagonal entry and the trace; a feasible psd completion exists
    m = 3
    sys = pinned_entry_system(m, 0, 1, 0.3 + 0.1j, trace=2.0)
    res = solve_feasibility(sys, np.eye(m))
    assert res.feasible
    X = res.X
    assert abs(X[0, 1] - (0.3 + 0.1j)) < 1e-8
    assert np.linalg.eigvalsh(X).min() > -1e-9


def test_factor_search_decides_the_scaled_laplacian():
    # 1e4 (2 - u1 - u1^-1) leaves Dykstra undecided after its budget; the
    # factor search finds its squares at rank 2
    f = group_fixture() * 1e4
    res = solve_feasibility(gram_system_at(f, 1), free_state(f, 1))
    assert res.feasible and res.certificate is None and res.reason == ""
    assert res.iterations == DEFAULT_MAX_ITER and res.rank == 2 and _low_eig(res.X)[0] >= -DEFAULT_TOL


@pytest.mark.parametrize("f,rank,columns", [
    (interior_sos_input(0, 2, MONOID, 1, 2), 0, 6),
    (NCPoly.monomial((1, 1), 2) + NCPoly.monomial((2, 2), 2), 0, 2),
    (group_fixture(), 2, 2),
], ids=["interior", "singular", "factor-search"])
def test_feasible_point_comes_with_its_root(f, rank, columns):
    # Dykstra's root drops the eigenvalues at or below EPS_RANK, at most m of
    # them; a rung's root is its R; beyond that, R R* is the point to rounding
    res = solve_feasibility(gram_system_at(f, 1), free_state(f, 1))
    X, R, m = res.X, res.root, len(res.X)
    assert res.feasible and res.rank == rank and R.shape == (m, columns)
    dropped = m * EPS_RANK if rank == 0 else 0.0
    assert np.linalg.norm(R @ R.conj().T - X, 2) <= dropped + 4 * m * EPS * np.linalg.norm(X)


def test_factor_gram_and_the_factor_search_start_run_no_eigensolver(monkeypatch):
    # the factor search starts from the eigenpairs the psd step clipped, and
    # factor_gram regroups the rung's R: neither diagonalizes a point again
    f = group_fixture()
    sys = gram_system_at(f, 1)
    _, lam, Q = project_psd(project_affine(np.zeros((3, 3), dtype=complex), sys)[0])

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rank, R, X, _ = next(factor_search(sys, (lam, Q)))
    cert = factor_gram(GramMatrix(f.g, f.mode, f.k, constraint_index(f.g, 1, f.mode), X), R)
    assert rank == 1 and R.shape == (3, 1) and cert.factors.shape == (1, 3, 1, 1)


def test_certificate_proves_infeasibility():
    # trace = -1 with psd is impossible: H = y I with y > 0 pairs to -2y < 0
    sys = trace_system(2, -1.0)
    res = solve_feasibility(sys, np.eye(2))
    assert not res.feasible and res.X is None
    assert res.iterations == 1
    H = sys.broadcast(res.certificate)  # A*(h), from the class vector h
    assert np.linalg.eigvalsh(H)[0] > 0
    assert np.abs(linear_part(sys, H)).max() <= 1e-15  # H lies in range(A*)
    X0, _ = project_affine(np.zeros((2, 2), dtype=complex), sys)
    assert res.pairing < 0 and abs(np.trace(H @ X0).real - res.pairing) <= 1e-15


def test_negative_constant_certifies_at_iteration_one():
    f = NCPoly.constant(-1.0, 2)
    sys = gram_system_at(f, 0)
    res = solve_feasibility(sys, interior=free_state(f, 0))
    assert res.certificate is not None and res.iterations == 1
    assert res.pairing < 0 and np.linalg.eigvalsh(sys.broadcast(res.certificate))[0] > 0


def test_boundary_sos_gets_no_certificate():
    # every Gram matrix of 2 - u1 - u1^-1 is singular: Dykstra spends its
    # budget with no step passing the certificate test, and the factor
    # search returns a psd point, not a certificate
    f = group_fixture()
    res = solve_feasibility(gram_system_at(f, 1), interior=free_state(f, 1))
    assert res.certificate is None and res.iterations == DEFAULT_MAX_ITER
    assert res.feasible and res.rank > 0 and _low_eig(res.X)[0] >= -DEFAULT_TOL


def test_factor_search_residual_is_a_certificate(monkeypatch):
    # one Dykstra iteration leaves this barely non-SOS input's system
    # uncertified; the factor search's rank-1 rung gives neither a point
    # nor a certificate, and the residual of its rank-2 rung is the certificate
    monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", 1)
    f = monoid_witness_input(0, 1, 1, 2, margin=1e-3)
    res = solve_feasibility(gram_system_at(f, 1), free_state(f, 1))
    assert not res.feasible and res.X is None and res.iterations == 1 and res.rank == 2
    assert res.certificate is not None and res.pairing < 0


def test_lbfgs_minimizes_an_ill_conditioned_quadratic():
    # 1/2 (x - c)* A (x - c) with condition number 1e4, from 0, in the real
    # inner product of complex vectors; the floor ends the descent
    A, c = np.logspace(0, 4, 10), np.arange(10) * (1 + 1j)
    fun = lambda x: (float(np.vdot(x - c, A * (x - c)).real) / 2, A * (x - c), None)
    x, value, _ = lbfgs(fun, np.zeros(10, dtype=complex), np.add, 400, 0.0, 1e-20, 1e-20)
    assert value <= 1e-20 and np.abs(x - c).max() <= 1e-9


def test_interior_point_must_be_positive_definite(monkeypatch):
    # the test reads the interior point through its class means: those of
    # the all-ones matrix are all one, and A*(1) is singular, so the solve
    # ends before any projection, with its reason
    monkeypatch.setattr(sdp, "project_psd", None)
    monkeypatch.setattr(sdp, "project_affine", None)
    res = solve_feasibility(trace_system(2, 1.0), interior=np.ones((2, 2)))
    assert not res.feasible and res.X is None and res.certificate is None
    assert res.iterations == 0 and res.rank == 0
    assert res.reason == "the interior point is not positive definite on the classes"


def test_determinism_bit_identical(monkeypatch):
    m = 4
    sys = pinned_entry_system(m, 1, 2, 0.2, trace=1.0)
    monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", 2000)
    monkeypatch.setattr(sdp, "DEFAULT_TOL", 1e-11)
    r1 = solve_feasibility(sys, np.eye(m))
    r2 = solve_feasibility(sys, np.eye(m))
    assert r1.iterations == r2.iterations
    assert r1.X.tobytes() == r2.X.tobytes()


def test_residuals_eventually_monotone(monkeypatch):
    # the pinned system is solved at the first iteration; the Gram system of
    # 2 - u1 - u1^-1 has no strictly feasible point, so its gap keeps moving
    m = 3
    pinned = pinned_entry_system(m, 0, 2, 0.4 - 0.2j, trace=1.5)
    u1 = NCPoly.monomial((1,), 1, GROUP)
    f = NCPoly.constant(2.0, 1, GROUP) - u1 - u1.adjoint()
    boundary = gram_system_at(f, 1)
    slack = 10 * 1e-12
    monkeypatch.setattr(sdp, "DEFAULT_TOL", 1e-12)

    def gap_after(sys, interior, n):
        monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", n)
        return solve_feasibility(sys, interior).final_gap

    for sys, interior in ((pinned, np.eye(m)), (boundary, free_state(f, 1))):
        gaps = [gap_after(sys, interior, n) for n in (500, 1000, 2000, 4000)]
        for earlier, later in zip(gaps, gaps[1:]):
            assert later <= earlier + slack

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncsos import sdp
from ncsos.certify import free_state, hankel_system
from ncsos.gram import constraint_index
from ncsos.poly import NCPoly
from ncsos.sdp import (
    CENTRING_STEPS, DEFAULT_MAX_ITER, DEFAULT_TOL, MARGIN_GAP_TOL, AffineSystem,
    InconsistentSystemError, SdpError, _hvec, _low_eig, _null_directions, max_margin,
    project_affine, project_psd, solve_feasibility,
)
from ncsos.words import GROUP, MONOID, Word, concat, enumerate_words, involute

from test_certify import _gram_poly, gram_system_at, group_fixture
from test_poly import rand_hermitian, rand_matrix


def trace_system(m, value):
    """Tr X = value: one class over the diagonal."""
    labels = np.full((m, m), -1)
    np.fill_diagonal(labels, 0)
    return AffineSystem(m, labels, [value])


def pinned_entry_system(m, i, j, value, trace=None):
    """X[i, j] = value (and X[j, i] = conj(value)), i != j, and Tr X = trace
    when given."""
    labels = np.full((m, m), -1)
    labels[i, j], labels[j, i] = 0, 1
    targets = [value, np.conj(value)]
    if trace is not None:
        np.fill_diagonal(labels, 2)
        targets.append(trace)
    return AffineSystem(m, labels, targets)


def test_project_psd_clips():
    X = np.diag([2.0, -1.0]).astype(complex)
    assert np.allclose(project_psd(X), np.diag([2.0, 0.0]))


def test_project_psd_fixpoint():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    P = m @ m.conj().T
    assert np.linalg.norm(project_psd(P) - P) < 1e-12


def test_project_psd_nearest_point():
    rng = np.random.default_rng(1)
    X = rand_hermitian(4, rng)
    PX = project_psd(X)
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
    X = X - (np.trace(X).real - 2.0) * np.eye(3) / 3  # already satisfies Tr = 2
    assert np.linalg.norm(project_affine(X, sys)[0] - X) < 1e-12
    Y = rand_hermitian(3, rng)
    P1, _ = project_affine(Y, sys)
    P2, _ = project_affine(P1, sys)
    assert np.linalg.norm(P2 - P1) < 1e-10


def test_project_affine_entry_pinning():
    m = 3
    sys = pinned_entry_system(m, 0, 1, 0.25 - 0.5j)
    X, _ = project_affine(np.zeros((m, m), dtype=complex), sys)
    assert abs(X[0, 1] - (0.25 - 0.5j)) < 1e-10
    assert abs(X[1, 0] - (0.25 + 0.5j)) < 1e-10


def test_inconsistent_system_raises(monkeypatch):
    # a class and its mirror pinned to targets conjugate only within EPS_HERM:
    # no Hermitian matrix meets both, and the projection leaves half the gap
    sys = pinned_entry_system(2, 0, 1, 1.0)
    sys = AffineSystem(2, sys.labels, [1.0, 1.0 + 8e-10])
    assert abs(project_affine(np.zeros((2, 2), dtype=complex), sys)[1] - 4e-10) < 1e-15
    monkeypatch.setattr(sdp, "EPS_AFFINE", 1e-10)
    with pytest.raises(InconsistentSystemError):
        project_affine(np.zeros((2, 2), dtype=complex), sys)


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
        AffineSystem(2, [[-1, 0], [1, 1]], [1.0, 1.0])
    with pytest.raises(SdpError):
        AffineSystem(2, [[-1, 0], [1, -1]], [1.0, 2.0])
    with pytest.raises(SdpError):
        AffineSystem(2, [[0, -1], [-1, -1]], [1j])  # a diagonal sum is real
    with pytest.raises(SdpError):
        AffineSystem(2, [[-1, 0], [1, -1]], [1.0, np.nan])


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
            classes.setdefault(concat(involute(word_v), word_w), []).append((v, w))
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
                add({(v * k + a, w * k + b): 1.0 for v, w in pairs}, f.coeff(u)[a, b])
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


def test_feasible_trace_one():
    sys = trace_system(3, 1.0)
    res = solve_feasibility(sys)
    assert res.feasible
    assert np.linalg.eigvalsh((res.X + res.X.conj().T) / 2).min() >= -1e-9
    assert sys.residual(res.X) <= 1e-9
    assert abs(np.trace(res.X).real - 1.0) < 1e-9


def test_feasible_with_entry_constraints():
    # pin an off-diagonal entry and the trace; a feasible psd completion exists
    m = 3
    sys = pinned_entry_system(m, 0, 1, 0.3 + 0.1j, trace=2.0)
    res = solve_feasibility(sys)
    assert res.feasible
    X = res.X
    assert abs(X[0, 1] - (0.3 + 0.1j)) < 1e-8
    assert np.linalg.eigvalsh(X).min() > -1e-9


def test_infeasible_reports_inconclusive():
    # X[1, 1] = 0 and X[0, 1] = 1 with psd is impossible, but no Farkas
    # certificate exists: a psd H = [[0, a], [a, b]] has a = 0 and pairs to 0
    # (a weakly infeasible system), so Dykstra ends with neither answer
    labels = np.array([[-1, 0], [1, 2]])
    sys = AffineSystem(2, labels, [1.0, 1.0, 0.0])
    res = solve_feasibility(sys)
    assert not res.feasible
    assert res.X is None and res.certificate is None
    assert res.final_gap > DEFAULT_TOL
    assert res.iterations == DEFAULT_MAX_ITER and res.newton_steps > 0


def test_certificate_proves_infeasibility():
    # trace = -1 with psd is impossible: H = y I with y > 0 pairs to -2y < 0
    sys = trace_system(2, -1.0)
    res = solve_feasibility(sys)
    assert not res.feasible and res.X is None
    assert res.iterations == 1
    H = res.certificate
    assert np.linalg.eigvalsh(H)[0] > 0
    assert np.abs(sys.nearest(H, linear=True)).max() <= 1e-15  # H lies in range(A*)
    X0, _ = project_affine(np.zeros((2, 2), dtype=complex), sys)
    assert res.pairing < 0 and abs(np.trace(H @ X0).real - res.pairing) <= 1e-15


def test_negative_constant_certifies_at_iteration_one():
    f = NCPoly.constant(-1.0, 2)
    for interior in (None, free_state(f, 0)):
        res = solve_feasibility(gram_system_at(f, 0), interior=interior)
        assert res.certificate is not None and res.iterations == 1
        assert res.pairing < 0 and np.linalg.eigvalsh(res.certificate)[0] > 0


def test_boundary_sos_gets_no_certificate():
    # every Gram matrix of 2 - u1 - u1^-1 is singular: Dykstra spends its
    # budget with no step passing the certificate test, and the handover
    # returns a psd point, not a certificate
    f = group_fixture()
    res = solve_feasibility(gram_system_at(f, 1), interior=free_state(f, 1))
    assert res.certificate is None and res.iterations == DEFAULT_MAX_ITER
    assert res.feasible and res.newton_steps > 0 and _low_eig(res.X)[0] >= -DEFAULT_TOL


def test_handover_over_its_memory_budget_builds_nothing(monkeypatch):
    # the weakly infeasible pattern of test_infeasible_reports_inconclusive in
    # a 64 x 64 matrix: the Newton rows, Newton matrix, its copy in
    # np.linalg.solve and one chunk's temporaries would take about 0.41 GiB,
    # over the handover's budget, so none is built
    m = 64
    labels = np.full((m, m), -1)
    labels[0, 1], labels[1, 0], labels[1, 1] = 0, 1, 2
    sys = AffineSystem(m, labels, [1.0, 1.0, 0.0])

    def refuse(*args):
        raise AssertionError("_null_directions called over the memory budget")

    monkeypatch.setattr(sdp, "_null_directions", refuse)
    monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", 10)
    res = solve_feasibility(sys)
    assert not res.feasible and res.X is None and res.certificate is None
    assert res.iterations == 10 and res.newton_steps == 0
    assert res.reason == "max-margin handover needs 0.4 GiB, over its 0.25 GiB budget"


def test_interior_point_must_be_positive_definite():
    # the test reads the interior point through its class means: I is zero
    # on the off-diagonal class and outside range(A*) on the diagonal
    with pytest.raises(SdpError):
        solve_feasibility(pinned_entry_system(2, 0, 1, 0.5), interior=np.eye(2, dtype=complex))


def test_determinism_bit_identical(monkeypatch):
    m = 4
    sys = pinned_entry_system(m, 1, 2, 0.2, trace=1.0)
    monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", 2000)
    monkeypatch.setattr(sdp, "DEFAULT_TOL", 1e-11)
    r1 = solve_feasibility(sys)
    r2 = solve_feasibility(sys)
    assert r1.iterations == r2.iterations
    assert r1.X.tobytes() == r2.X.tobytes()


def test_residuals_eventually_monotone(monkeypatch):
    # the pinned system is solved at the first iteration; the Gram system of
    # 2 - u1 - u1^-1 has no strictly feasible point, so its gap keeps moving
    m = 3
    pinned = pinned_entry_system(m, 0, 2, 0.4 - 0.2j, trace=1.5)
    u1 = NCPoly.monomial(Word(GROUP, 1, (1,)))
    boundary = gram_system_at(NCPoly.constant(2.0, 1, GROUP) - u1 - u1.adjoint(), 1)
    slack = 10 * 1e-12
    monkeypatch.setattr(sdp, "DEFAULT_TOL", 1e-12)

    def gap_after(sys, n):
        monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", n)
        return solve_feasibility(sys).final_gap

    for sys in (pinned, boundary):
        gaps = [gap_after(sys, n) for n in (500, 1000, 2000, 4000)]
        for earlier, later in zip(gaps, gaps[1:]):
            assert later <= earlier + slack


# -- max-margin interior-point solve -------------------------------------------


def test_max_margin_infeasible_trace():
    # Tr X = -1 on 2 x 2: the best margin is min eig of -I/2, bracketed by
    # the margin t of the last point and the bound of a centred one
    sys = trace_system(2, -1.0)
    res = max_margin(sys)
    assert res.t < 0 and res.bound < -DEFAULT_TOL
    assert res.t <= -0.5 <= res.bound
    assert sys.residual(res.X) < 1e-12
    assert np.linalg.eigvalsh(res.X).min() >= res.t - 1e-12


def test_max_margin_floor_stops_early():
    # the first centred bound below -DEFAULT_TOL ends the solve, long before
    # the bound closes on t: no point is psd within solve_feasibility's tol
    sys = trace_system(2, -1.0)
    res = max_margin(sys)
    assert res.bound < -DEFAULT_TOL
    assert res.bound - res.t > 1e3 * MARGIN_GAP_TOL
    assert res.iterations < CENTRING_STEPS


def test_max_margin_interior_stops_at_psd_point():
    m = 3
    sys = pinned_entry_system(m, 0, 1, 0.3 + 0.1j, trace=2.0)
    res = max_margin(sys)
    assert res.t >= 0
    assert np.linalg.eigvalsh(res.X).min() >= -1e-12
    assert sys.residual(res.X) < 1e-12


def _hunvec(x, m):
    """Inverse of _hvec, for the unit matrices of its coordinates."""
    iu = np.triu_indices(m, 1)
    X = np.zeros(x.shape[:-1] + (m, m), dtype=complex)
    X[..., range(m), range(m)] = x[..., :m]
    upper = (x[..., m:m + len(iu[0])] + 1j * x[..., m + len(iu[0]):]) / np.sqrt(2)
    X[..., iu[0], iu[1]] = upper
    X[..., iu[1], iu[0]] = upper.conj()
    return X


def _projector_null_basis(sys):
    """Reference: the eigenvectors with eigenvalue 1 of the dense m^2 x m^2
    matrix of the linear part of sys.nearest, an orthogonal projector."""
    m = sys.m
    P = _hvec(np.array([sys.nearest(E, linear=True) for E in _hunvec(np.eye(m * m), m)]))
    evals, evecs = np.linalg.eigh(P)
    return evecs[:, evals > 0.5].T


def _direction_matrices(sys):
    """The directions of _null_directions as m x m matrices."""
    rows, cols, weights = _null_directions(sys)
    Y = np.zeros((len(rows), sys.m, sys.m), dtype=complex)
    np.add.at(Y, (np.arange(len(rows))[:, None], rows, cols), weights)
    return Y + Y.conj().swapaxes(1, 2)


def _check_null_directions(sys):
    E, ref = _direction_matrices(sys), _projector_null_basis(sys)
    assert np.abs(E - E.conj().swapaxes(1, 2)).max(initial=0.0) == 0  # Hermitian
    N = _hvec(E)
    assert N.shape == ref.shape
    assert len(N) == sys.m ** 2 - len(sys.targets)  # the handover's size estimate
    # unit directions, independent and in the projector's range: the same span
    assert np.abs(np.linalg.norm(N, axis=1) - 1).max(initial=0.0) <= 1e-12
    assert np.linalg.matrix_rank(N) == len(N)
    assert np.abs(ref.T @ (ref @ N.T) - N.T).max(initial=0.0) <= 1e-12
    # every direction is left alone by the linear projection
    for e in E:
        assert np.abs(sys.nearest(e, linear=True) - e).max() <= 1e-12


def _basis_cases():
    cases = {}
    for mode in (MONOID, GROUP):
        for k in (1, 2):
            f = _rand_hermitian_poly(2, mode, k, np.random.default_rng([k, mode == GROUP]))
            cases[f"gram-{mode}-k{k}"] = lambda f=f: gram_system_at(f, 1)
    f = _rand_hermitian_poly(1, GROUP, 2, np.random.default_rng(7))
    cases["hankel-group-k2"] = lambda: hankel_system(f, constraint_index(f.g, 1, f.mode))
    cases["trace"] = lambda: trace_system(3, 1.0)
    cases["pinned-entry"] = lambda: pinned_entry_system(4, 0, 2, 0.3 + 0.1j, trace=2.0)
    return cases


@pytest.mark.parametrize("name", list(_basis_cases()))
def test_null_basis_matches_projector(name):
    _check_null_directions(_basis_cases()[name]())


@settings(max_examples=25, deadline=None)
@given(mode=st.sampled_from([MONOID, GROUP]), g=st.integers(1, 2), d=st.integers(0, 2),
       k=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_null_directions_of_gram_systems(mode, g, d, k, seed):
    _check_null_directions(gram_system_at(_gram_poly(seed, g, mode, k, d), d))


@settings(max_examples=25, deadline=None)
@given(m=st.integers(2, 5), data=st.data(), value=st.complex_numbers(max_magnitude=2),
       trace=st.one_of(st.none(), st.floats(-2, 2)))
def test_null_directions_with_unlabelled_entries(m, data, value, trace):
    i, j = data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
    _check_null_directions(trace_system(m, value.real))
    _check_null_directions(pinned_entry_system(m, i, j, value, trace))


def test_max_margin_takes_no_dense_factorizations(monkeypatch):
    # one eigh of S per Newton step stands in for cholesky and inv, and the
    # null space comes from the labels, not from an m^2 x m^2 eigenproblem
    sys = gram_system_at(group_fixture(), 1)
    sizes = []

    def refuse(*args, **kwargs):
        raise AssertionError("max_margin called a dense factorization")

    def recording(fn):
        def wrapped(a, *args, **kwargs):
            sizes.append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(np.linalg, "eigh", recording(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
    res = max_margin(sys)
    assert abs(res.t) < 1e-8
    assert sizes and all(shape == (sys.m, sys.m) for shape in sizes)

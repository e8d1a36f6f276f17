import numpy as np
import pytest

from ncsos.certify import GNS_VERIFY_TOL
from ncsos.gram import constraint_index
from ncsos.gns import (
    SPAN_RTOL, GnsError, HankelFunctional, _quotient_frames,
    gns_construct, gns_construct_unitary, gns_verify, quotient_matrix, unvec, vec,
)
from ncsos.poly import NCPoly, OperatorTuple, opnorm, poly_eval, word_images
from ncsos.words import GROUP, MONOID, concat, enumerate_words, involute

from test_poly import rand_hermitian, rand_matrix, rand_unitary


# -- vec -----------------------------------------------------------------


def test_vec_components_and_identity():
    T = np.array([[1, 2], [3, 4], [5, 6]], dtype=complex)  # map C^2 -> C^3
    v = vec(T)
    m = 3
    for delta in range(2):
        for j in range(3):
            assert v[delta * m + j] == T[j, delta]
    assert np.allclose(vec(np.eye(2)), np.array([1, 0, 0, 1], dtype=complex))
    assert np.allclose(unvec(v, 2), T)


def test_vec_inner_product_is_trace():
    rng = np.random.default_rng(4)
    for _ in range(5):
        A = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        B = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        assert abs(np.vdot(vec(A), vec(B)) - np.trace(A.conj().T @ B)) < 1e-12


def test_vec_kron_action():
    # with the plain stacking, kron acts as (P (x) T) vec(A) = vec(T A P^T);
    # for real P this is the adjoint-form identity vec(T A P*)
    rng = np.random.default_rng(6)
    A = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    P = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lhs = np.kron(P, T) @ vec(A)
    assert np.allclose(lhs, vec(T @ A @ P.T))
    P_real = rng.standard_normal((2, 2))
    lhs = np.kron(P_real, np.eye(3)) @ vec(A)
    assert np.allclose(lhs, vec(A @ P_real.conj().T))


# -- random columns ------------------------------------------------------------


def rand_cols(rows, n, rng):
    return rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))


# -- reference functionals --------------------------------------------------


def functional_from_model(X: OperatorTuple, frame: np.ndarray, g: int,
                          D: int, mode: str) -> HankelFunctional:
    """Blocks of the state phi(p) = <p(X) vec(frame), vec(frame)> of a known
    model.

    Tr(S_u P) must equal vdot(vec(frame), kron(P, X^u) vec(frame)), which
    pins S_u = (frame^dagger X^u frame)^T; the quotient matrix is then a Gram
    matrix, hence psd.
    """
    frame = np.atleast_2d(np.asarray(frame, dtype=complex))
    k = frame.shape[1]
    index = constraint_index(g, D, mode)
    words = enumerate_words(g, 2 * D, mode)
    F = frame.conj().T @ word_images(X, words, frame)  # k x (T k): frame^dagger X^u frame
    blocks = F.reshape(k, len(words), k).transpose(1, 2, 0)
    position = {w: i for i, w in enumerate(words)}  # the products are the words of degree <= 2D
    return HankelFunctional(g, mode, k, index, blocks[[position[u] for u in index[0]]])


def shift_defect(S: HankelFunctional, model) -> float:
    """max || (I_k (x) Y^w) gamma - vec(frame of w) || over the degree-D
    words, with the quotient frames the model was built on."""
    words = S.index[0][:len(S.index[1])]
    Z = word_images(model.operators, words, unvec(model.gamma, S.k))
    blocks = (Z - _quotient_frames(S)).reshape(model.dim, len(words), S.k)
    return float(np.linalg.norm(blocks, axis=(0, 2)).max())


# -- the quotient matrix -----------------------------------------------------


def hankel(g, mode, k, D, blocks) -> HankelFunctional:
    """The functional with the blocks of a word -> block dict, stacked on the
    degree-D word-pair table."""
    index = constraint_index(g, D, mode)
    return HankelFunctional(g, mode, k, index, np.array([blocks[u] for u in index[0]]))


def block_of(S: HankelFunctional, u: tuple) -> np.ndarray:
    return S.blocks[S.index[0].index(u)]


def point_functional(y: float, D: int) -> HankelFunctional:
    blocks = {}
    for u in enumerate_words(1, 2 * D, MONOID):
        blocks[u] = np.array([[y ** len(u)]], dtype=complex)
    return hankel(1, MONOID, 1, D, blocks)


def delta_functional(g, k, D, mode=MONOID) -> HankelFunctional:
    blocks = {u: np.zeros((k, k), dtype=complex) for u in enumerate_words(g, 2 * D, mode)}
    blocks[()] = np.eye(k, dtype=complex)
    return hankel(g, mode, k, D, blocks)


def test_assemble_point_moments():
    S = point_functional(2.0, 1)
    assert np.allclose(quotient_matrix(S), [[1, 2], [2, 4]])


def test_assemble_delta_group_is_identity():
    S = delta_functional(2, 2, 1, GROUP)
    assert np.allclose(quotient_matrix(S), np.eye(10))


def test_assemble_delta_monoid_is_vacuum_block():
    S = delta_functional(2, 1, 1, MONOID)
    assert np.allclose(quotient_matrix(S), np.diag([1.0, 0.0, 0.0]))


def test_assemble_hermitian_when_structured():
    # block (v, w) of the stack on the table is S_{v* w}, the adjoint of block (w, v)
    rng = np.random.default_rng(8)
    X = OperatorTuple(MONOID, [rand_hermitian(3, rng), rand_hermitian(3, rng)])
    S = functional_from_model(X, rng.standard_normal((3, 2)), 2, 2, MONOID)
    B = S.blocks[S.index[1]]
    assert np.abs(B - B.transpose(1, 0, 3, 2).conj()).max() < 1e-12
    K = quotient_matrix(S)
    assert opnorm(K - K.conj().T) < 1e-12
    S.validate()


@pytest.mark.parametrize("mode", [MONOID, GROUP])
def test_block_stack_must_match_its_index(mode):
    S = delta_functional(2, 2, 1, mode)
    for blocks in (S.blocks[:-1], S.blocks[:, :1, :1], S.blocks[..., None]):
        with pytest.raises(GnsError):
            HankelFunctional(S.g, S.mode, S.k, S.index, blocks)


# -- monoid construction ----------------------------------------------------


def test_gns_point_evaluation():
    S = point_functional(2.0, 2)  # functional p -> p(2) on degree <= 4
    model = gns_construct(S)
    assert model.dim == 1
    assert abs(model.operators.entries[0][0, 0] - 2.0) < 1e-10
    assert abs(np.vdot(model.gamma, model.gamma) - 1.0) < 1e-10
    x = NCPoly.monomial((1,), 1, MONOID)
    val = np.vdot(model.gamma, poly_eval(x, model.operators) @ model.gamma)
    assert abs(val - 2.0) < 1e-10
    x2 = NCPoly.monomial((1, 1), 1, MONOID)
    val2 = np.vdot(model.gamma, poly_eval(x2, model.operators) @ model.gamma)
    assert abs(val2 - 4.0) < 1e-10
    assert gns_verify(S, model) <= 1e-8


def test_gns_delta_functional():
    S = delta_functional(2, 2, 2, MONOID)
    model = gns_construct(S)
    for Y in model.operators.entries:
        assert opnorm(Y) < 1e-10
    # phi(P empty) = Tr(P) is reproduced by gamma alone
    P = np.array([[1.0, 2.0], [0.5, -1.0]], dtype=complex)
    p = NCPoly(2, MONOID, 2, {(): P})
    val = np.vdot(model.gamma, poly_eval(p, model.operators) @ model.gamma)
    assert abs(val - np.trace(P)) < 1e-10


@pytest.mark.parametrize("g,k,d,n", [(1, 1, 1, 2), (2, 1, 1, 3), (2, 2, 2, 3), (1, 2, 2, 2)])
def test_gns_reconstructs_known_monoid_models(g, k, d, n):
    rng = np.random.default_rng(100 * g + 10 * k + d)
    X = OperatorTuple(MONOID, [rand_hermitian(n, rng) for _ in range(g)])
    frame = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    S = functional_from_model(X, frame, g, d + 1, MONOID)
    S.validate()
    model = gns_construct(S)
    assert model.dim <= S.k * len(enumerate_words(g, d + 1, MONOID))
    assert model.operators.hermitian_defect() <= 1e-10
    assert gns_verify(S, model) <= 1e-8
    assert shift_defect(S, model) <= 1e-8


@pytest.mark.parametrize("g", [1, 2])
@pytest.mark.parametrize("D", [1, 2])
@pytest.mark.parametrize("k", [1, 2])
def test_gns_models_a_known_state_at_its_own_degree(g, D, k):
    # the dual's functional has the primal's degree: GNS completes each
    # letter shift, defined on the words of length <= D - 1, self-adjointly
    rng = np.random.default_rng([g, D, k])
    X = OperatorTuple(MONOID, [rand_hermitian(6, rng) for _ in range(g)])
    frame = rng.standard_normal((6, k)) + 1j * rng.standard_normal((6, k))
    S = functional_from_model(X, frame, g, D, MONOID)
    model = gns_construct(S)
    assert model.operators.hermitian_defect() == 0.0
    assert shift_defect(S, model) <= 1e-8
    assert gns_verify(S, model) <= 1e-8


def test_functional_from_model_matches_vec_state():
    rng = np.random.default_rng(55)
    X = OperatorTuple(MONOID, [rand_hermitian(3, rng), rand_hermitian(3, rng)])
    frame = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    S = functional_from_model(X, frame, 2, 1, MONOID)
    gamma0 = vec(frame)
    for u in enumerate_words(2, 2, MONOID):
        P = rand_matrix(2, rng)
        p = NCPoly(2, MONOID, 2, {u: P})
        direct = np.vdot(gamma0, poly_eval(p, X) @ gamma0)
        assert abs(np.trace(block_of(S, u) @ P) - direct) < 1e-10


def test_gns_rejects_zero_functional():
    S = hankel(1, MONOID, 1, 1, {u: np.zeros((1, 1)) for u in enumerate_words(1, 2, MONOID)})
    with pytest.raises(GnsError, match="^zero functional admits no model$"):
        gns_construct(S)


def test_gns_rejects_indefinite_functional():
    blocks = {u: np.zeros((1, 1)) for u in enumerate_words(1, 2, MONOID)}
    blocks[()] = np.array([[-1.0]])
    S = hankel(1, MONOID, 1, 1, blocks)
    with pytest.raises(GnsError):
        gns_construct(S)


def test_gns_mode_guard():
    with pytest.raises(GnsError):
        gns_construct(delta_functional(1, 1, 1, GROUP))
    with pytest.raises(GnsError):
        gns_construct_unitary(delta_functional(1, 1, 1, MONOID))


def test_gns_refuses_a_shift_that_is_not_well_defined():
    # phi(1) = phi(x1) = 0 and phi(x1^2) = 1: the frame of 1 is zero and that
    # of x1 is not, so no operator maps the one to the other
    S = hankel(1, MONOID, 1, 1, {u: np.array([[float(len(u) == 2)]]) for u in enumerate_words(1, 2, MONOID)})
    with pytest.raises(GnsError, match=r"shift action is not well defined numerically \(fit residual 1.000e\+00\)"):
        gns_construct(S)


def test_gns_unitary_refuses_a_shift_that_is_not_isometric(monkeypatch):
    # the free state's frames are the identity on 1, x1, x1^-1; stretching
    # the frame of x1 by 1.5 leaves the shift 1 -> x1 of length 1.5
    monkeypatch.setattr("ncsos.gns._quotient_frames", lambda S: _quotient_frames(S) @ np.diag([1.0, 1.5, 1.0]))
    with pytest.raises(GnsError, match=r"letter shift is not isometric \(defect 1.250e\+00\)"):
        gns_construct_unitary(delta_functional(1, 1, 1, GROUP))


def nearly_dependent_domain(eps):
    """A monoid state on C^4 whose x1-shift domain frames, those of 1, x1 and
    x2, are e0, e1 and e1 + eps e2: their smallest singular value is about
    eps / 2 of the largest, while the frames of all seven words of degree
    <= 2 keep every direction of C^4 well above the quotient's cutoff."""
    rng = np.random.default_rng(21)
    X = []
    for first in ([0, 1, 0, 0], [0, 1, eps, 0]):
        H = np.zeros((4, 4), dtype=complex)
        H[1:, 1:] = rand_hermitian(3, rng)
        H[:, 0] = first
        H[0, :] = np.conj(first)
        X.append(H)
    return functional_from_model(OperatorTuple(MONOID, X), np.eye(4, 1), 2, 2, MONOID)


@pytest.mark.parametrize("eps, kept", [(2e-12, False), (2e-6, True)])
def test_gns_models_a_domain_direction_on_either_side_of_the_span_cutoff(eps, kept):
    # the domain's third direction is below SPAN_RTOL (cut) or above it
    # (kept); either way the model must reproduce the functional
    S = nearly_dependent_domain(eps)
    s = np.linalg.svd(_quotient_frames(S)[:, :3], compute_uv=False)
    assert (s[-1] / s[0] > SPAN_RTOL) == kept and 1e-13 < s[-1] / s[0] < 1e-5
    model = gns_construct(S)
    assert model.dim == 4 and model.operators.hermitian_defect() == 0.0
    assert gns_verify(S, model) <= GNS_VERIFY_TOL


@pytest.mark.parametrize("mode", [MONOID, GROUP])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_functional_that_is_not_finite_is_refused_where_it_is_built(mode, bad):
    # phi(x1) = NaN used to give a 0-dimensional monoid model, which
    # gns_verify then failed on with a ValueError
    index = constraint_index(1, 1, mode)
    blocks = np.array([[[bad if len(u) == 1 else 1.0]] for u in index[0]])
    construct = gns_construct if mode == MONOID else gns_construct_unitary
    for use in (lambda S: S, HankelFunctional.validate, construct):
        with pytest.raises(GnsError, match="functional blocks must be finite"):
            use(HankelFunctional(1, mode, 1, index, blocks))


# -- group construction ------------------------------------------------------


def test_gns_unitary_scalar_point():
    # evaluation at the scalar unitary u = i
    blocks = {}
    for u in enumerate_words(1, 2, GROUP):
        m = sum(1 for a in u if a > 0) - sum(1 for a in u if a < 0)
        blocks[u] = np.array([[1j ** m]], dtype=complex)
    S = hankel(1, GROUP, 1, 1, blocks)
    S.validate()
    model = gns_construct_unitary(S)
    assert model.dim == 1
    assert abs(model.operators.entries[0][0, 0] - 1j) < 1e-10
    x = NCPoly.monomial((1,), 1, GROUP)
    val = np.vdot(model.gamma, poly_eval(x, model.operators) @ model.gamma)
    assert abs(val - 1j) < 1e-10


def test_gns_unitary_delta():
    S = delta_functional(2, 1, 1, GROUP)
    model = gns_construct_unitary(S)
    assert model.operators.unitary_defect() <= 1e-10
    assert gns_verify(S, model) <= 1e-8


@pytest.mark.parametrize("g,k,d,n", [(1, 1, 1, 2), (2, 1, 1, 2), (2, 2, 2, 3), (1, 2, 2, 2)])
def test_gns_reconstructs_known_unitary_models(g, k, d, n):
    rng = np.random.default_rng(7000 + 100 * g + 10 * k + d)
    X = OperatorTuple(GROUP, [rand_unitary(n, rng) for _ in range(g)])
    frame = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    S = functional_from_model(X, frame, g, d, GROUP)
    S.validate()
    model = gns_construct_unitary(S)
    assert model.operators.unitary_defect() <= 1e-10
    assert gns_verify(S, model) <= 1e-8
    assert shift_defect(S, model) <= 1e-8


def test_gns_mixture_of_models():
    rng = np.random.default_rng(77)
    X = OperatorTuple(MONOID, [np.diag([1.0, -1.0, 0.5]).astype(complex),
                               rand_hermitian(3, rng)])
    frame = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    S = functional_from_model(X, frame, 2, 2, MONOID)
    model = gns_construct(S)
    assert 1 <= model.dim <= 3 * 2
    assert gns_verify(S, model) <= 1e-8


def known_model(mode, g, k, d, n, rng):
    """A functional read off a random self-adjoint (monoid) or unitary (group)
    tuple, and the GNS model built from it."""
    if mode == MONOID:
        X = OperatorTuple(MONOID, [rand_hermitian(n, rng) for _ in range(g)])
    else:
        X = OperatorTuple(GROUP, [rand_unitary(n, rng) for _ in range(g)])
    frame = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    S = functional_from_model(X, frame, g, d, mode)
    model = gns_construct(S) if mode == MONOID else gns_construct_unitary(S)
    return S, model


def with_block(S, u, B):
    blocks = S.blocks.copy()
    blocks[S.index[0].index(u)] = B
    return HankelFunctional(S.g, S.mode, S.k, S.index, blocks)


def brute_force_residual(S, model):
    """2 k^2 max ||E_{v,w}||_op, each defect entry from poly_eval: the pair
    P = e_0 e_b^T, Q = e_0 e_c^T has defect Tr(E P^T conj(Q)) = E[c, b]."""
    k, mode, words = S.k, S.mode, S.index[0][:len(S.index[1])]
    units = []
    for b in range(k):
        P = np.zeros((k, k), dtype=complex)
        P[0, b] = 1.0
        units.append(P)
    worst = 0.0
    for v in words:  # v and w of degree <= D, in both modes
        for w in words:
            target = block_of(S, concat(involute(v, mode), w, mode))
            E = np.zeros((k, k), dtype=complex)
            for b, P in enumerate(units):
                pg = poly_eval(NCPoly(S.g, mode, k, {w: P}), model.operators) @ model.gamma
                for c, Q in enumerate(units):
                    qg = poly_eval(NCPoly(S.g, mode, k, {v: Q}), model.operators) @ model.gamma
                    E[c, b] = np.trace(target @ Q.conj().T @ P) - np.vdot(qg, pg)
            worst = max(worst, opnorm(E))
    return 2 * k * k * worst


@pytest.mark.parametrize("mode", [MONOID, GROUP])
@pytest.mark.parametrize("k", [1, 2])
def test_verify_matches_brute_force_reference(mode, k):
    rng = np.random.default_rng([k, mode == GROUP])
    S, model = known_model(mode, 2, k, 1, 3, rng)
    # the exact functional and one that the model no longer reproduces
    u = enumerate_words(2, 1, mode)[1]
    noisy = with_block(S, u, block_of(S, u) + 1e-3 * rand_matrix(k, rng))
    for T in (S, noisy):
        assert abs(gns_verify(T, model) - brute_force_residual(T, model)) <= 1e-12
    assert gns_verify(noisy, model) > 1e-4


@pytest.mark.parametrize("mode", [MONOID, GROUP])
def test_verify_gate_catches_one_perturbed_entry(mode):
    rng = np.random.default_rng([5, mode == GROUP])
    S, model = known_model(mode, 2, 2, 1, 3, rng)
    assert gns_verify(S, model) <= GNS_VERIFY_TOL
    u = enumerate_words(2, 1, mode)[2]
    B = block_of(S, u).copy()
    B[1, 0] += 1e-7
    perturbed = with_block(S, u, B)
    residual = gns_verify(perturbed, model)
    assert residual > GNS_VERIFY_TOL
    assert residual == gns_verify(perturbed, model)


def test_verify_detects_perturbed_gamma():
    S = point_functional(2.0, 2)
    model = gns_construct(S)
    model.gamma = model.gamma * 1.1
    assert gns_verify(S, model) > 1e-3


def test_quotient_matrix_equals_assemble_for_scalar_blocks():
    S = point_functional(0.5, 2)
    assert np.array_equal(quotient_matrix(S), S.blocks[S.index[1]][:, :, 0, 0])


@pytest.mark.parametrize("mode, k", [(MONOID, 1), (MONOID, 2), (GROUP, 2), (GROUP, 3)])
def test_quotient_matrix_is_assemble_with_each_block_transposed(mode, k):
    # the (v, w) block of the quotient matrix is S_{v* w}^T, read off the stack
    rng = np.random.default_rng([7, k])
    index = constraint_index(2, 1, mode)
    S = HankelFunctional(2, mode, k, index, rand_cols(len(index[0]) * k, k, rng).reshape(-1, k, k))
    n = len(index[1])
    B = S.blocks[index[1]]
    want = np.block([[B[v, w].T for w in range(n)] for v in range(n)])
    assert np.array_equal(quotient_matrix(S), want)


# -- validate ------------------------------------------------------------------


@pytest.mark.parametrize("mode", [MONOID, GROUP])
@pytest.mark.parametrize("k", [1, 2])
def test_validate_refuses_a_block_moved_off_its_mirror(mode, k):
    # x1 is its own mirror in monoid mode and x1^-1's in group mode: an
    # imaginary 1e-8, above EPS_HERM, breaks S_{u*} = S_u^dagger either way
    S, _ = known_model(mode, 2, k, 1, 3, np.random.default_rng([k, 11, mode == GROUP]))
    S.validate()
    u = (1,)
    moved = block_of(S, u).copy()
    moved[0, 0] += 1e-8j
    with pytest.raises(GnsError, match="Hermitian block structure violated"):
        with_block(S, u, moved).validate()


@pytest.mark.parametrize("mode", [MONOID, GROUP])
@pytest.mark.parametrize("k", [1, 2])
def test_validate_refuses_a_negative_state(mode, k):
    S, _ = known_model(mode, 2, k, 1, 3, np.random.default_rng([k, 12, mode == GROUP]))
    S.validate()
    with pytest.raises(GnsError, match="not psd"):
        with_block(S, (), -np.eye(k)).validate()

"""End-to-end decision pipeline: sum-of-squares certificate or GNS witness.

Both sides solve the Gram system {G psd, V* G V = f} with one engine,
Dykstra (sdp.solve_feasibility), and a decision solves it once.  The
primal solves it at the input's degree d and factors a psd solution into
squares.  Without a solution, Dykstra's displacement gives a
Farkas certificate: the class vector of a psd matrix constant on the
classes of the word-pair table, the Hankel matrix of the paper's separating
functional, positive on squares and negative on f.  The dual reads that
vector as the functional's blocks, in both modes and at every degree, so a
decision builds and solves one Gram system, and GNS turns it into a tuple
at which f has a negative eigenvalue (for a constant, d = 0, the zero
tuple or the identity unitaries).
The certificate mixes in the paper's free state (free_state), positive
definite and constant on the classes, so GNS keeps every direction; a
witness still rests only on its own gates: the operator defect, gns_verify
and the eigenvalue of f(Y), beyond its rounding bound.  When Dykstra's
budget ends with neither a psd point nor a certificate (on inputs that
vanish somewhere, such as 2 - u1 - u1^-1), a factor search for f's squares
answers either way, and the dual without a gated GNS witness searches small
tuples for one (tuple_search).  Near the boundary of the cone the answer may
be Undecided.

Each branch returns a CertifyOutcome: run_primal's is sos or undecided,
run_dual's witness or undecided, each with the one record of the solve it
read.  certify returns the primal's when the solve is feasible, else the
dual's, so its outcome is the one decompose or witness gives on the input.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fock import vacuum_images
from .gns import (
    GnsError, HankelFunctional, gns_construct, gns_construct_unitary,
    gns_verify, unvec, WitnessModel,
)
from .gram import (
    EPS_CERT, EPS_PSD, GramMatrix, SOSCertificate, block_sums, class_labels,
    constraint_index, factor_gram,
)
from .poly import COEFF_DROP_TOL, NCPoly, OperatorTuple, eval_bytes, opnorm, poly_eval, word_images
from .sdp import EPS, AffineSystem, FeasibilityResult, lbfgs, refuse_bytes, solve_feasibility
from .words import MONOID, count_words, suffix_table

GNS_VERIFY_TOL = 1e-8
OPERATOR_DEFECT_TOL = 1e-8  # max self-adjointness (monoid) or unitarity (group) defect of Y
EPS_WIT = 1e-6              # a witness needs min eig of f(Y) <= -EPS_WIT
MAX_GRAM_SIDE = 512         # largest side of the Gram system infer_degree accepts
MAX_COEFF = 1e150           # largest |Re|, |Im| of a coefficient entry: squares sum below 1.8e308


class CertifyError(ValueError):
    pass


@dataclass
class CertifyOutcome:
    """A decision and the record of its one Gram solve: Dykstra's iterations,
    its final gap and _outcome's note."""
    kind: str  # "sos" | "witness" | "undecided"
    degree: int
    iterations: int
    gap: float
    note: str
    certificate: SOSCertificate | None = None
    model: WitnessModel | None = None
    min_eig: float | None = None
    refuted_value: complex | None = None


def infer_degree(f: NCPoly) -> int:
    """The Gram degree of a Hermitian input, ceil(deg f / 2): the degree of the
    squares in the factorization theorems the paper extends (Helton 2002 for
    the free monoid, McCullough 2001 for the free group), so it decides every
    input.  A Gram system, the one both the primal and the dual solve, of side
    above MAX_GRAM_SIDE is refused before anything is built, even the zero
    coefficient block of the Hermitian test, and so are more letters than that
    side and coefficient entries above MAX_COEFF."""
    if f.g > MAX_GRAM_SIDE:
        raise CertifyError(f"{f.g} letters are above the limit {MAX_GRAM_SIDE} on the Gram side")
    big = float(np.abs(f.coeffs.view(float)).max(initial=0.0))
    if not big <= MAX_COEFF:
        raise CertifyError(f"a coefficient's real or imaginary part {big:.3e} is above the limit {MAX_COEFF:.0e}")
    d = math.ceil(f.degree() / 2)
    # count_words(g, d) >= d + 1: a huge d is refused uncounted
    side = f.k * (d + 1 if (d + 1) * f.k > MAX_GRAM_SIDE else count_words(f.g, d, f.mode))
    if side > MAX_GRAM_SIDE:
        raise CertifyError(f"degree {d} needs a Gram system of side at least {side}, "
                           f"above the limit {MAX_GRAM_SIDE}")
    if not f.is_hermitian():
        raise CertifyError("input polynomial is not Hermitian")
    return d


# -- primal: Gram feasibility ------------------------------------------------


def gram_system(f: NCPoly, index: tuple[list, np.ndarray]) -> AffineSystem:
    """The Gram system of f on index = constraint_index(g, d, mode): the (a, b)
    entries of the blocks G_{v,w} with v* w = u sum to f_u[a, b].  As the
    dual's hankel_system, the Hankel storage of its certificate's functional
    (gns.quotient_matrix) is the conjugate of the certificate's matrix at unit
    trace, entry ((v, a), (w, b)) S_{v*w}[b, a] = conj(y_{v*w}[a, b]) / trace,
    so that phi(f) = sum_u Tr(S_u F_u) is a positive multiple of the pairing."""
    products, table = index
    return AffineSystem(len(table) * f.k, class_labels(table, f.k), f.on(products).ravel())


# the dual's name, bound to an object of its own: perfbench's tracer wraps
# bindings by identity and counts hankel_system calls apart
hankel_system = partial(gram_system)


def _outcome(res: FeasibilityResult, d: int, refusal: str = "", kind: str = "undecided",
             **evidence) -> CertifyOutcome:
    """The outcome of the degree-d solve res, its note joining, where there is
    one, the Farkas certificate's pairing, the refusal, and the factor
    search's last rank or why the solve ended without one."""
    parts = ("" if res.certificate is None else f"Farkas certificate, pairing {res.pairing:.3e}", refusal,
             res.reason or (f"factor search, rank {res.rank}" if res.rank else ""))
    return CertifyOutcome(kind, d, res.iterations, res.final_gap, "; ".join(part for part in parts if part),
                          **evidence)


def run_primal(f: NCPoly, d: int) -> tuple[CertifyOutcome, tuple]:
    """Dykstra on the Gram system, with the free state as its interior point,
    and the factor search (sdp.solve_feasibility, at its fixed budgets and
    tolerance).  Returns the outcome, sos or undecided with the solve's
    record, and (index, result): the degree-d word-pair table, which the
    certificate's GramMatrix carries, and the solver's result, however the
    solve ended (its reason is in the note).

    Every answer passes the certificate gate, refuse_certificate, which tests
    the point psd and measures it and its squares (factor_gram, the solver's
    root regrouped) against f, so neither the factor search nor a point psd
    only to the solver's tolerance makes a wrong certificate.
    """
    index = constraint_index(f.g, d, f.mode)
    res = solve_feasibility(gram_system(f, index), interior=free_state(f, d))
    refusal = ""
    if res.feasible:
        cert = factor_gram(GramMatrix(f.g, f.mode, f.k, index, res.X), res.root)
        refusal, cert.residual, _ = refuse_certificate(f, cert)
        if not refusal:
            return _outcome(res, d, kind="sos", certificate=cert), (index, res)
    return _outcome(res, d, refusal), (index, res)


# -- dual: Hankel functional search -------------------------------------------


def functional_from_solution(y: np.ndarray, f: NCPoly, index: tuple[list, np.ndarray]) -> HankelFunctional:
    """The functional of a Farkas certificate y, the class vector of the Gram
    system of f on the word-pair table index: the blocks
    S_u = y_u^dagger over the trace of the certificate's matrix, its diagonal
    read off the table in order and summed as np.trace sums it.  sdp's class
    means make y exactly mirror-conjugate, so S_{u*} = S_u^dagger exactly."""
    y = y.reshape(-1, f.k, f.k)
    trace = y[np.diagonal(index[1])].diagonal(axis1=1, axis2=2).ravel().sum().real
    return HankelFunctional(f.g, f.mode, f.k, index, y.conj().transpose(0, 2, 1) / trace)


def free_state(f: NCPoly, D: int) -> np.ndarray:
    """The unit-trace K of the paper's free state on the degree-D basis of
    f's alphabet and mode, with f's k x k blocks: the vacuum state of the
    canonical tuple T, A (monoid) or U (group), so H[v, w] = <T^w vacuum,
    T^v vacuum>, that is H = M^dagger M with the vacuum images of
    fock.vacuum_images as the columns of M.  For U, M = I, and this is the
    trace of the free group.  Scalar blocks make the in-place block transpose
    of the storage a no-op: K = kron(H, I_k) / trace.  H is a Gram matrix of
    linearly independent vectors (M is unit upper triangular), so K is
    positive definite.
    """
    M = vacuum_images(f.g, D, f.mode)
    K = np.kron(M.conj().T @ M, np.eye(f.k))
    return K / np.trace(K).real


def run_dual(f: NCPoly, d: int, solved: tuple | None = None) -> CertifyOutcome:
    """solve_feasibility on the Gram system of f at degree d, with the free
    state as its interior point: the primal's system, so run_primal's
    (index, result) handed in as solved is read as it is, as the same table
    and deterministic solve would only repeat it (the witness command hands
    in none).  Its Farkas certificate, the
    class vector h + s k, read as blocks (functional_from_solution), is a
    functional positive definite on squares and negative on f; GNS builds
    the witness from it, gated by _gate.  An infeasible solve with no gated
    GNS witness runs tuple_search.  Returns the outcome, witness or
    undecided with the solve's record."""
    index, res = solved or (constraint_index(f.g, d, f.mode), None)
    if res is None:
        res = solve_feasibility(hankel_system(f, index), interior=free_state(f, d))
    if res.feasible:
        return _outcome(res, d, f"Gram system of degree {d} is feasible")
    reason, witness = f"no Farkas certificate at degree {d}", {}
    if res.certificate is not None:
        S = functional_from_solution(res.certificate, f, index)
        try:
            reason, witness = _gate(f, gns_construct(S) if f.mode == MONOID else gns_construct_unitary(S))
        except GnsError as exc:
            reason = f"GNS failed: {exc}"
    if reason:
        searched, witness = tuple_search(f, index)
        reason = f"{reason}; {searched}"
    return _outcome(res, d, reason, **witness)


def _gate(f: NCPoly, model: WitnessModel) -> tuple[str, dict]:
    """Why model is no witness (refuse_witness on its tuple, then gns_verify
    of its functional within GNS_VERIFY_TOL, recorded on it), or "" and its
    evidence for _outcome."""
    refusal, min_eig, fY = refuse_witness(f, model.operators)
    if not refusal:
        model.gns_residual = gns_verify(model.functional, model)
        if not model.gns_residual <= GNS_VERIFY_TOL:
            refusal = f"GNS verification residual {model.gns_residual:.3e}"
    return refusal, {} if refusal else dict(kind="witness", model=model, min_eig=min_eig,
                                            refuted_value=complex(np.vdot(model.gamma, fY @ model.gamma)))


# -- dual: tuple search ----------------------------------------------------------

TUPLE_MAX_SIDE = 3    # side n of the tuples searched, at most
TUPLE_STARTS = 3      # starts per side
TUPLE_MAX_STEPS = 60  # lbfgs steps per start, at most
TUPLE_STALL = 1e-3    # a start stops once a step lowers lambda_min by less than this share of max(|it|, EPS_WIT)
TUPLE_DEPTH = 1.0     # or once lambda_min <= -TUPLE_DEPTH


def _tuple_start(f: NCPoly, n: int, start: int) -> OperatorTuple:
    """The zero tuple (monoid) or the identities (group) moved by Hermitian
    n x n matrices of norm at most 1 (monoid) or pi (group) off the Weyl
    sequence exp(i pi (sqrt 5 - 1) j), j counted on from start to start."""
    size = f.g * n * n
    z = np.exp(1j * np.pi * (np.sqrt(5) - 1) * np.arange(start * size + 1, (start + 1) * size + 1)).reshape(f.g, n, n)
    base, scale = (0.0, 1.0) if f.mode == MONOID else (1.0, np.pi)
    return _move(OperatorTuple(f.mode, [base * np.eye(n)] * f.g), scale * (z + z.conj().transpose(0, 2, 1)) / (2 * n))


def _move(Y: OperatorTuple, D: np.ndarray) -> OperatorTuple:
    """Y moved by the Hermitian stack D: Y_j + D_j (monoid), or Y_j exp(i D_j) (group)."""
    if Y.mode == MONOID:
        return OperatorTuple(Y.mode, [y + d for y, d in zip(Y.entries, D)])
    return OperatorTuple(Y.mode, [y @ (Q * np.exp(1j * lam)) @ Q.conj().T
                                  for y, (lam, Q) in zip(Y.entries, map(np.linalg.eigh, D))])


def _lowest(f: NCPoly, basis: list, W: np.ndarray, Y: OperatorTuple) -> tuple[float, np.ndarray, np.ndarray | None]:
    """lambda_min of F = sum_(v,w) G_vw (x) (Y^v)* Y^w, f(Y) at a self-adjoint or unitary Y, G = W^T / 2 a
    Hermitian Gram matrix of f on basis, its gradient along _move and eigenvector v (inf, 0 and None when F is
    not finite), from the images A_w = Y^w of one word_images walk.  The gradient, by Hellmann-Feynman that of
    v* F v = Tr(Z W Z*) / 2 with Z_w = A_w unvec(v), is one pass back through Z_(a w) = L_a Z_w from B = Z W: B_w
    gains L_a* B_(a w), and letter a gains M = Z_w B_(a w)* (monoid), i M L_a (group, a > 0) or -i L_a M (a < 0)."""
    n, N, k = Y.dim, len(basis), f.k
    A = word_images(Y, basis, np.eye(n)).reshape(n, N, n)
    T = np.tensordot(A, W.reshape(N, k, N, k), (1, 0))  # T[l, j, b, v, a] = sum_w A_w[l, j] W[(w, b), (v, a)]
    F = np.tensordot(A.conj(), T, ([0, 1], [0, 3])).transpose(3, 0, 2, 1).reshape(k * n, k * n) / 2
    if not np.isfinite(F).all():
        return math.inf, np.zeros((f.g, n, n)), None
    lam, V = np.linalg.eigh(F)
    Z = A @ unvec(V[:, 0], k)
    B = (Z.reshape(n, N * k) @ W).reshape(n, N, k)
    grad = np.zeros((f.g, n, n), dtype=complex)
    head, tail = suffix_table(basis)
    for j, a, t in zip(range(N - 1, 0, -1), head[:0:-1].tolist(), tail[:0:-1].tolist()):
        L = Y.entries[a - 1] if a > 0 else Y.entries[-a - 1].conj().T
        M = Z[:, t] @ B[:, j].conj().T
        grad[abs(a) - 1] += M if f.mode == MONOID else 1j * M @ L if a > 0 else -1j * L @ M
        B[:, t] += L.conj().T @ B[:, j]
    return float(lam[0]), (grad + grad.conj().transpose(0, 2, 1)) / 2, V[:, 0]


def _rounding(f: NCPoly, Y: OperatorTuple) -> float:
    """A bound on how far lambda_min of the computed Hermitian part of f(Y)
    lies from lambda_min of f at the nearest self-adjoint or unitary tuple,
    so that the witness gate does not call rounding a witness: four times the sum
    over w of P_w = ||F_w|| prod_a ||Y_a|| times the following (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, chapters 3 and 4;
    gamma_j = j u / (1 - j u), u = eps / 2).  |w| n gamma_{n+2}: the |w|
    complex n x n products of Y^w, each off by gamma_{n+2} |A| |B| entrywise;
    gamma_4: F_w (x) Y^w and the Hermitian part; sqrt(k n) gamma_N: the sum
    of the N terms; (k n)^1.5 eps: eigh, exact for H + E with ||E|| <=
    k n eps ||H||_F (sdp._low_eig); |w| delta (1 + delta)^|w|: the nearest
    unitary, within delta = unitary_defect of each Y_a (0 for the monoid,
    whose moves keep Y exactly Hermitian)."""
    n, kn = Y.dim, f.k * Y.dim
    gamma = lambda j: j * EPS / 2 / (1 - j * EPS / 2)
    delta = 0.0 if f.mode == MONOID else Y.unitary_defect()
    norms = [opnorm(y) for y in Y.entries]
    shared = gamma(4) + math.sqrt(kn) * gamma(len(f.words)) + kn ** 1.5 * EPS
    return 4 * sum(c * math.prod(norms[abs(a) - 1] for a in w)
                   * (len(w) * (n * gamma(n + 2) + delta * (1 + delta) ** len(w)) + shared)
                   for w, c in zip(f.words, np.linalg.norm(f.coeffs, 2, axis=(1, 2)).tolist()))


def point_functional(f: NCPoly, index: tuple, Y: OperatorTuple, gamma: np.ndarray) -> HankelFunctional:
    """phi(P u) = <(P u)(Y) gamma, gamma> on the word-pair table index: block
    (v, w) of its quotient matrix, S_{v* w}^T, is Z_v^dagger Z_w with
    Z = word_images(Y, basis, unvec(gamma)), so gns_verify of (Y, gamma) is 0."""
    (products, table), n, k = index, len(index[1]), f.k
    Z = word_images(Y, products[:n], unvec(gamma, k))
    blocks = np.empty((len(products), k, k), dtype=complex)
    blocks[table] = (Z.conj().T @ Z).reshape(n, k, n, k).transpose(0, 2, 3, 1)
    return HankelFunctional(f.g, f.mode, k, index, blocks)


@np.errstate(over="ignore", invalid="ignore")
def tuple_search(f: NCPoly, index: tuple) -> tuple[str, dict]:
    """Search n x n tuples Y, n = 1 .. TUPLE_MAX_SIDE, for one at which f is
    not psd: minimize lambda_min of f(Y) in its Gram form on index's basis (_lowest) with sdp.lbfgs
    along _move from TUPLE_STARTS starts per side, and gate (_gate) each end at most -EPS_WIT as the
    model (Y, v), v its lowest eigenvector, with its point functional on index: the gate alone forms
    f(Y) term by term (poly_eval), within the evaluation budget.  Returns a note and the first passing
    evidence, or {}."""
    (products, table), best, refusal = index, math.inf, ""
    labels = class_labels(table, f.k)  # G: each class's target split equally over it, made Hermitian as sdp's means
    G = (f.on(products).ravel() / np.bincount(labels.ravel()))[labels]
    lowest = partial(_lowest, f, products[:len(table)], G.T + G.conj())  # 2 G^T once G is (G + G*) / 2
    for n in range(1, TUPLE_MAX_SIDE + 1):
        for start in range(TUPLE_STARTS):
            Y, low, v = lbfgs(lowest, _tuple_start(f, n, start), _move,
                              TUPLE_MAX_STEPS, TUPLE_STALL, EPS_WIT, -TUPLE_DEPTH)
            best = min(best, low)
            if not low <= -EPS_WIT:
                continue
            refusal, witness = _gate(f, WitnessModel(Y, v, point_functional(f, index, Y, v)))
            if not refusal:
                return f"tuple search, side {n}", witness
    return f"tuple search to side {TUPLE_MAX_SIDE}" + (f": {refusal}" if refusal else f", min eig {best:.3e}"), {}


# -- the decision ------------------------------------------------------------


def certify(f: NCPoly) -> CertifyOutcome:
    """Decide f at its Gram degree d = infer_degree(f): the primal's outcome
    when the solve is feasible, else the dual's.  The dual reads the primal's
    table and solve, so a decision builds and solves one Gram system, in both
    modes, and its outcome is the one decompose or witness gives."""
    d = infer_degree(f)
    out, solved = run_primal(f, d)
    return out if solved[1].feasible else run_dual(f, d, solved)


# -- the evidence gates: certify runs them on its answers, spotcheck on stored ones --
# Every comparison refuses NaN, and a number that overflows float64 is refused
# with that reason before an eigensolver or a 2-norm reads it.


def refuse_evaluation(f: NCPoly, dim: int) -> str:
    """Why f is not evaluated at a tuple on C^dim ("" when it is):
    sdp.refuse_bytes's reason for what poly_eval holds, poly.eval_bytes."""
    return refuse_bytes(eval_bytes(f, dim), f"f(X) of side {f.k * dim}")


@np.errstate(over="ignore", invalid="ignore")
def refuse_witness(f: NCPoly, Y: OperatorTuple) -> tuple[str, float, np.ndarray | None]:
    """Why Y does not witness that f is not SOS ("" when it does), then the
    smallest eigenvalue (NaN when f(Y) overflows or is not formed) and the
    Hermitian part of f(Y) (None when over refuse_evaluation's budget): Y
    must be self-adjoint (monoid) or unitary (group) within
    OPERATOR_DEFECT_TOL, f(Y) finite, and min eig f(Y) <= -EPS_WIT and below
    minus _rounding's bound on what rounding and the operator defect move it."""
    if too_large := refuse_evaluation(f, Y.dim):
        return too_large, math.nan, None
    fY = poly_eval(f, Y)
    fY = fY / 2 + fY.conj().T / 2
    finite = bool(np.isfinite(fY).all())
    low = float(np.linalg.eigvalsh(fY).min()) if finite else math.nan
    kind, defect = (("self-adjointness", Y.hermitian_defect()) if Y.mode == MONOID
                    else ("unitarity", Y.unitary_defect()))
    if not defect <= OPERATOR_DEFECT_TOL:
        return (f"operators miss {kind} by {defect:.3e}" if math.isfinite(defect)
                else f"the operators' {kind} defect overflows float64"), low, fY
    if not finite:
        return "f(Y) overflows float64", low, fY
    if not low <= -EPS_WIT:
        return f"witness margin too small (min eig {low:.3e})", low, fY
    if not low <= -(bound := _rounding(f, Y)):
        return f"min eig {low:.3e} is within the bound {bound:.3e} on rounding and the operator defect", low, fY
    return "", low, fY


@np.errstate(over="ignore", invalid="ignore")
def refuse_certificate(f: NCPoly, cert: SOSCertificate) -> tuple[str, float, float]:
    """Why cert does not prove f SOS ("" when it does), the larger of the two
    coefficient misses it measured, and the smallest eigenvalue of the Gram
    matrix's Hermitian part: G must be psd within EPS_PSD, and V* G V and the
    sum of r* r, each read off G's table, must reconstruct f within EPS_CERT."""
    G = cert.gram.matrix
    low = float(np.linalg.eigvalsh(G / 2 + G.conj().T / 2).min())
    note = "" if low >= -EPS_PSD else f"Gram matrix is not psd (min eigenvalue {low:.3e})"
    products, table = cert.gram.index
    want = f.on(list(dict.fromkeys(products + f.words)))  # f's words off the table come last
    off = np.zeros_like(want[len(products):])  # and each misses by its whole coefficient
    worst = 0.0
    for name, sums in (("Gram matrix", block_sums(G, table)), ("factors", cert.reconstruction())):
        sums[np.linalg.norm(sums, axis=(1, 2)) <= COEFF_DROP_TOL] = 0  # the terms an NCPoly drops
        diff = np.concatenate((sums, off)) - want
        miss = float(np.linalg.norm(diff, 2, axis=(1, 2)).max(initial=0.0)) if np.isfinite(diff).all() else math.inf
        if not miss <= EPS_CERT and not note:
            note = f"{name} miss the input by {miss:.3e}" + (": it overflows float64" if math.isinf(miss) else "")
        worst = max(worst, miss)
    return note, worst, low

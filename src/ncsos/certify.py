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
and the eigenvalue of f(Y).  When Dykstra's budget ends with neither a psd
point nor a certificate (on inputs that vanish somewhere, such as
2 - u1 - u1^-1), one max-margin interior-point solve answers either way.
Near the boundary of the cone the answer may be Undecided.

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
    gns_verify, WitnessModel,
)
from .gram import (
    EPS_CERT, EPS_PSD, GramMatrix, SOSCertificate, block_sums, class_labels,
    constraint_index, factor_gram,
)
from .poly import COEFF_DROP_TOL, NCPoly, OperatorTuple, eval_bytes, poly_eval
from .sdp import AffineSystem, FeasibilityResult, refuse_bytes, solve_feasibility
from .words import MONOID, count_words

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
    one, the Farkas certificate's pairing, the refusal, and the max-margin
    handover's Newton steps or why the solve ended without one."""
    parts = ("" if res.certificate is None else f"Farkas certificate, pairing {res.pairing:.3e}", refusal,
             res.reason or (f"max-margin handover, {res.newton_steps} Newton steps" if res.newton_steps else ""))
    return CertifyOutcome(kind, d, res.iterations, res.final_gap, "; ".join(part for part in parts if part),
                          **evidence)


def run_primal(f: NCPoly, d: int) -> tuple[CertifyOutcome, tuple]:
    """Dykstra on the Gram system, with the free state as its interior point,
    and the max-margin handover (sdp.solve_feasibility, at its fixed budget
    and tolerance).  Returns the outcome, sos or undecided with the solve's
    record, and (index, result): the degree-d word-pair table, which the
    certificate's GramMatrix carries, and the solver's result, however the
    solve ended (its reason is in the note).

    Every answer passes the certificate gate, refuse_certificate, whose psd
    test refuses a point that factor_gram factors only by its psd part, so
    neither the handover nor a point psd only to the solver's tolerance makes
    a wrong certificate.
    """
    index = constraint_index(f.g, d, f.mode)
    res = solve_feasibility(gram_system(f, index), interior=free_state(f, d))
    refusal = ""
    if res.feasible:
        cert = factor_gram(GramMatrix(f.g, f.mode, f.k, index, res.X))
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
    the witness from it, gated on the operator defect, gns_verify and
    min eig f(Y) <= -EPS_WIT.  Returns the outcome, witness or undecided with
    the solve's record."""
    index, res = solved or (constraint_index(f.g, d, f.mode), None)
    if res is None:
        res = solve_feasibility(hankel_system(f, index), interior=free_state(f, d))
    undecided = partial(_outcome, res, d)
    if res.certificate is None:
        return undecided(f"Gram system of degree {d} is feasible" if res.feasible
                         else f"no Farkas certificate at degree {d}")
    S = functional_from_solution(res.certificate, f, index)
    try:
        model = gns_construct(S) if f.mode == MONOID else gns_construct_unitary(S)
    except GnsError as exc:
        return undecided(f"GNS failed: {exc}")
    refusal, min_eig, fY = refuse_witness(f, model.operators)
    if refusal:
        return undecided(refusal)
    residual = gns_verify(S, model)
    if not residual <= GNS_VERIFY_TOL:
        return undecided(f"GNS verification residual {residual:.3e}")
    model.gns_residual = residual
    return _outcome(res, d, kind="witness", model=model, min_eig=min_eig,
                    refuted_value=complex(np.vdot(model.gamma, fY @ model.gamma)))


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
    OPERATOR_DEFECT_TOL, f(Y) finite, and min eig f(Y) <= -EPS_WIT."""
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

"""End-to-end decision pipeline: sum-of-squares certificate or GNS witness.

Both sides solve the Gram system {G psd, V* G V = f} with one engine,
Dykstra (sdp.solve_feasibility), once per distinct system.  The primal
solves it at the input's degree d and factors a psd solution into squares.
Without a solution, Dykstra's displacement gives a Farkas certificate: a
psd matrix constant on the classes of the word-pair table, the Hankel
matrix of the paper's separating functional, positive on squares and
negative on f.  The dual takes the certificate at degree D (d + 1 in monoid
mode; d in group mode, where the system is the primal's and is not solved
again) and GNS turns it into a tuple at which f has a negative eigenvalue.
The certificate mixes in the paper's free state (free_state), positive
definite and constant on the classes, so GNS keeps every direction; a
witness still rests only on its own gates: the operator defect, gns_verify
and the eigenvalue of f(Y).  Only the primal falls back to the max-margin
interior-point solve, when Dykstra ends with neither a feasible point nor a
certificate (inputs that vanish somewhere, such as 2 - u1 - u1^-1).  Near
the boundary of the cone the answer may be Undecided.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fock import FockBasis, vacuum_images
from .gns import (
    GnsError, HankelFunctional, gns_construct, gns_construct_unitary,
    gns_verify, WitnessModel,
)
from .gram import (
    EPS_CERT, EPS_PSD, GramMatrix, SOSCertificate, block_sums, class_labels,
    constraint_index, factor_gram, gram_to_poly,
)
from .poly import NCPoly, OperatorTuple, poly_eval
from .sdp import (
    AffineSystem, FeasibilityResult, InconsistentSystemError, max_margin,
    project_affine, solve_feasibility,
)
from .words import MONOID, count_words, involute

GNS_VERIFY_TOL = 1e-8
OPERATOR_DEFECT_TOL = 1e-8  # max self-adjointness (monoid) or unitarity (group) defect of Y
EPS_WIT = 1e-6              # a witness needs min eig of f(Y) <= -EPS_WIT


class CertifyError(ValueError):
    pass


@dataclass
class CertifyOptions:
    d: int | None = None
    max_iter: int = 50_000
    tol: float = 1e-9


@dataclass
class BranchDiagnostics:
    iterations: int = 0
    gap: float = math.inf
    note: str = ""


@dataclass
class CertifyOutcome:
    kind: str  # "sos" | "witness" | "undecided"
    certificate: SOSCertificate | None = None
    model: WitnessModel | None = None
    min_eig: float | None = None
    refuted_value: complex | None = None
    primal: BranchDiagnostics = field(default_factory=BranchDiagnostics)
    dual: BranchDiagnostics = field(default_factory=BranchDiagnostics)
    degree: int = 0


def infer_degree(f: NCPoly, opts: CertifyOptions) -> int:
    """The Gram degree d of a Hermitian input: opts.d, else ceil(deg f / 2)."""
    if not f.is_hermitian():
        raise CertifyError("input polynomial is not Hermitian")
    d = opts.d if opts.d is not None else math.ceil(f.degree() / 2)
    if f.degree() > 2 * d:
        raise CertifyError(f"degree {f.degree()} exceeds 2*d = {2 * d}")
    return d


# -- primal: Gram feasibility ------------------------------------------------


def _pinned_system(f: NCPoly, products: list, table: np.ndarray) -> AffineSystem:
    """Affine constraints on G forcing V^* G V = f over the word-pair table:
    the (a, b) entries of the blocks G_{v,w} with v* w = u are pinned to sum
    to f_u[a, b]."""
    targets = np.concatenate([f.coeff(u).ravel() for u in products])
    return AffineSystem(len(table) * f.k, class_labels(table, f.k), targets)


def gram_system(f: NCPoly, d: int) -> AffineSystem:
    """The Gram system of f at degree d."""
    return _pinned_system(f, *constraint_index(f.g, d, f.mode))


def _interior_point_polish(sys: AffineSystem) -> np.ndarray | None:
    """Max-margin interior-point solve of the same feasibility system.

    Used only when Dykstra stalls on a Gram system, which it does on sets
    with no strictly feasible point (polynomials that vanish somewhere).
    The answer is projected back onto the affine set so the coefficient
    constraints hold to working precision, and is returned only if it is
    psd to within EPS_PSD; a system whose best margin is below -EPS_PSD
    returns None.
    """
    res = max_margin(sys, floor=-EPS_PSD)
    try:
        X, _ = project_affine(res.X, sys)
    except InconsistentSystemError:
        return None
    if float(np.linalg.eigvalsh(X).min()) < -EPS_PSD:
        return None
    return X


def _miss(p: NCPoly, f: NCPoly) -> float:
    """max_u ||P_u - F_u||, how far p is from f coefficientwise."""
    diffs = [p.coeff(u) - f.coeff(u) for u in p.terms.keys() | f.terms.keys()]
    return float(np.linalg.norm(diffs, 2, axis=(1, 2)).max()) if diffs else 0.0


def run_primal(f: NCPoly, d: int, opts: CertifyOptions):
    """Dykstra on the Gram system, with the free state as its interior point,
    then the interior-point polish if it ends with neither a psd point nor a
    Farkas certificate.  Returns the certificate (or None), the diagnostics
    and Dykstra's result (None when the constraints are inconsistent).

    Every answer passes spotcheck's certificate gate, its psd test before
    factoring, so neither the polish nor a loose tol makes a wrong certificate.
    """
    sys = gram_system(f, d)
    try:
        res = solve_feasibility(sys, max_iter=opts.max_iter, tol=opts.tol,
                                interior=free_state(f, d))
        stalled = not res.feasible and res.certificate is None
        X = _interior_point_polish(sys) if stalled else res.X
    except InconsistentSystemError as exc:
        return None, BranchDiagnostics(0, exc.residual, "inconsistent Gram constraints"), None
    diag = BranchDiagnostics(res.iterations, res.final_gap)
    if res.certificate is not None:
        diag.note = f"Farkas certificate, pairing {res.pairing:.3e}"
    if X is None:
        return None, diag, res
    if stalled:
        diag.gap, diag.note = 0.0, "interior-point polish"
    G = GramMatrix(f.g, f.mode, d, f.k, X)
    refusal, _ = _psd_refusal(G)
    if not refusal:
        cert = factor_gram(G)
        refusal, cert.residual, _ = _refuse_certificate(f, cert)
    if refusal:
        diag.note = refusal
        return None, diag, res
    return cert, diag, res


# -- dual: Hankel functional search -------------------------------------------


def dual_degree(f: NCPoly, d: int) -> int:
    """The degree D of the dual's system: d + 1 in monoid mode, d in group
    mode, and at least 1."""
    return max(d + 1 if f.mode == MONOID else d, 1)


def hankel_system(f: NCPoly, index: tuple[list, np.ndarray]) -> AffineSystem:
    """The dual's system: the Gram system of f over the word-pair table
    index = constraint_index(g, D, mode).  The Hankel storage of its
    certificate's functional is the conjugate of the certificate, entry
    ((v, a), (w, b)) S_{v*w}[b, a] = conj(y_{v*w}[a, b]), so that
    phi(f) = sum_u Tr(S_u F_u) is the certificate's pairing."""
    return _pinned_system(f, *index)


def functional_from_solution(X: np.ndarray, f: NCPoly, D: int,
                             index: tuple[list, np.ndarray]) -> HankelFunctional:
    """Read the S_u blocks back off a Hankel storage matrix over the degree-D
    word-pair table index (entry ((v, alpha), (w, beta)) holds
    S_{v*w}[beta, alpha]), averaging over each class and enforcing the
    Hermitian block structure exactly; f gives the alphabet, mode and k."""
    products, table = index
    sizes = np.bincount(table.ravel())
    # transposing the block sums undoes the in-place transpose of the storage
    means = block_sums(X, table).transpose(0, 2, 1) / sizes[:, None, None]
    blocks = dict(zip(products, means))
    for u in products:
        ui = involute(u)
        avg = (blocks[u] + blocks[ui].conj().T) / 2
        blocks[u] = avg
        blocks[ui] = avg.conj().T
    return HankelFunctional(g=f.g, mode=f.mode, k=f.k, D=D, blocks=blocks)


def free_state(f: NCPoly, D: int) -> np.ndarray:
    """The unit-trace K of the paper's free state on the degree-D basis of
    f's alphabet and mode, with f's k x k blocks.

    Monoid mode: the vacuum state of the semicircular tuple A, so
    H[v, w] = <A^w vacuum, A^v vacuum>, that is H = M^dagger M with the
    vacuum images of fock.vacuum_images as the columns of M.  Group mode:
    the trace of the free group, the vacuum state of the canonical
    unitaries, so H = I.  Scalar blocks make the in-place block transpose
    of the storage a no-op: K = kron(H, I_k) / trace.  H is a Gram matrix
    of linearly independent vectors (M is unit upper triangular), so K is
    positive definite.
    """
    if f.mode == MONOID:
        M = vacuum_images(FockBasis(f.g, D, MONOID))
        H = M.conj().T @ M
    else:
        H = np.eye(count_words(f.g, D, f.mode), dtype=complex)
    K = np.kron(H, np.eye(f.k))
    return K / np.trace(K).real


def run_dual(f: NCPoly, d: int, opts: CertifyOptions, primal: FeasibilityResult | None = None):
    """Dykstra on the Gram system of f at degree D = dual_degree(f, d), with
    the free state of degree D as its interior point.  In group mode D = d
    and that is the primal's system, so a primal result handed in is read as
    it is: the same deterministic solve would only repeat it.  Its Farkas
    certificate Z = H + s K, conjugated and scaled to unit trace, is the
    Hankel storage of a functional positive definite on squares and negative
    on f; GNS builds the witness from it, gated on the operator defect,
    gns_verify and min eig f(Y) <= -EPS_WIT."""
    D = dual_degree(f, d)
    index = constraint_index(f.g, D, f.mode)
    res = primal if D == d else None
    if res is None:
        try:
            res = solve_feasibility(hankel_system(f, index), max_iter=opts.max_iter,
                                    tol=opts.tol, interior=free_state(f, D))
        except InconsistentSystemError as exc:
            return None, None, None, BranchDiagnostics(0, exc.residual, "inconsistent dual system")
    diag = BranchDiagnostics(res.iterations, res.final_gap)
    if res.certificate is None:
        diag.note = (f"Gram system of degree {D} is feasible" if res.feasible
                     else f"no Farkas certificate at degree {D}")
        return None, None, None, diag
    Z = res.certificate.conj()
    S = functional_from_solution(Z / np.trace(Z).real, f, D, index)
    try:
        model = gns_construct(S) if f.mode == MONOID else gns_construct_unitary(S)
    except GnsError as exc:
        diag.note = f"GNS failed: {exc}"
        return None, None, None, diag
    refusal, min_eig, fY = _refuse_witness(f, model.operators)
    if refusal:
        diag.note = refusal
        return None, None, None, diag
    residual = gns_verify(S, model)
    if residual > GNS_VERIFY_TOL:
        diag.note = f"GNS verification residual {residual:.3e}"
        return None, None, None, diag
    model.gns_residual = residual
    return model, min_eig, complex(np.vdot(model.gamma, fY @ model.gamma)), diag


# -- the decision ------------------------------------------------------------


def certify(f: NCPoly, opts: CertifyOptions | None = None) -> CertifyOutcome:
    opts = opts or CertifyOptions()
    d = infer_degree(f, opts)

    cert, primal_diag, solved = run_primal(f, d, opts)
    if cert is not None:
        return CertifyOutcome("sos", certificate=cert, primal=primal_diag,
                              degree=d)

    model, min_eig, refuted, dual_diag = run_dual(f, d, opts, solved)
    if model is not None:
        return CertifyOutcome("witness", model=model, min_eig=min_eig,
                              refuted_value=refuted, primal=primal_diag,
                              dual=dual_diag, degree=d)

    return CertifyOutcome("undecided", primal=primal_diag, dual=dual_diag,
                          degree=d)


# -- spot checks ---------------------------------------------------------------


@dataclass
class SpotcheckReport:
    kind: str
    min_eig: float
    threshold: float
    ok: bool
    note: str = ""  # why the stored evidence is refused, if it is


def _refuse_witness(f: NCPoly, Y: OperatorTuple) -> tuple[str, float, np.ndarray]:
    """Why Y does not witness that f is not SOS ("" when it does), then the
    smallest eigenvalue and the Hermitian part of f(Y): Y must be
    self-adjoint (monoid) or unitary (group) within OPERATOR_DEFECT_TOL, and
    min eig f(Y) <= -EPS_WIT."""
    fY = poly_eval(f, Y)
    fY = (fY + fY.conj().T) / 2
    low = float(np.linalg.eigvalsh(fY).min())
    kind, defect = (("self-adjointness", Y.hermitian_defect()) if Y.mode == MONOID
                    else ("unitarity", Y.unitary_defect()))
    if defect > OPERATOR_DEFECT_TOL:
        return f"operators miss {kind} by {defect:.3e}", low, fY
    if low > -EPS_WIT:
        return f"witness margin too small (min eig {low:.3e})", low, fY
    return "", low, fY


def _psd_refusal(G: GramMatrix) -> tuple[str, float]:
    """Why G is not psd within EPS_PSD ("" when it is), and the smallest
    eigenvalue of its Hermitian part."""
    low = float(np.linalg.eigvalsh((G.matrix + G.matrix.conj().T) / 2).min())
    return (f"Gram matrix is not psd (min eigenvalue {low:.3e})" if low < -EPS_PSD else ""), low


def _refuse_certificate(f: NCPoly, cert: SOSCertificate | None) -> tuple[str, float, float]:
    """Why cert does not prove f SOS ("" when it does), the larger of the two
    coefficient misses it measured, and the smallest eigenvalue of the Gram
    matrix's Hermitian part: G must be psd within EPS_PSD, and both V* G V
    and the sum of r* r must reconstruct f within EPS_CERT."""
    if cert is None:
        raise CertifyError("sos outcome carries no certificate to check")
    note, low = _psd_refusal(cert.gram)
    worst = 0.0
    for name, p in (("Gram matrix", gram_to_poly(cert.gram)), ("factors", cert.reconstruction())):
        miss = _miss(p, f)
        if miss > EPS_CERT and not note:
            note = f"{name} miss the input by {miss:.3e}"
        worst = max(worst, miss)
    return note, worst, low


def spotcheck(f: NCPoly, outcome: CertifyOutcome) -> SpotcheckReport:
    """Check the stored evidence of a decision.

    SOS: the certificate gate of certify and decompose, _refuse_certificate:
    the Gram matrix must be psd within EPS_PSD, and it and its factors must
    reconstruct the input within EPS_CERT.  min_eig is the smallest
    eigenvalue of the Gram matrix's Hermitian part.  Witness: the stored
    tuple must be self-adjoint (monoid) or unitary (group) within
    OPERATOR_DEFECT_TOL and put an eigenvalue at or below -EPS_WIT into
    f(Y).  Either way ok holds exactly when the gate passes.  Any other
    outcome has nothing to check and raises CertifyError.
    """
    if outcome.kind not in ("sos", "witness"):
        raise CertifyError(f"no decided outcome to spot check (kind {outcome.kind!r})")
    if outcome.kind == "witness":
        note, low, _ = _refuse_witness(f, outcome.model.operators)
        return SpotcheckReport("witness", low, -EPS_WIT, not note, note)
    note, _, low = _refuse_certificate(f, outcome.certificate)
    return SpotcheckReport("sos", low, -EPS_PSD, not note, note)

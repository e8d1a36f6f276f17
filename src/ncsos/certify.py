"""End-to-end decision pipeline: sum-of-squares certificate or GNS witness.

Both sides solve the Gram system {G psd, V* G V = f} with one engine,
Dykstra (sdp.solve_feasibility), once per distinct system and word-pair
table.  The primal solves it at the input's degree d and factors a psd
solution into squares.  Without a solution, Dykstra's displacement gives a
Farkas certificate: a psd matrix constant on the classes of the word-pair
table, the Hankel matrix of the paper's separating functional, positive on
squares and negative on f.  The dual takes the certificate at degree D
(d + 1 in monoid mode; d in group mode, where the table, the system and its
solve are the primal's) and GNS turns it into a tuple at which f has a
negative eigenvalue.
The certificate mixes in the paper's free state (free_state), positive
definite and constant on the classes, so GNS keeps every direction; a
witness still rests only on its own gates: the operator defect, gns_verify
and the eigenvalue of f(Y).  When Dykstra's budget ends with neither a psd
point nor a certificate (on inputs that vanish somewhere, such as
2 - u1 - u1^-1), one max-margin interior-point solve answers either way.
Near the boundary of the cone the answer may be Undecided.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .fock import FockBasis, vacuum_images
from .gns import (
    GnsError, HankelFunctional, gns_construct, gns_construct_unitary,
    gns_verify, WitnessModel,
)
from .gram import (
    EPS_CERT, EPS_PSD, GramError, GramMatrix, SOSCertificate, block_sums, class_labels,
    constraint_index, factor_gram, gram_to_poly, mirror_classes,
)
from .poly import NCPoly, OperatorTuple, poly_eval
from .sdp import AffineSystem, FeasibilityResult, InconsistentSystemError, solve_feasibility
from .words import MONOID, count_words

GNS_VERIFY_TOL = 1e-8
OPERATOR_DEFECT_TOL = 1e-8  # max self-adjointness (monoid) or unitarity (group) defect of Y
EPS_WIT = 1e-6              # a witness needs min eig of f(Y) <= -EPS_WIT
MAX_GRAM_SIDE = 512         # largest side of the dual's Gram system infer_degree accepts


class CertifyError(ValueError):
    pass


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


def infer_degree(f: NCPoly, d: int | None = None) -> int:
    """The Gram degree of a Hermitian input: d, else ceil(deg f / 2).  A
    degree whose larger Gram system, the dual's, would have side above
    MAX_GRAM_SIDE is refused before anything is built, even the zero
    coefficient block of the Hermitian test."""
    if d is None:
        d = math.ceil(f.degree() / 2)
    if f.degree() > 2 * d:
        raise CertifyError(f"degree {f.degree()} exceeds 2*d = {2 * d}")
    D = dual_degree(f, d)  # count_words(g, D) >= D + 1: a huge D is refused uncounted
    side = f.k * (D + 1 if (D + 1) * f.k > MAX_GRAM_SIDE else count_words(f.g, D, f.mode))
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
    is the conjugate of the certificate, entry ((v, a), (w, b))
    S_{v*w}[b, a] = conj(y_{v*w}[a, b]), so that phi(f) = sum_u Tr(S_u F_u)
    is the certificate's pairing."""
    products, table = index
    return AffineSystem(len(table) * f.k, class_labels(table, f.k), f.on(products).ravel())


# the dual's name, bound to an object of its own: perfbench's tracer wraps
# bindings by identity and counts hankel_system calls apart
hankel_system = partial(gram_system)


def _note(res: FeasibilityResult, note: str = "") -> str:
    """note, then the max-margin handover's Newton steps or why it did not run."""
    stage = res.reason or (f"max-margin handover, {res.newton_steps} Newton steps" if res.newton_steps else "")
    return "; ".join(part for part in (note, stage) if part)


def _miss(p: NCPoly, f: NCPoly) -> float:
    """max_u ||P_u - F_u||, how far p is from f coefficientwise."""
    words = list(dict.fromkeys(p.words + f.words))
    return float(np.linalg.norm(p.on(words) - f.on(words), 2, axis=(1, 2)).max(initial=0.0))


def run_primal(f: NCPoly, d: int):
    """Dykstra on the Gram system, with the free state as its interior point,
    and the max-margin handover (sdp.solve_feasibility, at its fixed budget
    and tolerance).  Returns the certificate (or None), the diagnostics and
    (index, result): the degree-d word-pair table, which the certificate's
    GramMatrix carries, and the solver's result (None when the constraints
    are inconsistent).

    Every answer passes factor_gram's psd test and spotcheck's certificate
    gate, so neither the handover nor a point psd only to the solver's
    tolerance makes a wrong certificate.
    """
    index = constraint_index(f.g, d, f.mode)
    try:
        res = solve_feasibility(gram_system(f, index), interior=free_state(f, d))
    except InconsistentSystemError as exc:
        return None, BranchDiagnostics(0, exc.residual, "inconsistent Gram constraints"), (index, None)
    note = "" if res.certificate is None else f"Farkas certificate, pairing {res.pairing:.3e}"
    diag = BranchDiagnostics(res.iterations, res.final_gap, _note(res, note))
    if not res.feasible:
        return None, diag, (index, res)
    try:
        cert = factor_gram(GramMatrix(f.g, f.mode, d, f.k, index, res.X))
        refusal, cert.residual, _ = _refuse_certificate(f, cert)
    except GramError as exc:
        refusal = str(exc)
    if refusal:
        diag.note = _note(res, refusal)
        return None, diag, (index, res)
    return cert, diag, (index, res)


# -- dual: Hankel functional search -------------------------------------------


def dual_degree(f: NCPoly, d: int) -> int:
    """The degree D of the dual's system: d + 1 in monoid mode, d in group
    mode, and at least 1."""
    return max(d + 1 if f.mode == MONOID else d, 1)


def functional_from_solution(X: np.ndarray, f: NCPoly, D: int,
                             index: tuple[list, np.ndarray]) -> HankelFunctional:
    """Read the S_u blocks back off a Hankel storage matrix over the degree-D
    word-pair table index (entry ((v, alpha), (w, beta)) holds
    S_{v*w}[beta, alpha]), averaging over each class and enforcing the
    Hermitian block structure exactly: the mean of each class and the
    conjugate transpose of its mirror's are averaged.  f gives the alphabet,
    mode and k."""
    table = index[1]
    sizes = np.bincount(table.ravel())
    # transposing the block sums undoes the in-place transpose of the storage
    means = block_sums(X, table).transpose(0, 2, 1) / sizes[:, None, None]
    mirrored = means[mirror_classes(table)].conj().transpose(0, 2, 1)
    return HankelFunctional(f.g, f.mode, f.k, D, index, (means + mirrored) / 2)


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


def run_dual(f: NCPoly, d: int, primal: tuple | None = None):
    """solve_feasibility on the Gram system of f at degree D = dual_degree(f, d),
    with the free state of degree D as its interior point.  In group mode D = d
    and that is the primal's system, so run_primal's (index, result) handed
    in is read as it is: the same table and deterministic solve would only
    repeat it.  Its Farkas certificate Z = H + s K, conjugated and scaled to
    unit trace, is the Hankel storage of a functional positive definite on
    squares and negative on f; GNS builds the witness from it, gated on the
    operator defect, gns_verify and min eig f(Y) <= -EPS_WIT."""
    D = dual_degree(f, d)
    index, res = primal if primal is not None and D == d else (constraint_index(f.g, D, f.mode), None)
    if res is None:
        try:
            res = solve_feasibility(hankel_system(f, index), interior=free_state(f, D))
        except InconsistentSystemError as exc:
            return None, None, None, BranchDiagnostics(0, exc.residual, "inconsistent dual system")
    diag = BranchDiagnostics(res.iterations, res.final_gap, _note(res))

    def undecided(note):
        diag.note = _note(res, note)
        return None, None, None, diag

    if res.certificate is None:
        return undecided(f"Gram system of degree {D} is feasible" if res.feasible
                         else f"no Farkas certificate at degree {D}")
    Z = res.certificate.conj()
    S = functional_from_solution(Z / np.trace(Z).real, f, D, index)
    try:
        model = gns_construct(S) if f.mode == MONOID else gns_construct_unitary(S)
    except GnsError as exc:
        return undecided(f"GNS failed: {exc}")
    refusal, min_eig, fY = _refuse_witness(f, model.operators)
    if refusal:
        return undecided(refusal)
    residual = gns_verify(S, model)
    if residual > GNS_VERIFY_TOL:
        return undecided(f"GNS verification residual {residual:.3e}")
    model.gns_residual = residual
    return model, min_eig, complex(np.vdot(model.gamma, fY @ model.gamma)), diag


# -- the decision ------------------------------------------------------------


def certify(f: NCPoly, d: int | None = None) -> CertifyOutcome:
    """Decide f at Gram degree d (default ceil(deg f / 2)): sos, witness or
    undecided."""
    d = infer_degree(f, d)

    cert, primal_diag, solved = run_primal(f, d)
    if cert is not None:
        return CertifyOutcome("sos", certificate=cert, primal=primal_diag,
                              degree=d)

    model, min_eig, refuted, dual_diag = run_dual(f, d, solved)
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


def _refuse_certificate(f: NCPoly, cert: SOSCertificate | None) -> tuple[str, float, float]:
    """Why cert does not prove f SOS ("" when it does), the larger of the two
    coefficient misses it measured, and the smallest eigenvalue of the Gram
    matrix's Hermitian part: G must be psd within EPS_PSD, and both V* G V
    and the sum of r* r must reconstruct f within EPS_CERT."""
    if cert is None:
        raise CertifyError("sos outcome carries no certificate to check")
    G = cert.gram.matrix
    low = float(np.linalg.eigvalsh((G + G.conj().T) / 2).min())
    note = f"Gram matrix is not psd (min eigenvalue {low:.3e})" if low < -EPS_PSD else ""
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

"""End-to-end decision pipeline: sum-of-squares certificate or GNS witness.

The primal side searches for a psd Gram matrix matching the input
coefficients.  When that is inconclusive, the dual side searches for a
normalized positive Hankel functional that is strictly negative on the
input (margin delta, retried with smaller margins); the GNS construction
turns a successful functional into a concrete tuple at which the input has
a negative eigenvalue.  Both decisive answers carry independently checkable
evidence; near the boundary of the cone the pipeline may legitimately
return Undecided.

Each side runs Dykstra.  Only the primal falls back to the max-margin
interior-point solve, which decides Gram systems with no strictly feasible
point (inputs that vanish somewhere, such as 2 - u1 - u1^-1).  Every rung
of the dual below the input's best margin has a strictly feasible point,
so the dual has no fallback.

Dykstra's Hankel point is psd only to the solver tolerance, and GNS on it
fits shift operators through a quotient whose smallest directions carry
that error.  Before GNS the dual mixes in a small weight of the paper's
free state (free_state), which is positive definite; the mixed functional
is then bounded below by a multiple of the tolerance and GNS builds
operators that are self-adjoint or unitary to rounding.  A witness still
rests only on its own gates: the operator defect, gns_verify and the
eigenvalue of f(Y).
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
from .poly import NCPoly, OperatorTuple, opnorm, poly_eval
from .sdp import (
    AffineSystem, InconsistentSystemError, max_margin, project_affine,
    solve_feasibility,
)
from .words import MONOID, involute

GNS_VERIFY_TOL = 1e-8
OPERATOR_DEFECT_TOL = 1e-8  # max self-adjointness (monoid) or unitarity (group) defect of Y
EPS_WIT = 1e-6              # a witness needs min eig of f(Y) <= -EPS_WIT
DELTA_MIN = 1e-8            # the dual's smallest margin
# Weight of the free state in the dual functional, in units of the solver
# tolerance: s = FREE_MIX * tol / lambda_min(K_free).  Dykstra stops with
# lambda_min(K) >= -tol (K is a principal block of its iterate), so the mix
# (1 - s) K + s K_free is >= (FREE_MIX - 1) tol in every direction.  At the
# default tol = 1e-9 that is 9e-9, ninety times the gns.EPS_NULL cut of a
# unit-trace quotient (at most 1e-10), so GNS keeps every direction.
FREE_MIX = 10.0


class CertifyError(ValueError):
    pass


@dataclass
class CertifyOptions:
    d: int | None = None
    max_iter: int = 50_000
    tol: float = 1e-9
    delta: float = 1e-4


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
    d = opts.d if opts.d is not None else math.ceil(f.degree() / 2)
    if f.degree() > 2 * d:
        raise CertifyError(f"degree {f.degree()} exceeds 2*d = {2 * d}")
    return d


# -- primal: Gram feasibility ------------------------------------------------


def gram_system(f: NCPoly, d: int) -> AffineSystem:
    """Affine constraints on G forcing V_d^* G V_d = f: the (a, b) entries of
    the blocks G_{v,w} with v* w = u are pinned to sum to f_u[a, b]."""
    products, table = constraint_index(f.g, d, f.mode)
    targets = np.concatenate([f.coeff(u).ravel() for u in products])
    return AffineSystem(len(table) * f.k, class_labels(table, f.k), targets)


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
    return max((opnorm(c) for c in (p - f).terms.values()), default=0.0)


def run_primal(f: NCPoly, d: int, opts: CertifyOptions):
    """Dykstra on the Gram system, then the interior-point polish if it stalls.

    Every answer is re-verified against the input, so the polish cannot
    manufacture a wrong certificate.
    """
    sys = gram_system(f, d)
    try:
        res = solve_feasibility(sys, max_iter=opts.max_iter, tol=opts.tol)
        X = res.X if res.feasible else _interior_point_polish(sys)
    except InconsistentSystemError as exc:
        return None, BranchDiagnostics(0, exc.residual, "inconsistent Gram constraints")
    diag = BranchDiagnostics(res.iterations, res.final_gap)
    if X is None:
        return None, diag
    if not res.feasible:
        diag.gap, diag.note = 0.0, "interior-point polish"
    G = GramMatrix(f.g, f.mode, d, f.k, X)
    cert = factor_gram(G)
    if cert.residual > EPS_CERT:
        diag.note = f"factorization residual {cert.residual:.3e} above eps_cert"
        return None, diag
    sym_residual = _miss(cert.reconstruction(), f)
    if sym_residual > EPS_CERT:
        diag.note = f"reconstruction misses input by {sym_residual:.3e}"
        return None, diag
    cert.residual = max(cert.residual, sym_residual)
    return cert, diag


# -- dual: Hankel functional search -------------------------------------------


@dataclass
class _HankelLayout:
    g: int
    mode: str
    k: int
    D: int
    products: list   # constraint_index(g, D, mode): the product words and
    table: np.ndarray  # the n x n table of their indices

    @property
    def n(self) -> int:
        return len(self.table)

    @property
    def m(self) -> int:
        # psd variable: the transposed-block Hankel matrix plus one slack entry
        return self.n * self.k + 1


def _hankel_layout(f: NCPoly, D: int) -> _HankelLayout:
    return _HankelLayout(f.g, f.mode, f.k, D, *constraint_index(f.g, D, f.mode))


def hankel_system(f: NCPoly, layout: _HankelLayout, delta: float) -> AffineSystem:
    """Constraints: Hankel block equalities (tied classes), border zeros around
    the slack, and the dense rows unit trace and phi(f) + slack = -delta.

    The psd variable K stores S_{v*w} with each block transposed in place,
    so entry ((v, alpha), (w, beta)) equals S_{v*w}[beta, alpha].  The margin
    row reads S_u at the first pair (v0, w0) of each class, where the running
    maximum of the row-major table first reaches u's index.
    """
    k, m, n = layout.k, layout.m, layout.n
    slack = m - 1
    tied = len(layout.products) * k * k
    labels = np.full((m, m), -1)
    labels[:slack, :slack] = class_labels(layout.table, k)
    labels[:slack, slack], labels[slack, :slack] = np.arange(tied, tied + 2 * slack).reshape(2, slack)
    targets = np.concatenate([np.full(tied, np.nan), np.zeros(2 * slack)])

    trace = np.eye(m, dtype=complex)
    trace[slack, slack] = 0.0
    first = np.searchsorted(np.maximum.accumulate(layout.table.ravel()),
                            np.arange(len(layout.products)))
    v0, w0 = np.divmod(first, n)
    # coefficient of K[(v0, b), (w0, a)] is F[b, a]
    F = np.array([f.coeff(u) for u in layout.products])
    corner = np.zeros((n, k, n, k), dtype=complex)
    corner[w0, :, v0, :] = F.transpose(0, 2, 1)
    margin = np.zeros((m, m), dtype=complex)
    margin[:slack, :slack] = corner.reshape(slack, slack)
    margin[slack, slack] = 1.0
    margin = (margin + margin.conj().T) / 2
    return AffineSystem(m, labels, targets, [(trace, 1.0), (margin, -delta)])


def functional_from_solution(X: np.ndarray, layout: _HankelLayout) -> HankelFunctional:
    """Read the S_u blocks back off the solved psd variable, averaging over
    each Hankel class and enforcing the Hermitian block structure exactly."""
    sizes = np.bincount(layout.table.ravel())
    # transposing the block sums undoes the in-place transpose of the storage
    means = block_sums(X, layout.table).transpose(0, 2, 1) / sizes[:, None, None]
    blocks = dict(zip(layout.products, means))
    for u in layout.products:
        ui = involute(u)
        avg = (blocks[u] + blocks[ui].conj().T) / 2
        blocks[u] = avg
        blocks[ui] = avg.conj().T
    return HankelFunctional(g=layout.g, mode=layout.mode, k=layout.k, D=layout.D,
                            blocks=blocks)


def free_state(layout: _HankelLayout) -> np.ndarray:
    """The unit-trace K of the paper's free state on the layout's basis.

    Monoid mode: the vacuum state of the semicircular tuple A, so
    H[v, w] = <A^w vacuum, A^v vacuum>, that is H = M^dagger M with the
    vacuum images of fock.vacuum_images as the columns of M.  Group mode:
    the trace of the free group, the vacuum state of the canonical
    unitaries, so H = I.  Scalar blocks make the in-place block transpose
    of the storage a no-op: K = kron(H, I_k) / trace.  H is a Gram matrix
    of linearly independent vectors (M is unit upper triangular), so K is
    positive definite.
    """
    if layout.mode == MONOID:
        M = vacuum_images(FockBasis(layout.g, layout.D, MONOID))
        H = M.conj().T @ M
    else:
        H = np.eye(layout.n, dtype=complex)
    K = np.kron(H, np.eye(layout.k))
    return K / np.trace(K).real


def _margins(delta: float):
    """The dual's margins: delta, delta/10, ... down to DELTA_MIN."""
    while delta >= DELTA_MIN * (1 - 1e-12):
        yield delta
        delta /= 10


def _operator_defect(Y: OperatorTuple) -> tuple[str, float]:
    """What a witness tuple must be (self-adjoint in monoid mode, unitary in
    group mode) and how far Y is from it."""
    if Y.mode == MONOID:
        return "self-adjointness", Y.hermitian_defect()
    return "unitarity", Y.unitary_defect()


def run_dual(f: NCPoly, d: int, opts: CertifyOptions):
    """Margin search with delta shrinking by 10 down to DELTA_MIN; Dykstra
    alone on each rung.

    A feasible rung's functional is mixed with the free state,
    (1 - s) K + s K_free with s = FREE_MIX * tol / lambda_min(K_free), before
    GNS; s is fixed once per input.  The mixed point need not meet the
    margin row, which no gate reads: the witness is gated on f(Y) itself.
    """
    D = d + 1 if f.mode == MONOID else d
    if D < 1:
        D = 1
    layout = _hankel_layout(f, D)
    K_free = free_state(layout)
    s = min(1.0, FREE_MIX * opts.tol / float(np.linalg.eigvalsh(K_free)[0]))
    diag = BranchDiagnostics()
    weak = None
    for delta in _margins(opts.delta):
        sys = hankel_system(f, layout, delta)
        try:
            res = solve_feasibility(sys, max_iter=opts.max_iter, tol=opts.tol)
        except InconsistentSystemError as exc:
            diag.note = f"inconsistent dual system at delta={delta:.1e}"
            diag.gap = min(diag.gap, exc.residual)
            continue
        diag.iterations += res.iterations
        diag.gap = min(diag.gap, res.final_gap)
        if not res.feasible:
            continue
        K = res.X[:layout.n * layout.k, :layout.n * layout.k]
        S = functional_from_solution((1 - s) * K + s * K_free, layout)
        try:
            model = gns_construct(S) if f.mode == MONOID else gns_construct_unitary(S)
        except GnsError as exc:
            diag.note = f"GNS failed at delta={delta:.1e}: {exc}"
            continue
        kind, defect = _operator_defect(model.operators)
        if defect > OPERATOR_DEFECT_TOL:
            diag.note = f"GNS operators miss {kind} by {defect:.3e} at delta={delta:.1e}"
            continue
        residual = gns_verify(S, model)
        if residual > GNS_VERIFY_TOL:
            diag.note = f"GNS verification residual {residual:.3e}"
            continue
        model.gns_residual = residual
        fY = poly_eval(f, model.operators)
        fY = (fY + fY.conj().T) / 2
        min_eig = float(np.linalg.eigvalsh(fY).min())
        refuted = complex(np.vdot(model.gamma, fY @ model.gamma))
        if min_eig <= -EPS_WIT:
            return model, min_eig, refuted, diag
        weak = min_eig
        diag.note = f"witness margin too small (min eig {min_eig:.3e})"
    if weak is not None:
        diag.note = f"best witness has min eig {weak:.3e} above -eps_wit"
    return None, None, None, diag


# -- the decision ------------------------------------------------------------


def certify(f: NCPoly, opts: CertifyOptions | None = None) -> CertifyOutcome:
    opts = opts or CertifyOptions()
    if not f.is_hermitian():
        raise CertifyError("input polynomial is not Hermitian")
    d = infer_degree(f, opts)

    cert, primal_diag = run_primal(f, d, opts)
    if cert is not None:
        return CertifyOutcome("sos", certificate=cert, primal=primal_diag,
                              degree=d)

    model, min_eig, refuted, dual_diag = run_dual(f, d, opts)
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
    trials: int
    min_eig: float
    threshold: float
    ok: bool
    note: str = ""  # why the stored evidence is refused, if it is


def _random_tuple(g: int, mode: str, n: int, rng) -> OperatorTuple:
    mats = []
    for _ in range(g):
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if mode == MONOID:
            mats.append((M + M.conj().T) / 2)
        else:
            Q, R = np.linalg.qr(M)
            mats.append(Q * (np.diag(R) / np.abs(np.diag(R))))
    return OperatorTuple(mode, mats)


def _refuse_certificate(f: NCPoly, cert: SOSCertificate | None) -> str:
    """Why cert does not prove f SOS, or "" when it does: G must be psd and
    both V* G V and the sum of r* r must reconstruct f within EPS_CERT."""
    if cert is None:
        raise CertifyError("sos outcome carries no certificate to check")
    G = cert.gram.matrix
    low = float(np.linalg.eigvalsh((G + G.conj().T) / 2).min())
    if low < -EPS_PSD:
        return f"Gram matrix is not psd (min eigenvalue {low:.3e})"
    for name, p in (("Gram matrix", gram_to_poly(cert.gram)), ("factors", cert.reconstruction())):
        miss = _miss(p, f)
        if miss > EPS_CERT:
            return f"{name} miss the input by {miss:.3e}"
    return ""


def spotcheck(f: NCPoly, outcome: CertifyOutcome, trials: int = 200,
              n_max: int = 5, seed: int = 1729) -> SpotcheckReport:
    """Check the stored evidence of a decision, and sample the input.

    SOS: the certificate's Gram matrix must be psd, it and its factors must
    reconstruct the input, and the input must be psd at random self-adjoint
    (or unitary) tuples.  Witness: the stored tuple must be self-adjoint
    (monoid) or unitary (group) within OPERATOR_DEFECT_TOL and exhibit a
    negative eigenvalue.  Any other outcome has nothing to check and raises
    CertifyError.
    """
    if outcome.kind not in ("sos", "witness"):
        raise CertifyError(f"no decided outcome to spot check (kind {outcome.kind!r})")
    if outcome.kind == "witness":
        Y = outcome.model.operators
        fY = poly_eval(f, Y)
        fY = (fY + fY.conj().T) / 2
        low = float(np.linalg.eigvalsh(fY).min())
        kind, defect = _operator_defect(Y)
        note = f"operators miss {kind} by {defect:.3e}" if defect > OPERATOR_DEFECT_TOL else ""
        return SpotcheckReport("witness", 1, low, -EPS_WIT, low <= -EPS_WIT and not note, note)
    note = _refuse_certificate(f, outcome.certificate)
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(trials):
        n = int(rng.integers(1, n_max + 1))
        X = _random_tuple(f.g, f.mode, n, rng)
        fX = poly_eval(f, X)
        fX = (fX + fX.conj().T) / 2
        worst = min(worst, float(np.linalg.eigvalsh(fX).min()))
    return SpotcheckReport("sos", trials, worst, -EPS_PSD, worst >= -EPS_PSD and not note, note)

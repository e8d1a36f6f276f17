"""End-to-end decision pipeline: sum-of-squares certificate or GNS witness.

The primal side searches for a psd Gram matrix matching the input
coefficients.  When that is inconclusive, the dual side searches for a
normalized positive Hankel functional that is strictly negative on the
input (margin delta, retried with smaller margins); the GNS construction
turns a successful functional into a concrete tuple at which the input has
a negative eigenvalue.  Both decisive answers carry independently checkable
evidence; near the boundary of the cone the pipeline may legitimately
return Undecided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gns import (
    GnsError, HankelFunctional, gns_construct, gns_construct_unitary,
    gns_verify, WitnessModel,
)
from .gram import (
    EPS_CERT, EPS_PSD, GramMatrix, SOSCertificate, block_sums, class_labels,
    constraint_index, factor_gram,
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


class CertifyError(ValueError):
    pass


@dataclass
class CertifyOptions:
    d: int | None = None
    max_iter: int = 50_000
    tol: float = 1e-9
    eps_cert: float = EPS_CERT
    eps_wit: float = EPS_WIT
    delta: float = 1e-4
    delta_min: float = 1e-8


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


def _interior_point_polish(sys: AffineSystem, eps_psd: float) -> np.ndarray | None:
    """Max-margin interior-point solve of the same feasibility system.

    Used only when Dykstra stalls, which it does on Gram sets with no
    strictly feasible point (polynomials that vanish somewhere).  The
    answer is projected back onto the affine set so the coefficient
    constraints hold to working precision, and is returned only if it is
    psd to within eps_psd; a system whose best margin is below -eps_psd
    returns None.
    """
    res = max_margin(sys, floor=-eps_psd)
    try:
        X, _ = project_affine(res.X, sys)
    except InconsistentSystemError:
        return None
    if float(np.linalg.eigvalsh(X).min()) < -eps_psd:
        return None
    return X


def _solve_robust(sys: AffineSystem, opts: CertifyOptions, eps_psd: float):
    """Dykstra, then the max-margin interior-point solve if Dykstra stalls.

    Gram sets of polynomials that vanish somewhere sit in a face of the psd
    cone, where alternating projections converge sublinearly; the
    interior-point solve decides those boundary instances.  Every answer is
    re-verified against the original system, so the fallback cannot
    manufacture a wrong one.
    """
    res = solve_feasibility(sys, max_iter=opts.max_iter, tol=opts.tol)
    if res.feasible:
        return res.X, res.iterations, res.final_gap, ""
    X = _interior_point_polish(sys, eps_psd)
    if X is not None:
        return X, res.iterations, 0.0, "interior-point polish"
    return None, res.iterations, res.final_gap, ""


def run_primal(f: NCPoly, d: int, opts: CertifyOptions):
    sys = gram_system(f, d)
    try:
        X, iters, gap, note = _solve_robust(sys, opts, EPS_PSD)
    except InconsistentSystemError as exc:
        return None, BranchDiagnostics(0, exc.residual, "inconsistent Gram constraints")
    diag = BranchDiagnostics(iters, gap, note)
    if X is None:
        return None, diag
    G = GramMatrix(f.g, f.mode, d, f.k, X)
    cert = factor_gram(G)
    if cert.residual > opts.eps_cert:
        diag.note = f"factorization residual {cert.residual:.3e} above eps_cert"
        return None, diag
    target = cert.reconstruction() - f
    sym_residual = max((opnorm(c) for c in target.terms.values()), default=0.0)
    if sym_residual > opts.eps_cert:
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


def run_dual(f: NCPoly, d: int, opts: CertifyOptions):
    """Margin search with delta shrinking by 10 down to delta_min."""
    D = d + 1 if f.mode == MONOID else d
    if D < 1:
        D = 1
    layout = _hankel_layout(f, D)
    diag = BranchDiagnostics()
    delta = opts.delta
    best = None
    while delta >= opts.delta_min * (1 - 1e-12):
        sys = hankel_system(f, layout, delta)
        try:
            # an SOS input's best margin can be -delta/3: gate tighter than delta
            X, iters, gap, note = _solve_robust(sys, opts, min(EPS_PSD, delta / 10))
        except InconsistentSystemError as exc:
            diag.note = f"inconsistent dual system at delta={delta:.1e}"
            diag.gap = min(diag.gap, exc.residual)
            delta /= 10
            continue
        diag.iterations += iters
        diag.gap = min(diag.gap, gap)
        if X is not None:
            K = X[:layout.n * layout.k, :layout.n * layout.k]
            S = functional_from_solution(K, layout)
            try:
                model = (gns_construct(S) if f.mode == MONOID
                         else gns_construct_unitary(S))
            except GnsError as exc:
                diag.note = f"GNS failed at delta={delta:.1e}: {exc}"
                delta /= 10
                continue
            if f.mode == MONOID:
                kind, defect = "self-adjointness", model.selfadjointness_defect()
            else:
                kind, defect = "unitarity", model.unitarity_defect()
            if defect > OPERATOR_DEFECT_TOL:
                diag.note = f"GNS operators miss {kind} by {defect:.3e} at delta={delta:.1e}"
                delta /= 10
                continue
            residual = gns_verify(S, model)
            if residual > GNS_VERIFY_TOL:
                diag.note = f"GNS verification residual {residual:.3e}"
                delta /= 10
                continue
            model.gns_residual = residual
            fY = poly_eval(f, model.operators)
            fY = (fY + fY.conj().T) / 2
            min_eig = float(np.linalg.eigvalsh(fY).min())
            refuted = complex(np.vdot(model.gamma, fY @ model.gamma))
            if min_eig <= -opts.eps_wit:
                return model, min_eig, refuted, diag
            best = (model, min_eig, refuted)
            diag.note = f"witness margin too small (min eig {min_eig:.3e})"
        delta /= 10
    if best is not None:
        model, min_eig, refuted = best
        diag.note = f"best witness has min eig {min_eig:.3e} above -eps_wit"
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


def spotcheck(f: NCPoly, outcome: CertifyOutcome, trials: int = 200,
              n_max: int = 5, seed: int = 1729,
              eps_psd: float = EPS_PSD, eps_wit: float = EPS_WIT) -> SpotcheckReport:
    """Sample-based sanity check of a decision.

    SOS: the input must be psd at random self-adjoint (or unitary) tuples.
    Witness: the stored model must still exhibit a negative eigenvalue.
    Any other outcome has nothing to check and raises CertifyError.
    """
    if outcome.kind not in ("sos", "witness"):
        raise CertifyError(f"no decided outcome to spot check (kind {outcome.kind!r})")
    rng = np.random.default_rng(seed)
    if outcome.kind == "witness":
        fY = poly_eval(f, outcome.model.operators)
        fY = (fY + fY.conj().T) / 2
        low = float(np.linalg.eigvalsh(fY).min())
        return SpotcheckReport("witness", 1, low, -eps_wit, low <= -eps_wit)
    worst = math.inf
    for _ in range(trials):
        n = int(rng.integers(1, n_max + 1))
        X = _random_tuple(f.g, f.mode, n, rng)
        fX = poly_eval(f, X)
        fX = (fX + fX.conj().T) / 2
        worst = min(worst, float(np.linalg.eigvalsh(fX).min()))
    return SpotcheckReport("sos", trials, worst, -eps_psd, worst >= -eps_psd)

"""Deterministic semidefinite feasibility via Dykstra's alternating projections.

Finds a Hermitian matrix in the intersection of an affine subspace with the
psd cone, or a Farkas certificate that the intersection is empty, or
reports neither with the final gap.  Everything is deterministic for fixed
inputs.

The affine constraints pin disjoint classes of entries to their sums, so
A A* is diagonal (Henrion & Malick 2011) and the projection, project_affine,
is closed form: the entries of a class share its shortfall equally.  Both
projections return exactly Hermitian matrices, and sums and differences of
those are exactly Hermitian too, since conjugation commutes with rounding;
so project_psd takes its input as it is, with no symmetrization.

On a system with no solution, Dykstra's displacement y - x (psd side minus
affine side) tends to the shortest vector between the two sets (Bauschke &
Borwein 1994): a psd H = A*(h) in range(A*), constant on each class, whose
pairing Re sum_c conj(h_c) t_c with the targets is negative.  Re Tr(H X)
equals that pairing at every X of the affine set, so no psd X meets the
constraints.  solve_feasibility returns h, read off the class means of the
displacement, once rounding bounds prove both halves; broadcast(h) is H.

Where Dykstra converges sublinearly (no strictly feasible point, or an
empty intersection close to the cone), a factor search takes over after
DEFAULT_MAX_ITER iterations (Burer & Monteiro 2003): it minimizes
||A(R R*) - t||^2 over factors R of rank 1, 2, ..., and each rung gives a
point R R* or, in its residual, a displacement for the same certificate test.
Both stages build points psd from a root (Dykstra's clipped eigenpairs, or R):
the class-sum residual alone decides feasibility; the root gives the squares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import EPS_HERM

DEFAULT_MAX_ITER = 1_000  # Dykstra iterations before the factor search
DEFAULT_TOL = 1e-9        # class-sum residual of a feasible point, at most
EPS_AFFINE = 1e-7         # residual of the affine projection, at most: more is inconsistent
EPS_RANK = 1e-10          # eigenvalues of Dykstra's feasible point at or below this leave its root
EPS = np.finfo(float).eps
# Floor on the weight s of the interior point K in a certificate H + s K:
# s lambda_min(K) >= FREE_MIX DEFAULT_TOL ||H||_F.  A feasible point meets
# the constraints only to DEFAULT_TOL; a certificate has smallest eigenvalue
# at least 1e-8 of ||H||, a hundred times the gns.EPS_NULL cut of the
# quotient, so GNS on it keeps every direction and builds operators
# self-adjoint or unitary to rounding.
FREE_MIX = 10.0


class SdpError(ValueError):
    pass


@dataclass
class AffineSystem:
    """Affine constraints on Hermitian m x m matrices.

    labels[i, j] is the class of entry (i, j), as v* w is that of a Gram
    index pair (v, w), and the entries of class c sum to targets[c].  The
    transpose of a class must be a class with the conjugate target, its mirror,
    within EPS_HERM times the norm of the target vector, or 1 if that is
    smaller: no coefficient's operator norm is larger, so a polynomial that
    NCPoly.is_hermitian accepts passes.
    """

    m: int
    labels: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        m = self.m
        labels = np.asarray(self.labels, dtype=np.intp)
        targets = np.asarray(self.targets, dtype=complex).ravel()
        sizes = np.bincount(labels[labels >= 0], minlength=len(targets))
        if labels.shape != (m, m) or sizes.sum() != m * m or len(sizes) != len(targets) or not sizes.all():
            raise SdpError(f"labels must put each of the {m} x {m} entries in one of {len(targets)} classes")
        mirror = np.zeros(len(targets), dtype=np.intp)
        mirror[labels] = labels.T
        if not np.isfinite(targets).all():
            raise SdpError("class targets must be finite")
        scale = max(1.0, float(np.linalg.norm(targets)))
        if (mirror[labels] != labels.T).any() or (np.abs(targets - targets[mirror].conj()) > EPS_HERM * scale).any():
            raise SdpError("the transpose of a class is not a class with the conjugate "
                           "target (non-Hermitian pattern or coefficients)")
        self.labels, self.targets = labels, targets

        # per entry: the Re, Im bins of its class sums; per class: its
        # mirror and size, -1 / size and target / size
        self._bins = (2 * labels.ravel()[:, None] + np.arange(2)).ravel()
        self._mirror, self._sizes = mirror, sizes
        self._coef, self._tmean = -1.0 / sizes, targets / sizes

    @property
    def constraints(self) -> range:
        """One index per constraint, that is per class."""
        return range(len(self.targets))

    def _class_sums(self, X: np.ndarray) -> np.ndarray:
        """Sum over each class of the entries of X."""
        v = np.asarray(X, dtype=complex).ravel()
        return np.bincount(self._bins, v.view(float), minlength=2 * len(self.targets)).view(complex)

    def means(self, sums: np.ndarray) -> np.ndarray:
        """Class means from class sums, made Hermitian: the mean of a class
        and the conjugate mean of its mirror are averaged into exact
        conjugates, so broadcast gives a Hermitian matrix."""
        y = sums / self._sizes
        return (y + y[self._mirror].conj()) / 2

    def broadcast(self, h: np.ndarray) -> np.ndarray:
        """A*(h): h[c] on the entries of class c."""
        return h[self.labels]

    def residual(self, X: np.ndarray) -> float:
        """Largest violation, in real or imaginary part, of a class sum."""
        return float(np.abs((self._class_sums(X) - self.targets).view(float)).max(initial=0.0))


def project_psd(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frobenius-nearest psd matrix to an exactly Hermitian X, Q max(lam, 0) Q*,
    and the eigenpairs (lam, Q) of X it clips."""
    lam, Q = np.linalg.eigh(X)
    out = (Q * np.maximum(lam, 0.0)) @ Q.conj().T
    return (out + out.conj().T) / 2, lam, Q


def project_affine(X: np.ndarray, sys: AffineSystem) -> tuple[np.ndarray, float]:
    """Frobenius-orthogonal projection onto the affine solution set, each
    class sharing its shortfall equally, and its residual (sys.residual of
    the projection): a system no Hermitian matrix meets, or rounding at the
    scale of X, leaves one."""
    Y = np.asarray(X, dtype=complex) + (sys._class_sums(X) * sys._coef + sys._tmean)[sys.labels]
    out = (Y + Y.conj().T) / 2
    return out, sys.residual(out)


@dataclass
class FeasibilityResult:
    feasible: bool                         # X, psd as built, meets the constraints within DEFAULT_TOL
    X: np.ndarray | None
    iterations: int                        # Dykstra's
    final_gap: float
    certificate: np.ndarray | None = None  # Farkas certificate: class vector h with A*(h) psd
    pairing: float | None = None           # Re Tr(A*(h) X) on the affine set, < 0
    rank: int = 0                          # the factor search's last rung, 0 if it did not run
    reason: str = ""                       # why the solve did not start or stopped
    root: np.ndarray | None = None         # of a feasible X: R with R R* = X, within m EPS_RANK and rounding


def _low_eig(H: np.ndarray) -> tuple[float, np.ndarray, float]:
    """A lower bound on lambda_min(H), eigh's eigenvector for it, and
    ||H||_F: eigh is exact for some H + E with ||E||_2 <= m eps ||H||_F, and
    by Weyl lambda_min moves by at most ||E||_2."""
    evals, evecs = np.linalg.eigh(H)
    norm = float(np.linalg.norm(H))
    return float(evals[0]) - len(H) * EPS * norm, evecs[:, 0], norm


class _Farkas:
    """The certificate test of one system, with its interior point K = A*(k)
    read through its class means k; kappa > 0 proves it positive definite.

    A displacement with class means h passes when Weyl's inequality proves
    lambda_min(A*(h) + s K) > 0 for the smallest s that leaves the floor
    FREE_MIX DEFAULT_TOL ||A*(h)||_F, and the pairing of the certificate, the
    class vector h + s k, is below zero by more than four times Higham's bound
    gamma_n sum |terms| on its rounding.
    """

    def __init__(self, sys: AffineSystem, interior: np.ndarray):
        self.sys, self.floor = sys, FREE_MIX * DEFAULT_TOL
        n = 2 * len(sys.targets) + 2  # real products in the pairing, and two sums
        self.gamma = 2 * n * EPS / (1 - n * EPS)  # four times Higham's gamma_n, u = EPS / 2
        self.k = sys.means(sys._class_sums(interior))
        self.kappa = _low_eig(sys.broadcast(self.k))[0]
        self.pk, self.ak = self._pairing(self.k)
        self.w = None  # class sums of conj(v) v^T over class sizes, v the last lowest eigenvector

    def _pairing(self, h: np.ndarray) -> tuple[float, float]:
        """Re sum_c conj(h_c) t_c, and the sum of its terms' absolute values."""
        a, b = h.view(float), self.sys.targets.view(float)
        return float(a @ b), float(np.abs(a) @ np.abs(b))

    def __call__(self, disp: np.ndarray):
        """(certificate, pairing) of the displacement disp, or None."""
        sys = self.sys
        sums = sys._class_sums(disp)
        # two dot products before any eigh: the pairing of the class means,
        # and v* A*(h) v >= lambda_min, a lower bound on s; in a stall the
        # last lowest eigenvector v keeps the negative direction of A*(h)
        ph = float(sums.view(float) @ sys._tmean.view(float))
        if not ph < 0:
            return None
        if self.w is not None:
            ray = float(np.dot(sums, self.w).real)
            if ray <= 0 and ph - ray / self.kappa * self.pk >= 0:
                return None
        h = sys.means(sums)
        H = sys.broadcast(h)
        low, v, norm = _low_eig(H)
        self.w = sys._class_sums(v.conj()[:, None] * v) / sys._sizes
        s = (max(0.0, -low) + self.floor * norm) / self.kappa
        bound = low + s * self.kappa  # <= lambda_min(H + s K), by Weyl
        ph, ah = self._pairing(h)
        pairing = ph + s * self.pk
        if not (bound > 4 * EPS * (abs(low) + s * self.kappa)
                and pairing < -self.gamma * (ah + s * self.ak)):
            return None
        return h + s * self.k, pairing


def solve_feasibility(sys: AffineSystem, interior: np.ndarray) -> FeasibilityResult:
    """Dykstra between the psd cone and the affine set, from project_affine(0);
    interior is the certificate test's positive definite point.

    Only the psd step carries a correction p.  The affine step's correction
    would be the residual of an orthogonal projection onto the affine set,
    which lies in range(A*); since P_A(z + A* mu) = P_A(z) for every mu, it
    would change neither the affine iterate x nor the displacement y - x.

    Each iteration first tests the displacement for a Farkas certificate
    (_Farkas), a proof that no psd solution exists.  Otherwise the psd
    iterate y, psd as built, is feasible once sys.residual(y) <= DEFAULT_TOL, its root
    sqrt(lam) q over its eigenpairs with lam > EPS_RANK.  After DEFAULT_MAX_ITER iterations
    with neither, each rung of factor_search, run from the last eigenpairs, is tested the same way: its
    point R R* (root R), by the same residual, else its residual's displacement.  With neither, the
    result is neither feasible nor certified.  Every end is a result, whose
    reason says why the solve did not start (an interior not positive
    definite on the classes) or stopped (an affine residual above EPS_AFFINE).
    """
    m = sys.m
    farkas = _Farkas(sys, interior)
    if not farkas.kappa > 0:
        return FeasibilityResult(False, None, 0, np.inf,
                                 reason="the interior point is not positive definite on the classes")
    x, _ = project_affine(np.zeros((m, m), dtype=complex), sys)
    p = np.zeros_like(x)
    for it in range(1, DEFAULT_MAX_ITER + 1):
        z = x + p
        y, lam, Q = project_psd(z)
        p = z - y
        x, aff_res = project_affine(y, sys)
        if aff_res > EPS_AFFINE:
            return FeasibilityResult(False, None, it, aff_res,
                                     reason=f"affine residual {aff_res:.3e}, above {EPS_AFFINE:.0e}")
        gap = sys.residual(y)
        found = farkas(y - x)
        if found is not None:
            return FeasibilityResult(False, None, it, gap, *found)
        if gap <= DEFAULT_TOL:
            return FeasibilityResult(True, y, it, gap, root=Q[:, lam > EPS_RANK] * np.sqrt(lam[lam > EPS_RANK]))

    for rank, R, X, e in factor_search(sys, (lam, Q)):
        if (miss := sys.residual(X)) <= DEFAULT_TOL:
            return FeasibilityResult(True, X, it, miss, rank=rank, root=R)
        found = farkas(sys.broadcast(e))
        if found is not None:
            return FeasibilityResult(False, None, it, gap, *found, rank=rank)
    return FeasibilityResult(False, None, it, gap, rank=rank)


# -- factor search -------------------------------------------------------------

LBFGS_MEMORY = 8       # curvature pairs lbfgs keeps
FACTOR_MAX_RANK = 12   # rungs of the factor search, at most
FACTOR_MAX_ITER = 400  # lbfgs steps per rung, at most
FACTOR_STALL = 1e-8    # a rung stops once a step lowers phi by less than this share of it
FACTOR_FALL = 0.5      # the ladder stops once a rung leaves phi above this share of the last rung's
FACTOR_START_FLOOR = 1e-2  # floor on a start's eigenvalues, as a share of the largest


def lbfgs(fun, x, move, steps: int, stall: float, scale: float, floor: float):
    """L-BFGS with backtracking (Nocedal & Wright, Numerical Optimization,
    7.2) from x, in the inner product Re vdot: fun(x) is (value, gradient,
    extra) and move(x, D) is x moved by D.  Stops after steps steps, at a
    value at most floor, or at a step that lowers it by less than stall
    times max(|value|, scale); returns the last x, value and extra."""
    dot = lambda a, b: float(np.vdot(a, b).real)
    value, grad, extra = fun(x)
    pairs: list[tuple] = []
    for _ in range(steps):
        if not value > floor:
            break
        q, alphas = grad.copy(), []  # the two-loop recursion: q = H grad
        for s, y, rho in reversed(pairs):
            alphas.append(rho * dot(s, q))
            q -= alphas[-1] * y
        q *= 1.0 / (pairs[-1][2] * dot(pairs[-1][1], pairs[-1][1])) if pairs else 1.0 / max(np.linalg.norm(q), EPS)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            q += (a - rho * dot(y, q)) * s
        slope, t = -dot(grad, q), 1.0
        while slope < 0 and t > 1e-12:
            new = fun(trial := move(x, -t * q))
            if new[0] <= value + t * slope / 4:
                break
            t /= 2
        else:
            break
        s, y = -t * q, new[1] - grad
        if dot(s, y) > 0:
            pairs = (pairs + [(s, y, 1.0 / dot(s, y))])[-LBFGS_MEMORY:]
        stalled = value - new[0] < stall * max(abs(value), scale)
        x, (value, grad, extra) = trial, new
        if stalled:
            break
    return x, value, extra


def factor_search(sys: AffineSystem, psd: tuple[np.ndarray, np.ndarray]):
    """The rank ladder r = 1, 2, ...: minimize phi(R) = 1/2 ||A(R R*) - t||^2
    over m x r factors R (Burer & Monteiro 2003) with lbfgs, from the top r of the
    eigenpairs psd = (lam, Q) Dykstra's last psd step clipped; with e = A(R R*) - t
    and E = A*(e), the gradient is (E + E*) R.  Yields each rung's (r, R, X, e), X = R R* made exactly Hermitian.
    At a minimizer over psd G, A*(e) is psd and Re <e, t> = -||e||^2 < 0: a
    displacement for the certificate test.  The ladder stops at
    FACTOR_MAX_RANK, or at a rung that leaves phi above FACTOR_FALL of the last's."""
    def phi(R):
        e = sys._class_sums(R @ R.conj().T) - sys.targets
        E = sys.broadcast(e)
        return float(np.vdot(e, e).real) / 2, (E + E.conj().T) @ R, e

    lam, Q = psd
    floor = FACTOR_START_FLOOR * max(float(lam[-1]), 0.0)
    last, phi_floor = np.inf, (DEFAULT_TOL / 10) ** 2 / 2
    for rank in range(1, min(FACTOR_MAX_RANK, sys.m) + 1):
        R, value, e = lbfgs(phi, Q[:, -rank:] * np.sqrt(np.maximum(lam[-rank:], floor)), np.add,
                            FACTOR_MAX_ITER, FACTOR_STALL, phi_floor, phi_floor)
        yield rank, R, (X := R @ R.conj().T) / 2 + X.conj().T / 2, e  # BLAS forms R R* Hermitian only to rounding
        if not value < FACTOR_FALL * last:
            return
        last = value


MAX_BYTES = 2 ** 28  # the memory budget of every large allocation; only refuse_bytes reads it


def refuse_bytes(need: int, what: str) -> str:
    """Why what, of need bytes by its caller's count, is not allocated ("" when it
    fits MAX_BYTES): an f(X), a factor stack, the Fock arrays."""
    return "" if need <= MAX_BYTES else (
        f"{what} would take {need / 2 ** 30:.3g} GiB, over the {MAX_BYTES / 2 ** 30:.2f} GiB budget")

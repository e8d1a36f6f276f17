"""Deterministic semidefinite feasibility via Dykstra's alternating projections.

Finds a Hermitian matrix in the intersection of an affine subspace with the
psd cone, or reports Inconclusive with the final gap.  Dykstra rather than
plain alternating projections so the limit is the nearest feasible point and
stalls show up in the correction terms; everything is deterministic for fixed
inputs.

The affine constraints pin or tie disjoint classes of entries, so A A* is
diagonal (Henrion & Malick 2011) and the projection is closed form: class
means, plus a small correction for a few dense rows.

Dykstra converges sublinearly when the intersection has no strictly
feasible point.  For those systems max_margin solves max t subject to
X - t I psd on the affine set with a log-barrier interior-point method in
numpy; its best margin is >= 0 exactly when the system has a psd solution.
The decision pipeline calls it on Gram systems only.  A Hankel system has
a strictly feasible point whenever its margin is below the best one (mix in
a strictly positive functional, such as the vacuum state of the canonical
tuple), and no psd solution above it, so Dykstra alone serves there.

A feasible answer is psd only to tol: its smallest eigenvalue may be as low
as -tol.  Callers that need a strictly positive point, as the dual's GNS
step does, mix in a positive definite one (certify.free_state).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .poly import EPS_HERM, opnorm

DEFAULT_MAX_ITER = 50_000
DEFAULT_TOL = 1e-9


class SdpError(ValueError):
    pass


class InconsistentSystemError(SdpError):
    def __init__(self, residual: float):
        super().__init__(f"affine constraints are inconsistent (residual {residual:.3e})")
        self.residual = residual


@dataclass
class AffineSystem:
    """Affine constraints on Hermitian m x m matrices.

    labels[i, j] is the class of entry (i, j), negative for none.  Class c
    is pinned when targets[c] is finite (its entries sum to it) and tied when
    it is nan (its entries are equal).  The transpose of a class must be a
    class with the conjugate target, its mirror.  rows are dense constraints
    (C_t, b_t): Re Tr(C_t X) = b_t, C_t Hermitian and b_t real.
    """

    m: int
    labels: np.ndarray | None = None
    targets: np.ndarray = ()
    rows: list = field(default_factory=list)

    def __post_init__(self):
        m = self.m
        labels = np.full((m, m), -1) if self.labels is None else np.asarray(self.labels, dtype=np.intp)
        targets = np.asarray(self.targets, dtype=complex).ravel()
        on = labels >= 0
        sizes = np.bincount(labels[on], minlength=len(targets))
        if labels.shape != (m, m) or len(sizes) != len(targets) or not sizes.all():
            raise SdpError(f"labels must be {m} x {m} and name each of {len(targets)} classes")
        mirror = np.zeros(len(targets), dtype=np.intp)
        mirror[labels[on]] = labels.T[on]
        pinned = np.isfinite(targets)
        if ((on != on.T).any() or (mirror[labels[on]] != labels.T[on]).any()
                or (pinned != pinned[mirror]).any()
                or (np.abs(targets - targets[mirror].conj())[pinned] > EPS_HERM).any()):
            raise SdpError("the transpose of a class is not a class with the conjugate "
                           "target (non-Hermitian pattern or coefficients)")
        rows = []
        for C, b in self.rows:
            C = np.asarray(C, dtype=complex)
            if C.shape != (m, m):
                raise SdpError(f"constraint matrix has shape {C.shape}, want {(m, m)}")
            if opnorm(C - C.conj().T) > 1e-12:
                raise SdpError("constraint matrix is not Hermitian")
            b = complex(b)
            if abs(b.imag) > 1e-12:
                raise SdpError("constraint value must be real for a Hermitian pairing")
            rows.append((C, float(b.real)))
        self.labels, self.targets, self.rows = labels, targets, rows

        # per labelled entry: its flat index and class, whether the class is
        # pinned, and the Re, Im bins of its class sums; per class: the factor
        # turning its sum into -mean (pinned) or mean (tied), and target / size
        self._idx = np.flatnonzero(on)
        self._lab = labels.ravel()[self._idx]
        self._keep = pinned[self._lab].astype(float)
        self._tied = np.flatnonzero(~pinned[self._lab])
        self._bins = (2 * self._lab[:, None] + np.arange(2)).ravel()
        self._pinned = pinned
        self._coef = np.where(pinned, -1.0, 1.0) / sizes
        self._tmean = np.where(pinned, targets / sizes, 0.0)
        # dense rows, and the least-norm moves inside the class subspace that
        # correct a unit shortfall in each (a pseudo-inverse: redundant rows are fine)
        R = len(rows)
        self._row_conj = np.array([C.conj().ravel() for C, _ in rows]).reshape(R, m * m)
        self._row_b = np.array([b for _, b in rows])
        dirs = np.array([self._classes(C, linear=True) for C, _ in rows]).reshape(R, m * m)
        self._row_step = np.linalg.lstsq((self._row_conj @ dirs.T).real, dirs, rcond=1e-12)[0]

    @property
    def constraints(self) -> range:
        """One index per constraint: each class, then each dense row."""
        return range(len(self.targets) + len(self.rows))

    def _class_sums(self, v: np.ndarray) -> np.ndarray:
        """Sum over each class of v, the values of the labelled entries."""
        return np.bincount(self._bins, v.view(float), minlength=2 * len(self.targets)).view(complex)

    def _classes(self, X: np.ndarray, linear: bool = False) -> np.ndarray:
        """Nearest point, flattened, of the class constraints (of their linear
        part if linear): pinned entries share their class's shortfall, tied
        take its mean."""
        x = np.array(X, dtype=complex).ravel()
        v = x[self._idx]
        base = self._class_sums(v) * self._coef
        if not linear:
            base += self._tmean
        x[self._idx] = self._keep * v + base[self._lab]
        return x

    def nearest(self, X: np.ndarray, linear: bool = False) -> np.ndarray:
        """Frobenius-nearest point of the affine set (of its linear part if
        linear): the class projection, then the least-norm move that meets the rows."""
        y = self._classes(X, linear)
        if self.rows:
            y += ((0.0 if linear else self._row_b) - (self._row_conj @ y).real) @ self._row_step
        Y = y.reshape(self.m, self.m)
        return (Y + Y.conj().T) / 2

    def residual(self, X: np.ndarray) -> float:
        """Largest violation, in real or imaginary part, of a pinned class
        sum, of a tied entry against its class mean, or of a dense row."""
        x = np.asarray(X, dtype=complex).ravel()
        v = x[self._idx]
        sums = self._class_sums(v)
        parts = [(sums - self.targets)[self._pinned]]
        if len(self._tied):  # Gram systems have no tied classes
            parts.append(v[self._tied] - (sums * self._coef)[self._lab[self._tied]])
        if self.rows:
            parts.append((self._row_conj @ x).real - self._row_b)
        return float(np.abs(np.concatenate(parts).view(float)).max(initial=0.0))


def project_psd(X: np.ndarray) -> np.ndarray:
    """Frobenius-nearest psd matrix: clip negative eigenvalues to zero."""
    X = np.asarray(X, dtype=complex)
    H = (X + X.conj().T) / 2
    evals, evecs = np.linalg.eigh(H)
    clipped = np.maximum(evals, 0.0)
    out = (evecs * clipped) @ evecs.conj().T
    return (out + out.conj().T) / 2


def project_affine(X: np.ndarray, sys: AffineSystem,
                   eps_affine: float = 1e-7) -> tuple[np.ndarray, float]:
    """Frobenius-orthogonal projection onto the affine solution set, and its
    residual (sys.residual of the projection).

    Closed form (AffineSystem.nearest); consistent redundant rows are fine,
    an inconsistent system leaves a residual and raises.
    """
    out = sys.nearest(X)
    res = sys.residual(out)
    if res > eps_affine:
        raise InconsistentSystemError(res)
    return out, res


@dataclass
class FeasibilityResult:
    feasible: bool
    X: np.ndarray | None
    iterations: int
    final_gap: float


def solve_feasibility(sys: AffineSystem,
                      max_iter: int = DEFAULT_MAX_ITER,
                      tol: float = DEFAULT_TOL) -> FeasibilityResult:
    """Dykstra between the psd cone and the affine set, from project_affine(0).

    Feasible when the iterate on the affine side has psd residual <= tol and
    affine residual <= tol; otherwise Inconclusive after max_iter.  This is a
    search, not a proof of infeasibility.
    """
    m = sys.m
    x, _ = project_affine(np.zeros((m, m), dtype=complex), sys)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    gap = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        y = project_psd(x + p)
        p = x + p - y
        x, aff_res = project_affine(y + q, sys)
        q = y + q - x

        psd_res = max(0.0, -float(np.linalg.eigvalsh(x).min()))
        gap = max(psd_res, aff_res)
        if gap <= tol:
            return FeasibilityResult(True, x, it, gap)
    return FeasibilityResult(False, None, it, float(gap))


# -- max-margin interior-point solve ------------------------------------------


def _hvec(X: np.ndarray) -> np.ndarray:
    """Real coordinates of Hermitian matrices, orthonormal for Re Tr(X Y).

    Works on the last two axes, so a stack of matrices maps to a stack of
    vectors: the diagonal, then sqrt(2) Re and sqrt(2) Im of the strict upper
    triangle.
    """
    m = X.shape[-1]
    iu = np.triu_indices(m, 1)
    upper = X[..., iu[0], iu[1]]
    return np.concatenate([np.diagonal(X, axis1=-2, axis2=-1).real,
                           np.sqrt(2) * upper.real, np.sqrt(2) * upper.imag], axis=-1)


def _hunvec(x: np.ndarray, m: int) -> np.ndarray:
    """Inverse of _hvec."""
    iu = np.triu_indices(m, 1)
    q = len(iu[0])
    X = np.zeros(x.shape[:-1] + (m, m), dtype=complex)
    idx = np.arange(m)
    X[..., idx, idx] = x[..., :m]
    upper = (x[..., m:m + q] + 1j * x[..., m + q:]) / np.sqrt(2)
    X[..., iu[0], iu[1]] = upper
    X[..., iu[1], iu[0]] = upper.conj()
    return X


MARGIN_GAP_TOL = 1e-10      # stop once the centred bound is this close to t
MARGIN_MAX_NEWTON = 400     # Newton steps in one max_margin solve, at most
CENTRING_STEPS = 50         # Newton steps per barrier weight, at most
CHUNK = 256                 # basis matrices or null-space directions handled at once


@dataclass
class MarginResult:
    X: np.ndarray       # affine-feasible Hermitian matrix with X - t I psd
    t: float            # its margin: a lower bound on min eig of X
    bound: float        # t + nu/eta: bounds the best margin t* when centred
    iterations: int     # Newton steps


def max_margin(sys: AffineSystem, floor: float = -np.inf) -> MarginResult:
    """Maximize t subject to X - t I psd, X in the affine set and t <= 1.

    A log-barrier path-following method (Boyd & Vandenberghe, ch. 11) on the
    null space of the constraints: X = X0 + sum_i y_i E_i, where
    X0 = project_affine(0) is the least-norm solution and the E_i are an
    orthonormal basis of the Hermitian matrices the constraints do not see.
    Every iterate satisfies the constraints by construction, however badly
    conditioned the Newton systems become near the boundary of the cone.
    The start puts t one
    below the smallest eigenvalue of X0, so the path is entered from a
    strictly feasible point whether or not the system has a psd solution.
    Deterministic: no random start.

    The search stops once t >= 0 (a psd point of the affine set is in hand),
    once the bound t + nu/eta on the best margin, taken at a centred point,
    drops below floor, once
    nu/eta <= MARGIN_GAP_TOL, or when Newton makes no more progress.  A
    system without a psd solution ends with t < 0.
    """
    m = sys.m
    eye = np.eye(m, dtype=complex)
    X0, _ = project_affine(np.zeros((m, m), dtype=complex), sys)
    # the null space, in _hvec coordinates: eigenvectors with eigenvalue 1 of
    # the linear part of the projection, an orthogonal projector
    P = np.empty((m * m, m * m))
    for i in range(0, m * m, CHUNK):
        basis = _hunvec(np.eye(min(CHUNK, m * m - i), m * m, i), m)
        P[i:i + len(basis)] = _hvec(np.array([sys.nearest(E, linear=True) for E in basis]))
    evals, evecs = np.linalg.eigh(P)
    N = evecs[:, evals > 0.5].T.copy()
    del P, evecs

    t = min(float(np.linalg.eigvalsh(X0).min()), 0.0) - 1.0
    S = X0 - t * eye
    nu = m + 1  # barrier parameter of -log det S - log(1 - t)
    eta = 1.0
    steps = 0
    stalled = False
    hvec_eye = _hvec(eye)

    def barrier(S, t):
        if t >= 1.0:
            return np.inf
        try:
            L = np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            return np.inf
        return -eta * t - 2 * np.log(np.diag(L).real).sum() - np.log1p(-t)

    while True:
        # centring: damped Newton on the barrier at this eta
        centred = False
        for _ in range(min(CENTRING_STEPS, MARGIN_MAX_NEWTON - steps)):
            steps += 1
            Linv = np.linalg.inv(np.linalg.cholesky(S))
            # rows: the null-space directions, then -I for t, congruent by Linv
            R = np.empty((len(N) + 1, m * m))
            for i in range(0, len(N), CHUNK):
                R[:-1][i:i + CHUNK] = _hvec(Linv @ _hunvec(N[i:i + CHUNK], m) @ Linv.conj().T)
            R[-1] = -_hvec(Linv @ Linv.conj().T)
            grad = -R @ hvec_eye
            grad[-1] += -eta + 1.0 / (1.0 - t)
            hess = R @ R.T
            hess[-1, -1] += 1.0 / (1.0 - t) ** 2
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                stalled = True
                break
            decrement = float(-grad @ step)
            if decrement / 2 <= 1e-9:
                centred = True
                break
            dS = _hunvec(step[:-1] @ N, m) - step[-1] * eye
            f0 = barrier(S, t)
            alpha = 1.0
            while barrier(S + alpha * dS, t + alpha * step[-1]) > f0 - alpha * decrement / 4:
                alpha /= 2
                if alpha < 1e-12:
                    stalled = True
                    break
            if stalled:
                break
            S, t = S + alpha * dS, t + alpha * step[-1]
            if t >= 0.0:
                break
        bound = t + nu / eta
        if (stalled or t >= 0.0 or (centred and bound < floor) or nu / eta <= MARGIN_GAP_TOL
                or steps >= MARGIN_MAX_NEWTON):
            break
        eta *= 10.0
    X = S + t * eye
    return MarginResult((X + X.conj().T) / 2, float(t), float(bound), steps)

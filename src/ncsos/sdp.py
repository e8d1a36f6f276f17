"""Deterministic semidefinite feasibility via Dykstra's alternating projections.

Finds a Hermitian matrix in the intersection of an affine subspace with the
psd cone, or a Farkas certificate that the intersection is empty, or
reports neither with the final gap.  Everything is deterministic for fixed
inputs.

The affine constraints pin disjoint classes of entries to their sums, so
A A* is diagonal (Henrion & Malick 2011) and the projection is closed form:
the entries of a class share its shortfall equally.

On a system with no solution, Dykstra's displacement y - x (psd side minus
affine side) tends to the shortest vector between the two sets (Bauschke &
Borwein 1994): a psd H = A*(h) in range(A*), constant on each class, whose
pairing Re sum_c conj(h_c) t_c with the targets is negative.  Re Tr(H X)
equals that pairing at every X of the affine set, so no psd X meets the
constraints.  solve_feasibility returns h, read off the class means of the
displacement, once rounding bounds prove both halves; broadcast(h) is H.

Where Dykstra converges sublinearly (no strictly feasible point, or an
empty intersection close to the cone) it hands over after DEFAULT_MAX_ITER
iterations to max_margin, a log-barrier interior-point solve of max t
subject to X - t I psd on the affine set.  Its point is psd when the best
margin is >= 0; at a centred point with a negative bound the inverse slack
S^-1 (S = X - t I) is a Farkas certificate, the dual point of the central
path (Boyd & Vandenberghe, Convex Optimization, 11.2.2 and 11.6).  It
moves X in the null space of the constraints, along directions read off the
class labels that each touch two coordinates at most (a weighted difference
of two coordinates under one constraint, or a free coordinate), so every
Newton row comes from two outer products of columns of the congruence W with
W (X - t I) W* = I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import EPS_HERM

DEFAULT_MAX_ITER = 1_000  # Dykstra iterations before the max-margin handover
DEFAULT_TOL = 1e-9        # psd and affine residuals of a feasible point, at most
EPS_AFFINE = 1e-7         # residual of the affine projection, at most: more is inconsistent
EPS = np.finfo(float).eps
# Floor on the weight s of the interior point K in a certificate H + s K:
# s lambda_min(K) >= FREE_MIX DEFAULT_TOL ||H||_F.  A feasible point is psd
# only to DEFAULT_TOL; a certificate has smallest eigenvalue at least 1e-8 of
# ||H||, a hundred times the gns.EPS_NULL cut of the quotient, so GNS on it
# keeps every direction and builds operators self-adjoint or unitary to rounding.
FREE_MIX = 10.0


class SdpError(ValueError):
    pass


@dataclass
class AffineSystem:
    """Affine constraints on Hermitian m x m matrices.

    labels[i, j] is the class of entry (i, j), as v* w is that of a Gram
    index pair (v, w), and the entries of class c sum to targets[c].  The
    transpose of a class must be a class with the conjugate target, its mirror.
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
        if (mirror[labels] != labels.T).any() or (np.abs(targets - targets[mirror].conj()) > EPS_HERM).any():
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

    def nearest(self, X: np.ndarray) -> np.ndarray:
        """Frobenius-nearest point of the affine set: the entries of each
        class share its shortfall equally."""
        Y = np.asarray(X, dtype=complex) + (self._class_sums(X) * self._coef + self._tmean)[self.labels]
        return (Y + Y.conj().T) / 2

    def residual(self, X: np.ndarray) -> float:
        """Largest violation, in real or imaginary part, of a class sum."""
        return float(np.abs((self._class_sums(X) - self.targets).view(float)).max(initial=0.0))


def project_psd(X: np.ndarray) -> np.ndarray:
    """Frobenius-nearest psd matrix: clip negative eigenvalues to zero."""
    X = np.asarray(X, dtype=complex)
    H = (X + X.conj().T) / 2
    evals, evecs = np.linalg.eigh(H)
    clipped = np.maximum(evals, 0.0)
    out = (evecs * clipped) @ evecs.conj().T
    return (out + out.conj().T) / 2


def project_affine(X: np.ndarray, sys: AffineSystem) -> tuple[np.ndarray, float]:
    """Frobenius-orthogonal projection onto the affine solution set, and its
    residual (sys.residual of the projection).

    Closed form (AffineSystem.nearest); a system no Hermitian matrix meets,
    or rounding at the scale of X, leaves a residual.
    """
    out = sys.nearest(X)
    return out, sys.residual(out)


@dataclass
class FeasibilityResult:
    feasible: bool                         # X is psd and meets the constraints within DEFAULT_TOL
    X: np.ndarray | None
    iterations: int                        # Dykstra's
    final_gap: float
    certificate: np.ndarray | None = None  # Farkas certificate: class vector h with A*(h) psd
    pairing: float | None = None           # Re Tr(A*(h) X) on the affine set, < 0
    newton_steps: int = 0                  # of the max-margin handover, 0 if Dykstra decided
    reason: str = ""                       # why the solve did not start, stopped, or did not hand over


def _low_eig(H: np.ndarray) -> tuple[float, np.ndarray]:
    """A lower bound on lambda_min(H), and eigh's eigenvector for it: eigh is
    exact for some H + E with ||E||_2 <= m eps ||H||_F, and by Weyl
    lambda_min moves by at most ||E||_2."""
    evals, evecs = np.linalg.eigh(H)
    return float(evals[0]) - len(H) * EPS * float(np.linalg.norm(H)), evecs[:, 0]


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
        low, v = _low_eig(H)
        self.w = sys._class_sums(v.conj()[:, None] * v) / sys._sizes
        s = (max(0.0, -low) + self.floor * np.linalg.norm(H)) / self.kappa
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
    (_Farkas), a proof that no psd solution exists.  Otherwise the affine
    iterate is feasible once its psd and affine residuals are <= DEFAULT_TOL.
    After DEFAULT_MAX_ITER iterations with neither, max_margin decides (if its
    arrays pass refuse_bytes): its point if _low_eig proves it psd within
    DEFAULT_TOL (eigvalsh alone passes a weakly infeasible system's drift to
    norm 1e29), else its inverse slack if that passes the certificate test.
    With neither, the result is neither feasible nor certified.  Every end
    is a result, whose reason says why the solve did not start (an interior
    not positive definite on the classes), stopped (an affine residual above
    EPS_AFFINE) or did not hand over.
    """
    m = sys.m
    farkas = _Farkas(sys, interior)
    if not farkas.kappa > 0:
        return FeasibilityResult(False, None, 0, np.inf,
                                 reason="the interior point is not positive definite on the classes")
    x, _ = project_affine(np.zeros((m, m), dtype=complex), sys)
    p = np.zeros_like(x)
    gap = np.inf
    it = 0
    for it in range(1, DEFAULT_MAX_ITER + 1):
        y = project_psd(x + p)
        p = x + p - y
        x, aff_res = project_affine(y, sys)
        if aff_res > EPS_AFFINE:
            return FeasibilityResult(False, None, it, aff_res,
                                     reason=f"affine residual {aff_res:.3e}, above {EPS_AFFINE:.0e}")

        psd_res = max(0.0, -float(np.linalg.eigvalsh(x).min()))
        gap = max(psd_res, aff_res)
        found = farkas(y - x)
        if found is not None:
            return FeasibilityResult(False, None, it, gap, *found)
        if gap <= DEFAULT_TOL:
            return FeasibilityResult(True, x, it, gap)

    # the Newton rows (n x m^2), the Newton matrix and np.linalg.solve's copy
    # of it (n x n each), and one chunk's complex Y with, at most, 24 bytes an
    # entry more: the conjugate added to it, then _hvec's pieces of it
    n = m * m - len(sys.targets) + 1
    need = 8 * n * (m * m + 2 * n) + min(CHUNK, n) * m * m * (16 + 24)
    if too_large := refuse_bytes(need, "max-margin handover"):
        return FeasibilityResult(False, None, it, gap, reason=too_large)
    res = max_margin(sys)
    X = sys.nearest(res.X)
    psd_gap = max(0.0, -float(_low_eig(X)[0]), sys.residual(X))
    if psd_gap <= DEFAULT_TOL:
        return FeasibilityResult(True, X, it, psd_gap, newton_steps=res.iterations)
    lam, Q = np.linalg.eigh(res.X - res.t * np.eye(m))
    found = farkas((Q / lam) @ Q.conj().T) if lam[0] > 0 else None
    return FeasibilityResult(False, None, it, gap, *(found or (None, None)),
                             newton_steps=res.iterations)


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


MARGIN_GAP_TOL = 1e-10      # stop once the centred bound is this close to t
MARGIN_MAX_NEWTON = 400     # Newton steps in one max_margin solve, at most
CENTRING_STEPS = 50         # Newton steps per barrier weight, at most
CHUNK = 256                 # null-space directions handled at once
MARGIN_MAX_BYTES = 2 ** 28  # the memory budget of every large allocation; only refuse_bytes reads it


def refuse_bytes(need: int, what: str) -> str:
    """Why what, of need bytes by its caller's count, is not allocated ("" when it
    fits MARGIN_MAX_BYTES): the handover, an f(X), a factor stack, the Fock arrays."""
    return "" if need <= MARGIN_MAX_BYTES else (
        f"{what} would take {need / 2 ** 30:.3g} GiB, over the {MARGIN_MAX_BYTES / 2 ** 30:.2f} GiB budget")


@dataclass
class MarginResult:
    X: np.ndarray       # affine-feasible Hermitian matrix with X - t I psd
    t: float            # its margin: a lower bound on min eig of X
    bound: float        # t + nu/eta: bounds the best margin t* when centred
    iterations: int     # Newton steps


def _null_directions(sys: AffineSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A basis of the Hermitian matrices the linear part of the constraints
    does not see, each direction on at most two coordinates.

    A coordinate is z E_rc + conj(z) E_cr, r <= c, with z = 1/2 on the
    diagonal and 1 (real part) or i (imaginary part) above it.  Read off the
    labels: the real coordinates of a class and its mirror form one group,
    their imaginary coordinates another, and a coordinate's share w of its
    group's constraint is what it adds to the real or imaginary part of the
    class sum (1, or 2 above the diagonal of a self-mirror class; +-1 for an
    imaginary part, except on a self-mirror class, whose imaginary
    coordinates are free: the sum of a Hermitian class closed under
    transposition is real).  Each grouped coordinate but its group's first
    gives C / w - C_first / w_first, each free coordinate C alone, and
    every direction is scaled to unit Frobenius norm.

    Returns rows, cols and weights, each n x 2: direction k is
    Y + Y^* with Y = sum_s weights[k, s] E_{rows[k, s], cols[k, s]}.
    """
    m = sys.m
    iu, ju = np.triu_indices(m, 1)
    diag = np.arange(m)
    r = np.concatenate([diag, iu, iu])
    c = np.concatenate([diag, ju, ju])
    z = np.concatenate([np.full(m, 0.5), np.ones(len(iu)), np.full(len(iu), 1j)])
    imag = z.imag != 0
    lab, mir = sys.labels[r, c], sys.labels[c, r]
    key = np.minimum(lab, mir)
    own = lab == mir
    w = np.where(imag, np.where(lab == key, 1.0, -1.0), np.where(own & (r != c), 2.0, 1.0))
    norm = np.where(r == c, 1.0, np.sqrt(2))  # of each coordinate
    free, grouped = np.flatnonzero(imag & own), np.flatnonzero(~(imag & own))
    _, first, gid = np.unique(2 * key[grouped] + imag[grouped],
                              return_index=True, return_inverse=True)
    rest = np.ones(len(grouped), dtype=bool)
    rest[first] = False
    a, b = grouped[rest], grouped[first][gid[rest]]
    scale = np.hypot(norm[a] / w[a], norm[b] / w[b])

    slot = np.concatenate([np.stack([free, free], axis=1), np.stack([a, b], axis=1)])
    coef = np.concatenate([np.stack([1.0 / norm[free], np.zeros(len(free))], axis=1),
                           np.stack([1.0 / (w[a] * scale), -1.0 / (w[b] * scale)], axis=1)])
    return r[slot], c[slot], coef * z[slot]


def max_margin(sys: AffineSystem) -> MarginResult:
    """Maximize t subject to X - t I psd, X in the affine set and t <= 1.

    A log-barrier path-following method (Boyd & Vandenberghe, ch. 11) on the
    null space of the constraints: X = X0 + sum_i y_i E_i, where
    X0 = project_affine(0) is the least-norm solution and the E_i are the
    directions _null_directions reads off the class labels, each on two
    coordinates at most.  Every iterate satisfies the constraints by
    construction, however badly conditioned the Newton systems become near
    the boundary of the cone.  Each Newton step takes one eigh of S = X - t I:
    with S = Q diag(lam) Q*, W = diag(lam)^(-1/2) Q* has W S W* = I, and the
    Newton system is the Gram matrix of the congruent directions W E_i W*,
    each Y + Y* with Y a sum of two outer products of columns of W.  Newton's
    method is affine invariant, so in exact arithmetic the iterates do not
    depend on the basis; the unit norm of each direction keeps the Newton
    matrix well scaled in the ill-conditioned tail of a solve.  The start puts t
    one below the smallest eigenvalue of X0, so the path is entered from a
    strictly feasible point whether or not the system has a psd solution.
    Deterministic: no random start.

    The search stops once t >= -DEFAULT_TOL (a point of the affine set psd
    within solve_feasibility's tolerance is in hand), once the bound
    t + nu/eta on the best margin, taken at a centred point, drops below
    -DEFAULT_TOL (no point is psd within that tolerance, and the inverse
    slack is the certificate to test), once nu/eta <= MARGIN_GAP_TOL, or
    when Newton makes no more progress.  A system without a point psd
    within DEFAULT_TOL ends with t < -DEFAULT_TOL.
    """
    m = sys.m
    eye = np.eye(m, dtype=complex)
    X0, _ = project_affine(np.zeros((m, m), dtype=complex), sys)
    rows, cols, weights = _null_directions(sys)
    n = len(rows)
    Y = np.empty((min(CHUNK, n), m, m), dtype=complex)

    t = min(float(np.linalg.eigvalsh(X0).min()), 0.0) - 1.0
    S = X0 - t * eye
    nu = m + 1  # barrier parameter of -log det S - log(1 - t)
    eta = 1.0
    steps = 0
    hvec_eye = _hvec(eye)

    def barrier(lam, t):  # lam: the eigenvalues of S, ascending
        if t >= 1.0 or lam[0] <= 0.0:
            return np.inf
        return -eta * t - np.log(lam).sum() - np.log1p(-t)

    while True:
        # centring: damped Newton on the barrier at this eta
        centred = stalled = False
        for _ in range(min(CENTRING_STEPS, MARGIN_MAX_NEWTON - steps)):
            steps += 1
            lam, Q = np.linalg.eigh(S)
            if not lam[0] > 0:  # rounding put S on the boundary of the cone
                stalled = True
                break
            V = Q / np.sqrt(lam)  # W = V*: column r of W is conj(V[r])
            Vc = V.conj()
            # rows: the null-space directions, then -I for t, congruent by W;
            # W E W* = Y + Y* with Y = sum_s weight_s conj(V[row_s]) (x) V[col_s]
            R = np.empty((n + 1, m * m))
            for i in range(0, n, CHUNK):
                part = slice(i, i + CHUNK)
                Yc = np.matmul(Vc[rows[part]].swapaxes(1, 2) * weights[part, None],
                               V[cols[part]], out=Y[:len(rows[part])])
                Yc += Yc.conj().swapaxes(1, 2)
                R[:-1][part] = _hvec(Yc)
            R[-1] = -_hvec(Vc.T @ V)
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
            D = np.zeros((m, m), dtype=complex)
            np.add.at(D, (rows, cols), step[:-1, None] * weights)
            dS = D + D.conj().T - step[-1] * eye
            f0 = barrier(lam, t)
            alpha = 1.0
            while alpha >= 1e-12 and (barrier(np.linalg.eigvalsh(S + alpha * dS), t + alpha * step[-1])
                                      > f0 - alpha * decrement / 4):
                alpha /= 2
            if alpha < 1e-12:
                stalled = True
                break
            S, t = S + alpha * dS, t + alpha * step[-1]
            if t >= -DEFAULT_TOL:
                break
        bound = t + nu / eta
        if (stalled or t >= -DEFAULT_TOL or (centred and bound < -DEFAULT_TOL) or nu / eta <= MARGIN_GAP_TOL
                or steps >= MARGIN_MAX_NEWTON):
            break
        eta *= 10.0
    X = S + t * eye
    return MarginResult((X + X.conj().T) / 2, float(t), float(bound), steps)

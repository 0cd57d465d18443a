"""Demand curve models, revenue functions, and the regularity scan.

Price and demand vectors are float64 numpy arrays of length N. Every model
operation and revenue function also takes a stack of shape (..., N), and each
row of the result equals the 1-D call on that row, bit for bit.
"""

import numpy as np
from abc import ABC, abstractmethod
from dataclasses import dataclass


class DomainError(ValueError):
    """Argument outside a model's admissible domain (e.g. demand not in the image)."""


def _as_vector(x, n=None, stack=True):
    """x as a float64 array of shape (..., n), or (n,) when stack is false."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0 or v.ndim > 1 and not stack:
        raise DomainError(f"expected {'(..., N)' if stack else '(N,)'}, got shape {v.shape}")
    if n is not None and v.shape[-1] != n:
        raise DomainError(f"dimension mismatch: expected {n}, got {v.shape[-1]}")
    return v


def _on_vectors(op, M, v):
    """op(M, v) for matrices M and a vector or stack of vectors v; a stacked
    call rounds like the 1-D one."""
    return op(M, v) if v.ndim == 1 else op(M, v[..., None])[..., 0]


def _dot(x, y):
    """<x, y> over the last axis: a float for vectors, rounded like x @ y per row."""
    return float(x @ y) if x.ndim == 1 else (x[..., None, :] @ y[..., :, None])[..., 0, 0]


class DemandModel(ABC):
    """Smooth invertible demand curve D: prices -> expected per-period demand.
    Each method maps a vector (N,) or a stack (..., N) row by row."""

    n_products: int

    @abstractmethod
    def mean(self, p: np.ndarray) -> np.ndarray:
        """Expected demand D(p), shape (..., N)."""

    @abstractmethod
    def jacobian(self, p: np.ndarray, d=None) -> np.ndarray:
        """J_D(p) = dD/dp, shape (..., N, N); d, if given, is D(p), which is
        then not evaluated again."""

    @abstractmethod
    def inverse(self, d: np.ndarray) -> np.ndarray:
        """Price p with D(p) = d, shape (..., N); raises DomainError outside the image."""

    @abstractmethod
    def image_halfspaces(self, p_lo: float, p_hi: float):
        """(G, h) with image of [p_lo, p_hi]^N equal to {d : G d <= h}."""

    @abstractmethod
    def grad_phi(self, d: np.ndarray) -> np.ndarray:
        """grad phi(d) of the revenue phi(d) = <d, D^{-1}(d)>, in closed form,
        shape (..., N); raises DomainError outside the image."""

    @abstractmethod
    def hessian_phi(self, d: np.ndarray) -> np.ndarray:
        """The Hessian of phi at d, in closed form, shape (..., N, N); raises
        DomainError outside the image."""


class LogitDemand(DemandModel):
    """Multinomial-logit demand: D_i(p) = exp(a_i - b_i p_i) / (1 + sum_j exp(a_j - b_j p_j))."""

    def __init__(self, intercepts, slopes):
        self.a = _as_vector(intercepts, stack=False)
        self.b = _as_vector(slopes, self.a.shape[0], stack=False)
        if not (np.isfinite(self.a).all() and ((0 < self.b) & (self.b < np.inf)).all()):
            raise DomainError("logit intercepts must be finite and slopes finite and positive")
        self.n_products = self.a.shape[0]

    def mean(self, p):
        p = _as_vector(p, self.n_products)
        w = np.exp(self.a - self.b * p)
        s = 1.0 + np.add.reduce(w, -1)   # w.sum(-1) without its Python wrapper
        return w / (s if p.ndim == 1 else s[..., None])

    def jacobian(self, p, d=None):
        d = self.mean(p) if d is None else d
        J = self.b * d[..., :, None] * d[..., None, :]
        # every (N+1)-th entry of a flat (N, N) block is on its diagonal
        J.reshape(d.shape[:-1] + (-1,))[..., ::self.n_products + 1] = -self.b * d * (1.0 - d)
        return J

    def _rest(self, d):
        """1 - sum(d), shape (..., 1), for d in the image; DomainError elsewhere."""
        rest = 1.0 - d.sum(-1, keepdims=True)
        if (d <= 0).any() or (rest <= 0.0).any():
            raise DomainError("demand must be componentwise positive with sum < 1")
        return rest

    def inverse(self, d):
        d = _as_vector(d, self.n_products)
        return (self.a - np.log(d / self._rest(d))) / self.b

    # With s = sum(d) and S = sum(d_i / b_i), p = D^{-1}(d) has
    # dp_j/dd_k = -(delta_jk / d_j + 1 / (1 - s)) / b_j, so
    #   dphi/dd_j = p_j - 1/b_j - S/(1 - s)
    #   d2phi/dd_j dd_k = -delta_jk/(b_j d_j) - (1/b_j + 1/b_k)/(1 - s) - S/(1 - s)^2
    def grad_phi(self, d):
        d = _as_vector(d, self.n_products)
        rest = self._rest(d)
        S = (d / self.b).sum(-1, keepdims=True)
        return (self.a - np.log(d / rest) - 1.0) / self.b - S / rest

    def hessian_phi(self, d):
        d = _as_vector(d, self.n_products)
        rest = self._rest(d)[..., None]
        S = (d / self.b).sum(-1, keepdims=True)[..., None]
        inv_b = 1.0 / self.b
        H = -(inv_b[:, None] + inv_b) / rest - S / (rest * rest)
        H.reshape(d.shape[:-1] + (-1,))[..., ::self.n_products + 1] -= inv_b / d
        return H

    def image_halfspaces(self, p_lo, p_hi):
        # d in image  <=>  w_lo_i <= d_i/(1-sum d) <= w_hi_i, which is linear in d:
        #   d_i + w_hi_i * sum(d) <= w_hi_i   and   -(d_i + w_lo_i * sum(d)) <= -w_lo_i
        n = self.n_products
        w_lo = np.exp(self.a - self.b * p_hi)
        w_hi = np.exp(self.a - self.b * p_lo)
        eye = np.eye(n)
        ones = np.ones((n, n))
        G = np.vstack([eye + w_hi[:, None] * ones, -(eye + w_lo[:, None] * ones)])
        h = np.concatenate([w_hi, -w_lo])
        return G, h


class LinearDemand(DemandModel):
    """Linear demand D(p) = a - B p with positive-definite B; closed-form inverse."""

    def __init__(self, intercepts, slope_matrix):
        self.a = _as_vector(intercepts, stack=False)
        self.B = np.asarray(slope_matrix, dtype=float)
        self.n_products = self.a.shape[0]
        if self.B.shape != (self.n_products, self.n_products):
            raise DomainError("slope matrix shape mismatch")
        if not (np.isfinite(self.a).all() and np.isfinite(self.B).all()
                and (np.linalg.eigvalsh(0.5 * (self.B + self.B.T)) > 0).all()):
            raise DomainError("linear demand needs finite intercepts and a finite "
                              "positive-definite slope matrix")
        self._B_inv = np.linalg.inv(self.B)
        self._hessian_phi = -(self._B_inv + self._B_inv.T)

    def mean(self, p):
        return self.a - _on_vectors(np.matmul, self.B, _as_vector(p, self.n_products))

    def jacobian(self, p, d=None):
        shape = _as_vector(p, self.n_products).shape[:-1] + self.B.shape
        return np.broadcast_to(-self.B, shape).copy()

    def inverse(self, d):
        return _on_vectors(np.matmul, self._B_inv, self.a - _as_vector(d, self.n_products))

    def grad_phi(self, d):
        # phi(d) = <d, B^{-1}(a - d)>
        d = _as_vector(d, self.n_products)
        return self.inverse(d) - _on_vectors(np.matmul, self._B_inv.T, d)

    def hessian_phi(self, d):
        shape = _as_vector(d, self.n_products).shape[:-1] + self.B.shape
        return np.broadcast_to(self._hessian_phi, shape).copy()

    def image_halfspaces(self, p_lo, p_hi):
        # p(d) = B^{-1}(a - d) within the price box, linear in d.
        R = self._B_inv
        Ra = R @ self.a
        G = np.vstack([R, -R])
        h = np.concatenate([Ra - p_lo, p_hi - Ra])
        return G, h


def revenue_f(model: DemandModel, p):
    """Expected per-period revenue f(p) = <p, D(p)>: a float, or one per row."""
    p = _as_vector(p, model.n_products)
    return _dot(p, model.mean(p))


def revenue_phi(model: DemandModel, d):
    """Expected revenue as a function of demand: phi(d) = <d, D^{-1}(d)>."""
    d = _as_vector(d, model.n_products)
    return _dot(d, model.inverse(d))


def grad_revenue_f(model: DemandModel, p) -> np.ndarray:
    """grad f(p) = D(p) + J_D(p)^T p."""
    p = _as_vector(p, model.n_products)
    d = model.mean(p)
    return d + _on_vectors(np.matmul, model.jacobian(p, d).swapaxes(-1, -2), p)


def grad_revenue_phi(model: DemandModel, d) -> np.ndarray:
    """grad phi(d), the model's closed form (for logit, p_j - 1/b_j - S/(1 - sum d)
    with p = D^{-1}(d) and S = sum d_i/b_i; for linear, B^{-1}(a - d) - B^{-T} d)."""
    return model.grad_phi(d)


def hessian_fd(grad, model: DemandModel, X) -> np.ndarray:
    """Central finite-difference Hessians (symmetrized, step 1e-6), shape (..., N, N),
    at X of shape (..., N), of the revenue function whose gradient is grad(model, X):
    one grad call on the stack of the 2N shifted copies of X. The scan uses it for
    f only; phi's Hessian is the model's closed form, hessian_phi."""
    n = X.shape[-1]
    step = np.concatenate([np.eye(n), -np.eye(n)]) * 1e-6
    G = grad(model, X + step.reshape((2 * n,) + (1,) * (X.ndim - 1) + (n,)))
    H = np.moveaxis((G[:n] - G[n:]) / 2e-6, 0, -2)
    return 0.5 * (H + np.swapaxes(H, -1, -2))


_SCAN_BLOCK = 2 ** 14   # grid points per batched pass of estimate_regularity
# on ||X||_F, and times ||J||_F on the determinant bound: far above the rounding of
# both norms, of the determinant and of LAPACK's singular values
_SCREEN_MARGIN = 1e-9


def _max_spectral_norm(X, floor: float) -> float:
    """max(floor, max_k ||X_k||_2) over a stack X of shape (K, m, n). Only the
    matrices whose Frobenius norm can reach the larger of floor and the
    Frobenius-largest matrix's ||.||_2 are decomposed, since ||X||_2 <= ||X||_F;
    the maximum is the same float as np.linalg.norm(X, 2, axis=(1, 2)).max()."""
    fro = np.sqrt(np.einsum("kij,kij->k", X, X))
    top = max(floor, np.linalg.svd(X[fro.argmax()], compute_uv=False)[0])
    keep = fro * (1.0 + _SCREEN_MARGIN) >= top
    return float(np.linalg.svd(X[keep], compute_uv=False)[:, 0].max(initial=floor))


def _min_singular_value(J, floor: float) -> float:
    """min(floor, min_k sigma_min(J_k)) over a stack J of shape (K, n, n). By AM-GM,
    sigma_1 ... sigma_{n-1} <= r^(n-1) with r = ||J||_F / sqrt(n - 1), so
    sigma_min = |det J| / (sigma_1 ... sigma_{n-1}) >= |det J| / r^(n-1). Only the
    matrices whose bound (|det J| - 1e-9 ||J||_F r^(n-1)) / r^(n-1) can reach the
    smaller of floor and the lowest-bound matrix's sigma_min are decomposed (a bound
    <= 0 or nan always is); the minimum is the same float as
    np.linalg.svd(J, compute_uv=False)[:, -1].min()."""
    n = J.shape[-1]
    fro = np.sqrt(np.einsum("kij,kij->k", J, J))
    r_pow = (fro / np.sqrt(max(n - 1, 1))) ** (n - 1)   # r^(n-1) >= sigma_1 ... sigma_{n-1}
    with np.errstate(divide="ignore", invalid="ignore"):   # a zero J's bound is nan
        low = (np.abs(np.linalg.det(J)) - _SCREEN_MARGIN * fro * r_pow) / r_pow
    top = min(floor, np.linalg.svd(J[low.argmin()], compute_uv=False)[-1])
    keep = ~(low > top)
    return float(np.linalg.svd(J[keep], compute_uv=False)[:, -1].min(initial=top))


@dataclass(frozen=True)
class RegularityConstants:
    """Grid-estimated smoothness/curvature bounds used for tolerances and
    the theoretical constants formulas; never inside the learning data path."""

    B_D: float
    sigma_D: float
    L_D: float
    B_f: float
    B_phi: float
    sigma_phi: float
    B_A: float
    sigma_A: float
    B_r: float
    gamma_max: float

    def __post_init__(self):
        vals = {k: getattr(self, k) for k in self.__dataclass_fields__}
        for k, v in vals.items():
            if not v > 0:
                raise ValueError(f"regularity constant {k} must be positive, got {v}")
        if self.sigma_D > self.B_D + 1e-12:
            raise ValueError("sigma_D must not exceed B_D")
        if self.sigma_phi > self.B_phi + 1e-12:
            raise ValueError("sigma_phi must not exceed B_phi")
        if self.sigma_A > self.B_A + 1e-12:
            raise ValueError("sigma_A must not exceed B_A")


def estimate_regularity(model: DemandModel, price_box, grid_points: int,
                        A, gamma) -> RegularityConstants:
    """Scan a uniform price grid to bound the demand-curve and revenue regularity.

    B_D / sigma_D: extreme singular values of J_D; L_D: max operator-norm
    difference over axis-adjacent grid pairs divided by spacing; B_f: norms of
    grad f and of its finite-difference Hessian; B_phi / sigma_phi: the norm of
    grad phi and the extreme eigenvalues of -Hessian(phi), both in the model's
    closed form (grad_phi, hessian_phi) at the grid's demands; B_A / sigma_A:
    extreme singular values of A; B_r = p_hi (at most one unit sold per period).

    The three spectral-norm maxima, B_D, ||H_f||_2 in B_f and the differences
    behind L_D, are screened: a block decomposes only the matrices whose
    Frobenius norm, times 1 + 1e-9, reaches the largest ||.||_2 known so far
    (the running maximum, or the block's Frobenius-largest matrix). sigma_D is
    screened from below by |det J| / ||J||_F^(N-1) <= sigma_min(J), less a
    margin of 1e-9 ||J||_F (see _min_singular_value). Each margin is far above
    the rounding of the norms, the determinant and LAPACK's singular values, so
    no skipped matrix holds the extremum, which is the float that decomposing
    every matrix gives: the constants equal a per-point scan's.
    """
    if grid_points < 2:
        raise ValueError("grid must have at least 2 points per axis")
    p_lo, p_hi = float(price_box[0]), float(price_box[1])
    n = model.n_products
    axis = np.linspace(p_lo, p_hi, grid_points)
    spacing = (p_hi - p_lo) / (grid_points - 1)
    # a block is whole axis-0 slices of the grid; the last slice of a block is
    # kept to difference against the first of the next one
    width = max(1, _SCAN_BLOCK // grid_points ** (n - 1))
    B_D = B_f = B_phi = dJ = 0.0   # dJ: the largest ||J(p') - J(p)||_2 so far
    sigma_D = sigma_phi = np.inf
    prev = None
    for s in range(0, grid_points, width):
        mesh = np.meshgrid(axis[s:s + width], *[axis] * (n - 1), indexing="ij")
        P = np.stack([m.ravel() for m in mesh], axis=1)
        D = model.mean(P)
        J = model.jacobian(P, D)
        B_D = _max_spectral_norm(J, B_D)
        sigma_D = _min_singular_value(J, sigma_D)
        # hessian_fd stacks 2N shifted copies of its points: at most _SCAN_BLOCK at a
        # time, since one axis-0 slice of the grid exceeds that from N = 5 on
        H_f = np.concatenate([hessian_fd(grad_revenue_f, model, P[i:i + _SCAN_BLOCK])
                              for i in range(0, len(P), _SCAN_BLOCK)])
        # grad_revenue_f(model, P) from this block's D and J
        grad_f = np.linalg.norm(D + _on_vectors(np.matmul, J.swapaxes(-1, -2), P), axis=1).max()
        B_f = _max_spectral_norm(H_f, max(B_f, grad_f))
        eig = np.linalg.eigvalsh(-model.hessian_phi(D))
        B_phi = max(B_phi, np.linalg.norm(grad_revenue_phi(model, D), axis=1).max(),
                    np.abs(eig).max())
        sigma_phi = min(sigma_phi, eig[:, 0].min())
        J = J.reshape(mesh[0].shape + (n, n))
        for k in range(n):
            diff = np.diff(J if k or prev is None else np.concatenate((prev, J)), axis=k)
            if diff.size:
                dJ = _max_spectral_norm(diff.reshape(-1, n, n), dJ)
        prev = J[-1:]

    sv_A = np.linalg.svd(np.asarray(A, float), compute_uv=False)
    return RegularityConstants(
        B_D=float(B_D),
        sigma_D=float(sigma_D),
        L_D=max(dJ / spacing, 1e-12),
        B_f=float(B_f),
        B_phi=float(B_phi),
        sigma_phi=float(sigma_phi),
        B_A=float(sv_A[0]),
        sigma_A=float(sv_A[-1]),
        B_r=float(p_hi),
        gamma_max=float(np.max(gamma)),
    )

"""Demand curve models, revenue functions, and the regularity scan.

Price and demand vectors are plain float64 numpy arrays of length N.
"""

import numpy as np
from abc import ABC, abstractmethod
from dataclasses import dataclass


class DomainError(ValueError):
    """Argument outside a model's admissible domain (e.g. demand not in the image)."""


def _as_vector(x, n=None):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DomainError(f"expected 1-d vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise DomainError(f"dimension mismatch: expected {n}, got {v.shape[0]}")
    return v


class DemandModel(ABC):
    """Smooth invertible demand curve D: prices -> expected per-period demand."""

    n_products: int

    @abstractmethod
    def mean(self, p: np.ndarray) -> np.ndarray:
        """Expected demand D(p)."""

    @abstractmethod
    def jacobian(self, p: np.ndarray) -> np.ndarray:
        """J_D(p) = dD/dp, shape (N, N)."""

    @abstractmethod
    def inverse(self, d: np.ndarray) -> np.ndarray:
        """Price vector p with D(p) = d; raises DomainError outside the image."""

    @abstractmethod
    def mean_batch(self, P: np.ndarray) -> np.ndarray:
        """Vectorized mean over rows of P, shape (K, N) -> (K, N)."""

    @abstractmethod
    def jacobian_batch(self, P: np.ndarray) -> np.ndarray:
        """Vectorized jacobian over rows of P, shape (K, N) -> (K, N, N)."""

    @abstractmethod
    def inverse_batch(self, D: np.ndarray) -> np.ndarray:
        """Vectorized inverse over rows of D."""

    @abstractmethod
    def image_halfspaces(self, p_lo: float, p_hi: float):
        """(G, h) with image of [p_lo, p_hi]^N equal to {d : G d <= h}."""


class LogitDemand(DemandModel):
    """Multinomial-logit demand: D_i(p) = exp(a_i - b_i p_i) / (1 + sum_j exp(a_j - b_j p_j))."""

    def __init__(self, intercepts, slopes):
        self.a = _as_vector(intercepts)
        self.b = _as_vector(slopes, self.a.shape[0])
        if np.any(self.b <= 0):
            raise DomainError("logit slopes must be strictly positive")
        self.n_products = self.a.shape[0]

    def mean(self, p):
        p = _as_vector(p, self.n_products)
        w = np.exp(self.a - self.b * p)
        return w / (1.0 + w.sum())

    def mean_batch(self, P):
        P = np.asarray(P, dtype=float)
        w = np.exp(self.a[None, :] - self.b[None, :] * P)
        return w / (1.0 + w.sum(axis=1, keepdims=True))

    def jacobian(self, p):
        d = self.mean(p)
        J = self.b[None, :] * d[:, None] * d[None, :]
        np.fill_diagonal(J, -self.b * d * (1.0 - d))
        return J

    def jacobian_batch(self, P):
        d = self.mean_batch(P)
        J = self.b[None, None, :] * d[:, :, None] * d[:, None, :]
        i = np.arange(self.n_products)
        J[:, i, i] = -self.b * d * (1.0 - d)
        return J

    def inverse(self, d):
        d = _as_vector(d, self.n_products)
        s = d.sum()
        if np.any(d <= 0) or s >= 1.0:
            raise DomainError("demand must be componentwise positive with sum < 1")
        return (self.a - np.log(d / (1.0 - s))) / self.b

    def inverse_batch(self, D):
        D = np.asarray(D, dtype=float)
        s = D.sum(axis=1, keepdims=True)
        if np.any(D <= 0) or np.any(s >= 1.0):
            raise DomainError("demand rows must be positive with sum < 1")
        return (self.a[None, :] - np.log(D / (1.0 - s))) / self.b[None, :]

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
        self.a = _as_vector(intercepts)
        self.B = np.asarray(slope_matrix, dtype=float)
        self.n_products = self.a.shape[0]
        if self.B.shape != (self.n_products, self.n_products):
            raise DomainError("slope matrix shape mismatch")
        eigvals = np.linalg.eigvalsh(0.5 * (self.B + self.B.T))
        if np.any(eigvals <= 0):
            raise DomainError("slope matrix must be positive definite")
        self._B_inv = np.linalg.inv(self.B)

    def mean(self, p):
        return self.a - self.B @ _as_vector(p, self.n_products)

    def mean_batch(self, P):
        # a stacked matvec rounds like mean's B @ p; one gemm would not
        return self.a[None, :] - (self.B @ np.asarray(P, float)[..., None])[..., 0]

    def jacobian(self, p):
        return -self.B.copy()

    def jacobian_batch(self, P):
        return np.broadcast_to(-self.B, (len(P),) + self.B.shape)

    def inverse(self, d):
        return self._B_inv @ (self.a - _as_vector(d, self.n_products))

    def inverse_batch(self, D):
        return (self._B_inv @ (self.a[None, :] - np.asarray(D, float))[..., None])[..., 0]

    def image_halfspaces(self, p_lo, p_hi):
        # p(d) = B^{-1}(a - d) within the price box, linear in d.
        R = self._B_inv
        Ra = R @ self.a
        G = np.vstack([R, -R])
        h = np.concatenate([Ra - p_lo, p_hi - Ra])
        return G, h


def revenue_f(model: DemandModel, p) -> float:
    """Expected per-period revenue f(p) = <p, D(p)>."""
    p = _as_vector(p, model.n_products)
    return float(p @ model.mean(p))


def revenue_phi(model: DemandModel, d) -> float:
    """Expected revenue as a function of demand: phi(d) = <d, D^{-1}(d)>."""
    d = _as_vector(d, model.n_products)
    return float(d @ model.inverse(d))


def revenue_phi_batch(model: DemandModel, D) -> np.ndarray:
    D = np.asarray(D, dtype=float)
    return np.einsum("kn,kn->k", D, model.inverse_batch(D))


def grad_revenue_f(model: DemandModel, p) -> np.ndarray:
    """grad f(p) = D(p) + J_D(p)^T p."""
    p = _as_vector(p, model.n_products)
    return model.mean(p) + model.jacobian(p).T @ p


def grad_revenue_phi(model: DemandModel, d) -> np.ndarray:
    """grad phi(d) = p + (J_D(p)^{-1})^T d  at p = D^{-1}(d)."""
    d = _as_vector(d, model.n_products)
    p = model.inverse(d)
    return p + np.linalg.solve(model.jacobian(p).T, d)


def grad_revenue_f_batch(model: DemandModel, P) -> np.ndarray:
    """grad f over the rows of P, shape (K, N) -> (K, N)."""
    J_T = np.swapaxes(model.jacobian_batch(P), 1, 2)
    return model.mean_batch(P) + (J_T @ P[..., None])[..., 0]


def grad_revenue_phi_batch(model: DemandModel, D) -> np.ndarray:
    """grad phi over the rows of D, shape (K, N) -> (K, N)."""
    P = model.inverse_batch(D)
    J_T = np.swapaxes(model.jacobian_batch(P), 1, 2)
    return P + np.linalg.solve(J_T, D[..., None])[..., 0]


def hessian_fd_batch(grad_batch, model: DemandModel, X, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference Hessians (symmetrized) at the rows of X of the
    revenue function whose gradient over rows is grad_batch(model, X)."""
    n = X.shape[1]
    H = np.empty((X.shape[0], n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        H[:, i] = (grad_batch(model, X + e) - grad_batch(model, X - e)) / (2 * h)
    return 0.5 * (H + np.swapaxes(H, 1, 2))


_SCAN_BLOCK = 2 ** 14   # grid points per batched pass of estimate_regularity


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
    gamma_min: float
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
    difference over axis-adjacent grid pairs divided by spacing; B_f, B_phi,
    sigma_phi: gradient norms and finite-difference Hessians of f and phi;
    B_A / sigma_A: extreme singular values of A; B_r = p_hi (at most one unit
    sold per period).
    """
    if grid_points < 2:
        raise ValueError("grid must have at least 2 points per axis")
    p_lo, p_hi = float(price_box[0]), float(price_box[1])
    n = model.n_products
    axes = [np.linspace(p_lo, p_hi, grid_points)] * n
    points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)

    jacs = np.empty((len(points), n, n))
    B_D = B_f = B_phi = 0.0
    sigma_D = sigma_phi = np.inf
    for s in range(0, len(points), _SCAN_BLOCK):
        P = points[s:s + _SCAN_BLOCK]
        J = jacs[s:s + _SCAN_BLOCK] = model.jacobian_batch(P)
        sv = np.linalg.svd(J, compute_uv=False)
        B_D = max(B_D, sv[:, 0].max())
        sigma_D = min(sigma_D, sv[:, -1].min())
        H_f = hessian_fd_batch(grad_revenue_f_batch, model, P)
        B_f = max(B_f, np.linalg.norm(grad_revenue_f_batch(model, P), axis=1).max(),
                  np.linalg.norm(H_f, 2, axis=(1, 2)).max())
        D = model.mean_batch(P)
        eig = np.linalg.eigvalsh(-hessian_fd_batch(grad_revenue_phi_batch, model, D))
        B_phi = max(B_phi, np.linalg.norm(grad_revenue_phi_batch(model, D), axis=1).max(),
                    np.abs(eig).max())
        sigma_phi = min(sigma_phi, eig[:, 0].min())

    spacing = (p_hi - p_lo) / (grid_points - 1)
    L_D = 0.0
    shape = (grid_points,) * n
    jacs = jacs.reshape(shape + (n, n))
    for axis in range(n):
        lo = [slice(None)] * n
        hi = [slice(None)] * n
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        diff = jacs[tuple(hi)] - jacs[tuple(lo)]
        norms = np.linalg.norm(diff, ord=2, axis=(-2, -1))
        if norms.size:
            L_D = max(L_D, float(norms.max()) / spacing)

    sv_A = np.linalg.svd(np.asarray(A, float), compute_uv=False)
    gamma = np.asarray(gamma, dtype=float)
    return RegularityConstants(
        B_D=float(B_D),
        sigma_D=float(sigma_D),
        L_D=float(max(L_D, 1e-12)),
        B_f=float(B_f),
        B_phi=float(B_phi),
        sigma_phi=float(sigma_phi),
        B_A=float(sv_A[0]),
        sigma_A=float(sv_A[-1]),
        B_r=float(p_hi),
        gamma_min=float(gamma.min()),
        gamma_max=float(gamma.max()),
    )

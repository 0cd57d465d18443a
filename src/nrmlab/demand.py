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

    def inverse(self, d):
        d = _as_vector(d, self.n_products)
        rest = 1.0 - d.sum(-1)
        if (d <= 0).any() or (rest <= 0.0).any():
            raise DomainError("demand must be componentwise positive with sum < 1")
        return (self.a - np.log(d / (rest if d.ndim == 1 else rest[..., None]))) / self.b

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

    def mean(self, p):
        return self.a - _on_vectors(np.matmul, self.B, _as_vector(p, self.n_products))

    def jacobian(self, p, d=None):
        shape = _as_vector(p, self.n_products).shape[:-1] + self.B.shape
        return np.broadcast_to(-self.B, shape).copy()

    def inverse(self, d):
        return _on_vectors(np.matmul, self._B_inv, self.a - _as_vector(d, self.n_products))

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
    """grad phi(d) = p + (J_D(p)^{-1})^T d  at p = D^{-1}(d)."""
    d = _as_vector(d, model.n_products)
    p = model.inverse(d)
    return p + _on_vectors(np.linalg.solve, model.jacobian(p).swapaxes(-1, -2), d)


def hessian_fd(grad, model: DemandModel, X) -> np.ndarray:
    """Central finite-difference Hessians (symmetrized, step 1e-6), shape (..., N, N),
    at X of shape (..., N), of the revenue function whose gradient is grad(model, X)."""
    n = X.shape[-1]
    H = np.empty(X.shape + (n,))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1e-6
        H[..., i, :] = (grad(model, X + e) - grad(model, X - e)) / 2e-6
    return 0.5 * (H + np.swapaxes(H, -1, -2))


_SCAN_BLOCK = 2 ** 14   # grid points per batched pass of estimate_regularity
_SCREEN_MARGIN = 1e-9   # on ||X||_F, far above the rounding of it and of LAPACK's ||X||_2


def _max_spectral_norm(X, floor: float) -> float:
    """max(floor, max_k ||X_k||_2) over a stack X of shape (K, m, n). Only the
    matrices whose Frobenius norm can reach the larger of floor and the
    Frobenius-largest matrix's ||.||_2 are decomposed, since ||X||_2 <= ||X||_F;
    the maximum is the same float as np.linalg.norm(X, 2, axis=(1, 2)).max()."""
    fro = np.sqrt(np.einsum("kij,kij->k", X, X))
    top = max(floor, np.linalg.svd(X[fro.argmax()], compute_uv=False)[0])
    keep = fro * (1.0 + _SCREEN_MARGIN) >= top
    return float(np.linalg.svd(X[keep], compute_uv=False)[:, 0].max(initial=floor))


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
    difference over axis-adjacent grid pairs divided by spacing; B_f, B_phi,
    sigma_phi: gradient norms and finite-difference Hessians of f and phi;
    B_A / sigma_A: extreme singular values of A; B_r = p_hi (at most one unit
    sold per period).

    The two spectral-norm maxima, ||H_f||_2 in B_f and the differences behind
    L_D, are screened: a block decomposes only the matrices whose Frobenius
    norm, times 1 + 1e-9, reaches the largest ||.||_2 known so far (the
    running maximum, or the block's Frobenius-largest matrix). Since
    ||X||_2 <= ||X||_F and the margin is far above the rounding of both norms,
    no skipped matrix holds the maximum, and the maximum is the float that
    decomposing every matrix gives: the constants equal a per-point scan's.
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
        sv = np.linalg.svd(J, compute_uv=False)
        B_D = max(B_D, sv[:, 0].max())
        sigma_D = min(sigma_D, sv[:, -1].min())
        H_f = hessian_fd(grad_revenue_f, model, P)
        # grad_revenue_f(model, P) from this block's D and J
        grad_f = np.linalg.norm(D + _on_vectors(np.matmul, J.swapaxes(-1, -2), P), axis=1).max()
        B_f = _max_spectral_norm(H_f, max(B_f, grad_f))
        eig = np.linalg.eigvalsh(-hessian_fd(grad_revenue_phi, model, D))
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

"""Comparison policies: the clairvoyant fluid price and an explore-then-commit
grid policy (a transparent stand-in for the blind-pricing benchmark of the
earlier literature, not a reimplementation of it)."""

import numpy as np

from .instance import Instance
from .fluid import FluidSolution
from .sim import CommitPolicy, _FOREVER

_GRID_POINTS = 8   # ETC's grid points per price axis, at any N and T (ROADMAP item 5)


def _exploration_fraction(T: int) -> float:
    """The share of the horizon that ETC explores: clamp(5 T^(-1/3), 0.05, 0.5)."""
    return min(0.5, max(0.05, 5.0 * T ** (-1.0 / 3.0)))


class ClairvoyantPolicy(CommitPolicy):
    """Posts the fluid-optimal price every period."""

    name = "clairvoyant"

    def __init__(self, instance: Instance, fluid: FluidSolution):
        self.p_star = np.asarray(fluid.p_star, float)
        super().__init__()

    def _driver(self):
        while True:
            yield (self.p_star, _FOREVER)


class ExploreThenCommitPolicy(CommitPolicy):
    """Phase 1 cycles a uniform price grid recording average demand per point;
    phase 2 plays the revenue-maximizing inventory-feasible mixture of grid
    prices, an LP over the grid's mixture weights solved by column generation."""

    name = "etc"

    def __init__(self, instance: Instance):
        self.instance = instance
        g = np.linspace(instance.price_min, instance.price_max, _GRID_POINTS)
        mesh = np.meshgrid(*([g] * instance.N), indexing="ij")
        self.grid = np.stack([m.ravel() for m in mesh], axis=1)
        frac = _exploration_fraction(instance.T)
        self.n_explore = max(len(self.grid), int(round(frac * instance.T)))
        self.D_hat = np.zeros((len(self.grid), instance.N))
        self.mixture = None
        super().__init__()

    def _driver(self):
        # Exploration reads no feedback until the grid ends, so the grid is one
        # schedule, and so is the mixture, whose last price holds to the horizon.
        K = len(self.grid)
        per, extra = divmod(self.n_explore, K)
        self.D_hat[:] = yield (self.grid, per + (np.arange(K) < extra))
        prices, lengths = self._commit_schedule()
        lengths[-1] = _FOREVER
        yield (prices, lengths)

    def _commit_schedule(self):
        """The mixture as (prices (K, N), lengths (K,)), heaviest weight first."""
        inst = self.instance
        remaining = max(inst.T - self.n_explore, 1)
        rev = np.einsum("kn,kn->k", self.grid, self.D_hat)
        found = _mixture_lp(rev, inst.A @ self.D_hat.T, inst.gamma)
        if found is None:
            # No feasible mixture: fall back to the highest-price grid point.
            self.mixture = None
            return self.grid[-1:], np.array([remaining])
        weights = np.maximum(found[0], 0.0)
        self.mixture = weights
        lengths = np.floor(weights * remaining).astype(np.int64)
        order = np.flatnonzero(lengths)
        order = order[np.argsort(-weights[order], kind="stable")]
        if not len(order):
            return self.grid[[int(np.argmax(rev))]], np.array([remaining])
        return self.grid[order], lengths[order]


_FULL_MASTER = 512      # grids up to this size solve one LP over every column
_COLUMNS_PER_ROUND = 8


def _mixture_lp(rev, consumption, gamma):
    """max rev·w over mixtures w >= 0, sum w = 1, consumption @ w <= gamma, by
    column generation (Dantzig & Wolfe 1960): a basic optimum has at most M + 1
    nonzero weights, so a small restricted master LP, priced against every
    column by r = rev - λᵀ·consumption - ν, reaches the full LP's optimum.

    A grid of at most _FULL_MASTER points is one LP over every column. A larger
    one starts from the best-revenue point, the point of least worst-case
    capacity use and each resource's least-consuming point; each round adds the
    _COLUMNS_PER_ROUND most positive r until none exceeds 1e-9 · max(1, max|rev|),
    and an infeasible restricted master hands over to the full LP.

    Returns (w (K,), λ (M,), ν), the optimum and its dual, or None when HiGHS
    proves that no mixture is feasible; any other LP failure raises."""
    from scipy.optimize import linprog   # deferred: `import nrmlab` stays scipy-free
    K = len(rev)
    tol = 1e-9 * max(1.0, float(np.abs(rev).max()))
    if K <= _FULL_MASTER:
        cols = np.arange(K)
    else:
        cols = np.unique([int(np.argmax(rev)),
                          int(np.argmin((consumption / gamma[:, None]).max(axis=0))),
                          *np.argmin(consumption, axis=1).tolist()])
    while True:
        res = linprog(-rev[cols], A_ub=consumption[:, cols], b_ub=gamma,
                      A_eq=np.ones((1, len(cols))), b_eq=[1.0], bounds=(0.0, 1.0),
                      method="highs")
        if res.status == 2 and len(cols) < K:
            cols = np.arange(K)     # restricted master infeasible: the full LP decides
            continue
        if res.status == 2:
            return None
        if res.status != 0:
            raise RuntimeError(f"ETC mixture LP failed: HiGHS status {res.status} "
                               f"({res.message})")
        # a weight at its bound 1 is the whole mixture, so its bound's marginal
        # folds into ν: (λ, ν) is then the dual of the same LP without w <= 1
        lam = -res.ineqlin.marginals
        nu = -float(res.eqlin.marginals[0] + res.upper.marginals.sum())
        if len(cols) == K:
            break
        reduced = rev - lam @ consumption - nu
        reduced[cols] = -np.inf
        best = np.flatnonzero(reduced > tol)
        if not len(best):
            break
        if len(best) > _COLUMNS_PER_ROUND:
            best = best[np.argpartition(-reduced[best], _COLUMNS_PER_ROUND)[:_COLUMNS_PER_ROUND]]
        cols = np.concatenate([cols, best])
    weights = np.zeros(K)
    weights[cols] = res.x
    return weights, lam, nu

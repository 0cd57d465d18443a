import json
import numpy as np
import pytest
from numpy.testing import assert_allclose

import nrmlab.demand
from nrmlab import LogitDemand, LinearDemand, DomainError, estimate_regularity
from nrmlab.demand import (
    RegularityConstants,
    _max_spectral_norm,
    _min_singular_value,
    revenue_f,
    revenue_phi,
    grad_revenue_f,
    grad_revenue_phi,
    hessian_fd,
)
from nrmlab.fluid import solve_fluid
from conftest import corner_instance, serve_one

A_EXAMPLE = np.array([[1.0, 1.0], [0.0, 2.0]])


@pytest.fixture(scope="module")
def logit():
    return LogitDemand([0.4, 0.8], [1.5, 2.0])


def random_prices(rng, n, lo=0.8, hi=5.0, count=100, margin=0.0):
    return lo + margin + (hi - lo - 2 * margin) * rng.random((count, n))


class TestLogitMean:
    def test_closed_form_at_low_price(self, logit):
        d = logit.mean(np.array([0.8, 0.8]))
        assert_allclose(d, [0.23665609135556676, 0.23665609135556676], rtol=1e-12)
        assert d.sum() < 1.0

    def test_high_price_tail(self, logit):
        d = logit.mean(np.array([5.0, 5.0]))
        assert_allclose(d, [8.2434146409698e-4, 1.0094591135415e-4], rtol=1e-9)

    def test_vanishes_at_infinite_price(self, logit):
        d = logit.mean(np.array([np.inf, np.inf]))
        assert_allclose(d, [0.0, 0.0], atol=0.0)

    def test_dimension_mismatch(self, logit):
        with pytest.raises(DomainError):
            logit.mean(np.array([1.0, 2.0, 3.0]))

    def test_nonpositive_slope_rejected(self):
        with pytest.raises(DomainError):
            LogitDemand([0.4], [0.0])


class TestLogitJacobian:
    def test_closed_form_entry(self, logit):
        J = logit.jacobian(np.array([0.8, 0.8]))
        assert_allclose(J[0, 0], -0.2709749786698086, rtol=1e-12)

    def test_matches_finite_differences(self, logit, rng):
        h = 1e-5
        for p in random_prices(rng, 2, margin=2 * h):
            J = logit.jacobian(p)
            J_fd = np.empty_like(J)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                J_fd[:, i] = (logit.mean(p + e) - logit.mean(p - e)) / (2 * h)
            assert_allclose(J, J_fd, rtol=0, atol=1e-6 * np.abs(J).max())

    def test_symmetric_instance(self):
        sym = LogitDemand([0.4, 0.4], [1.5, 1.5])
        J = sym.jacobian(np.array([1.3, 1.3]))
        assert_allclose(J, J.T, rtol=1e-14)
        assert J[0, 0] == pytest.approx(J[1, 1], rel=1e-14)

    def test_nonsingular_and_monotone_on_box(self, logit, rng):
        for p in random_prices(rng, 2, count=50):
            J = logit.jacobian(p)
            assert np.linalg.svd(J, compute_uv=False)[-1] > 0
            assert np.all(np.diag(J) < 0)


class TestLogitInverse:
    def test_closed_form(self, logit):
        p = logit.inverse(np.array([0.2, 0.2]))
        assert_allclose(p, [0.9990748591120729, 0.9493061443340548], rtol=1e-12)

    def test_round_trip_through_mean(self, logit):
        p = np.array([0.8, 0.8])
        assert_allclose(logit.inverse(logit.mean(p)), p, rtol=1e-10)

    def test_domain_error_outside_simplex(self, logit):
        with pytest.raises(DomainError):
            logit.inverse(np.array([0.6, 0.5]))
        with pytest.raises(DomainError):
            logit.inverse(np.array([-0.1, 0.2]))

    def test_round_trip_property(self, logit, rng):
        for p in random_prices(rng, 2):
            back = logit.inverse(logit.mean(p))
            assert_allclose(back, p, rtol=1e-8)


class TestRevenue:
    def test_f_at_low_price(self, logit):
        assert revenue_f(logit, np.array([0.8, 0.8])) == pytest.approx(
            0.3786497461689069, rel=1e-12)

    def test_f_vanishes_at_high_price(self, logit):
        assert revenue_f(logit, np.array([60.0, 60.0])) < 1e-20

    def test_grad_f_matches_finite_differences(self, logit, rng):
        h = 1e-6
        for p in random_prices(rng, 2, count=30, margin=h):
            g = grad_revenue_f(logit, p)
            g_fd = np.empty(2)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                g_fd[i] = (revenue_f(logit, p + e) - revenue_f(logit, p - e)) / (2 * h)
            assert_allclose(g, g_fd, rtol=1e-6, atol=1e-9)

    def test_phi_equals_f_through_inverse(self, logit, rng):
        for p in random_prices(rng, 2, count=30):
            d = logit.mean(p)
            assert revenue_phi(logit, d) == pytest.approx(revenue_f(logit, p), rel=1e-10)

    def test_phi_closed_form(self, logit):
        assert revenue_phi(logit, np.array([0.2, 0.2])) == pytest.approx(
            0.38967620068922554, rel=1e-12)

    def test_phi_strongly_concave_on_image(self, logit, rng):
        # the Hessians of phi are negative definite over the demand image
        D = logit.mean(random_prices(rng, 2, count=25))
        H = logit.hessian_phi(D)
        assert np.all(np.linalg.eigvalsh(H) < 0)

    def test_grad_phi_matches_finite_differences(self, logit, rng):
        h = 1e-7
        for p in random_prices(rng, 2, count=25):
            d = logit.mean(p)
            g = grad_revenue_phi(logit, d)
            g_fd = np.empty(2)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                g_fd[i] = (revenue_phi(logit, d + e) - revenue_phi(logit, d - e)) / (2 * h)
            assert_allclose(g, g_fd, rtol=1e-5, atol=1e-7)


class TestSampler:
    """The market kernel's count draw, without an inventory limit (remaining = None)."""

    def test_multinomial_is_one_hot_or_zero(self, logit, rng):
        # each period buys one product (index < N) or nothing (index N)
        draws = [serve_one(logit, A_EXAMPLE, np.array([1.0, 1.0]), 1, None, rng)
                 for _ in range(1000)]
        counts = np.array([c for _, c in draws])
        assert all(served == 1 for served, _ in draws)
        assert counts.shape == (1000, 3)
        assert np.all(counts.sum(axis=1) == 1) and np.all((counts == 0) | (counts == 1))
        assert np.all(counts.sum(axis=0) > 0)
        served, block = serve_one(logit, A_EXAMPLE, np.array([1.0, 1.0]), 1000, None, rng)
        assert served == 1000 and block.sum() == 1000

    def test_category_probabilities_equal_mean_exactly(self, logit):
        # the draw's category probabilities are D(p) itself; the last category
        # (no purchase) takes the remainder 1 - sum D(p)
        class Spy:
            def multinomial(self, k, pvals):
                self.pvals = np.array(pvals)
                return np.random.default_rng(0).multinomial(k, pvals)

        p = np.array([1.7, 2.4])
        spy = Spy()
        serve_one(logit, A_EXAMPLE, p, 10, None, spy)
        target = logit.mean(p)
        np.testing.assert_array_equal(spy.pvals[:2], target)
        assert 1.0 - spy.pvals[:2].sum() > 0

    def test_multinomial_mean_matches_demand(self, logit, rng):
        p = np.array([0.8, 0.8])
        n = 1_000_000
        served, counts = serve_one(logit, A_EXAMPLE, p, n, None, rng)
        freq = counts[:2] / n
        target = logit.mean(p)
        se = np.sqrt(target * (1 - target) / n)
        assert served == n
        assert np.all(np.abs(freq - target) <= 4 * se)

    def test_revenue_bounded_by_max_price(self, logit, rng):
        p = np.array([4.9, 5.0])
        served, counts = serve_one(logit, A_EXAMPLE, p, 2000, None, rng)
        assert counts.sum() == served == 2000
        assert p @ counts[:2] <= 5.0 * served


class TestLinearDemand:
    def test_inverse_round_trip(self, rng):
        model = LinearDemand([2.0, 2.0], [[1.0, 0.2], [0.1, 0.8]])
        for p in random_prices(rng, 2, lo=0.0, hi=1.5, count=40):
            assert_allclose(model.inverse(model.mean(p)), p, rtol=1e-10, atol=1e-12)

    def test_jacobian_constant(self):
        B = np.array([[1.0, 0.2], [0.1, 0.8]])
        model = LinearDemand([2.0, 2.0], B)
        assert_allclose(model.jacobian(np.array([0.3, 0.4])), -B)

    def test_requires_positive_definite_slope(self):
        with pytest.raises(DomainError):
            LinearDemand([1.0, 1.0], [[0.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("kind", ["linear", "logit"])
def test_image_halfspaces_hold_the_box_image_and_nothing_past_an_edge(kind, instance, rng):
    # the bundled logit model, or a linear one whose demand stays positive on its box
    model, (lo, hi) = ((instance.model, instance.price_box) if kind == "logit" else
                       (LinearDemand([0.5, 0.55], [[0.15, 0.03], [0.03, 0.15]]), (0.5, 2.7)))
    G, h = model.image_halfspaces(lo, hi)
    inside = model.mean(rng.uniform(lo, hi, size=(1000, 2)))
    assert (inside @ G.T - h).max() <= 0.0
    for i in range(2):
        for edge in (lo - 0.1, hi + 0.1):
            p = np.full(2, 0.5 * (lo + hi))
            p[i] = edge
            assert (G @ model.mean(p) - h).max() > 1e-6, (i, edge)


# operation name -> (call, whether it takes prices rather than demands)
OPERATIONS = {
    "mean": (lambda model, x: model.mean(x), True),
    "jacobian": (lambda model, x: model.jacobian(x), True),
    "inverse": (lambda model, x: model.inverse(x), False),
    "revenue_f": (revenue_f, True),
    "revenue_phi": (revenue_phi, False),
    "grad_revenue_f": (grad_revenue_f, True),
    "grad_revenue_phi": (grad_revenue_phi, False),
    "hessian_phi": (lambda model, x: model.hessian_phi(x), False),
}


def broadcast_model(kind, N):
    """A seeded model of each kind at N products, with a price box on which
    its demand is positive."""
    rng = np.random.default_rng(700 + N)
    if kind == "logit":
        return LogitDemand(rng.uniform(0.2, 1.0, N), rng.uniform(1.0, 2.5, N)), (0.8, 5.0)
    B = N * np.eye(N) + 0.2 * rng.normal(size=(N, N))
    return LinearDemand(np.full(N, 4.0 * N), B), (0.1, 1.0)


class TestBroadcast:
    """Each operation takes a vector (N,) or a stack (..., N), and every row of
    a stacked call equals the 1-D call on that row, bit for bit."""

    K = 40

    @pytest.mark.parametrize("kind", ["logit", "linear"])
    @pytest.mark.parametrize("N", [1, 2, 3, 6])
    @pytest.mark.parametrize("op", sorted(OPERATIONS))
    def test_stack_rows_equal_vector_calls(self, op, N, kind):
        model, (lo, hi) = broadcast_model(kind, N)
        call, takes_prices = OPERATIONS[op]
        P = lo + (hi - lo) * np.random.default_rng(N).random((self.K, N))
        X = P if takes_prices else model.mean(P)
        rows = [call(model, x) for x in X]
        for stack in (X, X.reshape(2, self.K // 2, N)):
            out = call(model, stack)
            assert out.shape == stack.shape[:-1] + np.shape(rows[0])
            for got, want in zip(out.reshape((self.K,) + np.shape(rows[0])), rows):
                assert np.array_equal(got, want)
        if op.startswith("revenue"):
            assert all(type(r) is float for r in rows)
        for bad in (np.ones((self.K, N + 1)), np.float64(X[0, 0])):
            with pytest.raises(DomainError):
                call(model, bad)

    def test_fluid_solution_serializes(self, instance):
        doc = json.loads(json.dumps(solve_fluid(instance).to_dict()))
        assert type(doc["value"]) is float


def richardson(fun, x, h):
    """Richardson-extrapolated central differences of fun at x, one row per
    coordinate: (4 c(h/2) - c(h)) / 3 with c(t) = (fun(x + t e_i) - fun(x - t e_i)) / 2t."""
    rows = []
    for i in range(x.shape[0]):
        e = np.zeros(x.shape[0])
        e[i] = 1.0

        def c(t):
            return (fun(x + t * e) - fun(x - t * e)) / (2 * t)
        rows.append((4 * c(h / 2) - c(h)) / 3)
    return np.array(rows)


class TestPhiClosedForms:
    """Each model's grad_phi and hessian_phi are phi's derivatives."""

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("kind", ["logit", "linear"])
    def test_match_richardson_differences(self, kind, N):
        model, (lo, hi) = broadcast_model(kind, N)
        P = lo + (hi - lo) * (0.05 + 0.9 * np.random.default_rng(N).random((20, N)))
        for d in model.mean(P):
            h = 1e-3 * d.min()   # d +- h stays in the image
            g, H = model.grad_phi(d), model.hessian_phi(d)
            assert_allclose(richardson(lambda x: revenue_phi(model, x), d, h), g,
                            rtol=0, atol=1e-8 * np.abs(g).max())
            assert_allclose(richardson(model.grad_phi, d, h), H,
                            rtol=0, atol=1e-8 * np.abs(H).max())
            assert np.array_equal(H, H.T)

    def test_linear_hessian_is_minus_both_inverses(self):
        B = np.array([[1.0, 0.2], [0.1, 0.8]])
        model = LinearDemand([3.0, 3.0], B)
        B_inv = np.linalg.inv(B)
        H = model.hessian_phi(model.mean(np.full((5, 2), 1.0)))
        assert H.shape == (5, 2, 2)
        assert (H == -(B_inv + B_inv.T)).all()

    def test_outside_the_logit_image_is_refused(self, logit):
        for d in ([0.6, 0.5], [-0.1, 0.2], [0.0, 0.2]):
            for call in (logit.grad_phi, logit.hessian_phi):
                with pytest.raises(DomainError):
                    call(np.array(d))


def fd_hessian(grad, x, h=1e-6):
    n = x.shape[0]
    H = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        H[i] = (grad(x + e) - grad(x - e)) / (2 * h)
    return 0.5 * (H + H.T)


@pytest.mark.parametrize("kind", ["logit", "linear"])
@pytest.mark.parametrize("N", [1, 3])
def test_hessian_fd_rows_equal_pointwise_differences(N, kind):
    # one grad call on the 2N shifted stacks rounds like 2N calls on each point
    model, (lo, hi) = broadcast_model(kind, N)
    P = lo + (hi - lo) * np.random.default_rng(N).random((12, N))
    want = [fd_hessian(lambda x: grad_revenue_f(model, x), p) for p in P]
    for stack in (P, P.reshape(3, 4, N)):
        got = hessian_fd(grad_revenue_f, model, stack).reshape(12, N, N)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def reference_regularity(model, price_box, grid_points, A, gamma):
    """Per-point grid scan: the Jacobian, the gradients of f and phi, the
    finite-difference Hessian of f and the closed-form Hessian of phi
    evaluated one price at a time with the pointwise model and revenue
    functions."""
    p_lo, p_hi = float(price_box[0]), float(price_box[1])
    n = model.n_products
    mesh = np.meshgrid(*[np.linspace(p_lo, p_hi, grid_points)] * n, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    jacs = np.empty((len(points), n, n))
    B_D = B_f = B_phi = 0.0
    sigma_D = sigma_phi = np.inf
    for k, p in enumerate(points):
        J = model.jacobian(p)
        jacs[k] = J
        sv = np.linalg.svd(J, compute_uv=False)
        B_D = max(B_D, sv[0])
        sigma_D = min(sigma_D, sv[-1])
        B_f = max(B_f, float(np.linalg.norm(grad_revenue_f(model, p))))
        H = fd_hessian(lambda x: grad_revenue_f(model, x), p)
        B_f = max(B_f, float(np.linalg.norm(H, 2)))
        d = model.mean(p)
        B_phi = max(B_phi, float(np.linalg.norm(grad_revenue_phi(model, d))))
        eig = np.linalg.eigvalsh(-model.hessian_phi(d))
        B_phi = max(B_phi, float(np.max(np.abs(eig))))
        sigma_phi = min(sigma_phi, float(eig.min()))
    spacing = (p_hi - p_lo) / (grid_points - 1)
    L_D = 0.0
    jacs = jacs.reshape((grid_points,) * n + (n, n))
    for axis in range(n):
        lo = [slice(None)] * n
        hi = [slice(None)] * n
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        norms = np.linalg.norm(jacs[tuple(hi)] - jacs[tuple(lo)], ord=2, axis=(-2, -1))
        L_D = max(L_D, float(norms.max()) / spacing)
    sv_A = np.linalg.svd(np.asarray(A, float), compute_uv=False)
    return RegularityConstants(
        B_D=float(B_D), sigma_D=float(sigma_D), L_D=float(max(L_D, 1e-12)),
        B_f=float(B_f), B_phi=float(B_phi), sigma_phi=float(sigma_phi),
        B_A=float(sv_A[0]), sigma_A=float(sv_A[-1]), B_r=float(p_hi),
        gamma_max=float(np.max(gamma)))


def regularity_cases():
    """(model, price_box, grid_points, A, gamma): seeded random logit models
    at N = 3 and 4, and linear models with the identity and a non-symmetric
    slope matrix."""
    rng = np.random.default_rng(5150)
    cases = []
    for N, grid in ((3, 9), (4, 5)):
        model = LogitDemand(rng.uniform(0.2, 1.0, N), rng.uniform(1.0, 2.5, N))
        A = rng.integers(1, 3, size=(2, N)).astype(float)
        cases.append((model, (0.8, 5.0), grid, A, rng.uniform(0.1, 0.3, 2)))
    for B in (np.eye(2), [[1.0, 0.2], [0.1, 0.8]]):
        cases.append((LinearDemand([3.0, 3.0], B), (0.5, 1.5), 9, np.eye(2), np.array([0.4, 0.4])))
    return cases


def screen_stacks():
    """Stacks (K, m, n) meant to break the Frobenius screen of _max_spectral_norm."""
    rng = np.random.default_rng(46)
    P = random_prices(rng, 2, count=50)
    R = rng.normal(size=(200, 3, 1)) * rng.normal(size=(200, 1, 3))
    return {
        # Frobenius-largest 0.75 I (||.||_F 1.06, ||.||_2 0.75) against diag(1, 0),
        # whose two norms are equal
        "fro-largest-not-spectral": np.stack([0.75 * np.eye(2), np.diag([1.0, 0.0])]
                                             + [0.1 * rng.normal(size=(2, 2)) for _ in range(8)]),
        # linear demand's constant Jacobian: every matrix ties
        "all-equal": LinearDemand([3.0, 3.0], [[1.0, 0.2], [0.1, 0.8]]).jacobian(P),
        # ||x||_F == |x| == ||x||_2 for each 1 x 1 matrix
        "one-by-one": rng.normal(size=(200, 1, 1)),
        # ||.||_2 == ||.||_F at rank one: the rank-one matrices whose LAPACK
        # ||.||_2 exceeds their rounded ||.||_F, the rounding the margin covers
        "rank-one": R[np.linalg.svd(R, compute_uv=False)[:, 0]
                      > np.sqrt(np.einsum("kij,kij->k", R, R))],
        "logit-hessians": hessian_fd(grad_revenue_f, LogitDemand([0.4, 0.8], [1.5, 2.0]), P),
    }


class TestMaxSpectralNorm:
    """The screened maximum is the float of the unscreened one."""

    @pytest.mark.parametrize("name", sorted(screen_stacks()))
    def test_equals_unscreened_maximum(self, name):
        X = screen_stacks()[name]
        norms = np.linalg.norm(X, 2, axis=(1, 2))
        top = norms.max()
        assert _max_spectral_norm(X, 0.0) == top
        # a floor below the maximum but above most matrices, and one above every matrix
        assert _max_spectral_norm(X, float(np.median(norms))) == top
        assert _max_spectral_norm(X, 2.0 * top) == 2.0 * top

    def test_decomposes_only_what_can_reach_the_maximum(self, monkeypatch):
        decomposed = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            decomposed.append(int(np.prod(np.shape(a)[:-2])))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        X = 0.1 * np.random.default_rng(46).random((1000, 3, 3))
        X[617] = np.eye(3)
        assert _max_spectral_norm(X, 0.0) == 1.0
        assert sum(decomposed) == 2   # the Frobenius-largest, then the one kept
        decomposed.clear()
        assert _max_spectral_norm(X, 2.0) == 2.0
        assert sum(decomposed) == 1


def singular_value_stacks():
    """Stacks (K, n, n) meant to break the determinant screen of _min_singular_value."""
    rng = np.random.default_rng(48)
    R = rng.normal(size=(200, 3, 1)) * rng.normal(size=(200, 1, 3))
    singular = rng.normal(size=(50, 3, 3))
    singular[:, 2] = singular[:, 0] + singular[:, 1]   # det 0 up to rounding
    singular[7] = 0.0                                  # a zero matrix: its bound is nan
    model = LogitDemand([0.4, 0.8, 0.6], [1.5, 2.0, 1.2])
    # near-rank-one 2 x 2 matrices whose rounded |det| / ||.||_F exceeds LAPACK's
    # sigma_min by over 1%, the rounding the margin covers, and a multiple of I just
    # above their minimum whose bound is lower: the screen must still keep the minimum
    C = rng.normal(size=(400, 2, 1)) * rng.normal(size=(400, 1, 2)) \
        + 1e-14 * rng.normal(size=(400, 2, 2))
    C = C[np.abs(np.linalg.det(C)) / np.sqrt(np.einsum("kij,kij->k", C, C))
          > 1.01 * np.linalg.svd(C, compute_uv=False)[:, -1]]
    decoy = 1.005 * np.linalg.svd(C, compute_uv=False)[:, -1].min() * np.eye(2)
    return {
        "det-overstated": np.concatenate([C, decoy[None]]),
        "det-zero": singular,
        # linear demand's constant Jacobian: every matrix ties
        "all-equal": LinearDemand([3.0, 3.0], [[1.0, 0.2], [0.1, 0.8]]).jacobian(
            random_prices(rng, 2, count=50)),
        # |det x| == ||x||_F == sigma_min for each 1 x 1 matrix
        "one-by-one": rng.normal(size=(200, 1, 1)),
        # rank one plus 1e-12: sigma_min near the rounding of det and of LAPACK
        "near-rank-one": R + 1e-12 * rng.normal(size=R.shape),
        "logit-n3": model.jacobian(random_prices(rng, 3, count=500)),
        # the corner instance's Jacobians, sigma_min down to 5.3e-9
        "logit-corner": corner_instance(8.0).model.jacobian(random_prices(rng, 2, hi=8.0)),
    }


class TestMinSingularValue:
    """The screened minimum is the float of the unscreened one."""

    @pytest.mark.parametrize("name", sorted(singular_value_stacks()))
    def test_equals_unscreened_minimum(self, name):
        J = singular_value_stacks()[name]
        smallest = np.linalg.svd(J, compute_uv=False)[:, -1]
        low = smallest.min()
        assert _min_singular_value(J, np.inf) == low
        # a floor above the minimum but below most matrices, and one below every matrix
        assert _min_singular_value(J, float(np.median(smallest))) == low
        assert _min_singular_value(J, 0.5 * low) == 0.5 * low

    def test_bundled_scan_decomposes_two_jacobians(self, instance, regularity, monkeypatch):
        # the 41 x 41 grid is one block: its lowest-bound Jacobian, then the one kept
        decomposed = []
        svd, screen = np.linalg.svd, nrmlab.demand._min_singular_value

        def counted(a, *args, **kwargs):
            decomposed.append(int(np.prod(np.shape(a)[:-2])))
            return svd(a, *args, **kwargs)

        def screened(J, floor):
            monkeypatch.setattr(np.linalg, "svd", counted)
            try:
                return screen(J, floor)
            finally:
                monkeypatch.setattr(np.linalg, "svd", svd)

        monkeypatch.setattr(nrmlab.demand, "_min_singular_value", screened)
        assert estimate_regularity(instance.model, instance.price_box, 41,
                                   instance.A, instance.gamma) == regularity
        assert sum(decomposed) == 2


class TestEstimateRegularity:
    def test_bundled_equals_per_point_scan(self, instance, regularity):
        ref = reference_regularity(instance.model, instance.price_box, 41,
                                   instance.A, instance.gamma)
        assert regularity == ref

    @pytest.mark.parametrize("case", range(4),
                             ids=["logit-n3", "logit-n4", "linear-identity", "linear"])
    def test_equals_per_point_scan(self, case):
        args = regularity_cases()[case]
        assert estimate_regularity(*args) == reference_regularity(*args)

    def test_blocks_do_not_change_constants(self, instance, regularity, monkeypatch):
        # 41^2 points in blocks of 7 leave a ragged last block
        monkeypatch.setattr(nrmlab.demand, "_SCAN_BLOCK", 7)
        assert estimate_regularity(instance.model, instance.price_box, 41,
                                   instance.A, instance.gamma) == regularity

    @pytest.mark.parametrize("N, grid, block", [(2, 41, 50), (2, 41, 100), (3, 15, 1),
                                                (3, 15, 500)])
    def test_slice_blocks_equal_one_block(self, N, grid, block, monkeypatch):
        # blocks of one or two axis-0 slices and a ragged last block; the
        # steep first product puts the largest Jacobian change, L_D, on axis 0,
        # whose differences cross the block boundaries
        slopes = np.r_[2.5, np.full(N - 1, 1.0)]
        args = (LogitDemand(np.full(N, 1.0), slopes), (0.8, 5.0), grid, np.ones((1, N)),
                np.array([0.3]))
        monkeypatch.setattr(nrmlab.demand, "_SCAN_BLOCK", grid ** N)
        whole = estimate_regularity(*args)
        monkeypatch.setattr(nrmlab.demand, "_SCAN_BLOCK", block)
        assert estimate_regularity(*args) == whole

    def test_one_product_equals_per_point_scan(self):
        args = (LogitDemand([0.6], [1.7]), (0.8, 5.0), 41, np.ones((1, 1)), np.array([0.3]))
        assert estimate_regularity(*args) == reference_regularity(*args)

    def test_largest_jacobian_change_in_the_ragged_last_block(self, monkeypatch):
        # product 0 saturates at low prices, so its Jacobian changes most between
        # the last two axis-0 slices; blocks of two slices of the 9 x 9 grid leave
        # the last slice alone in a ragged last block
        model = LogitDemand([9.0, 0.5], [1.5, 1.0])
        args = (model, (0.8, 5.0), 9, np.ones((1, 2)), np.array([0.3]))
        axis = np.linspace(0.8, 5.0, 9)
        J = model.jacobian(np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1))
        steps = [np.linalg.norm(np.diff(J, axis=k), 2, axis=(-2, -1)) for k in (0, 1)]
        assert steps[0].max() > steps[1].max()
        assert np.unravel_index(steps[0].argmax(), steps[0].shape)[0] == 7
        monkeypatch.setattr(nrmlab.demand, "_SCAN_BLOCK", 18)
        assert estimate_regularity(*args) == reference_regularity(*args)

    def test_identity_demand(self):
        # D(p) = c - p: constant Jacobian -I
        model = LinearDemand([3.0, 3.0], np.eye(2))
        reg = estimate_regularity(model, (0.5, 1.5), 9, np.eye(2), np.array([0.4, 0.4]))
        assert reg.B_D == pytest.approx(1.0, rel=1e-9)
        assert reg.sigma_D == pytest.approx(1.0, rel=1e-9)
        assert reg.L_D <= 1e-6

    def test_consumption_matrix_svd(self, instance):
        reg = estimate_regularity(instance.model, instance.price_box, 9,
                                  A_EXAMPLE, instance.gamma)
        assert reg.sigma_A == pytest.approx(0.8740320488976421, rel=1e-9)
        assert reg.B_A == pytest.approx(2.2882456112707374, rel=1e-9)

    def test_logit_constants_positive(self, regularity):
        assert regularity.sigma_D > 0
        assert regularity.sigma_phi > 0
        assert regularity.sigma_D <= regularity.B_D
        assert regularity.sigma_phi <= regularity.B_phi
        assert regularity.B_r == 5.0

    def test_corner_demand_below_a_difference_step(self):
        # demand reaches 1.3e-7 at the box's top corner, below the 1e-6 step that
        # a finite-difference Hessian of phi would take out of the demand image
        inst = corner_instance(6.5)
        assert inst.model.mean(np.full(2, 6.5)).min() < 1e-6
        reg = estimate_regularity(inst.model, inst.price_box, 21, inst.A, inst.gamma)
        assert np.isfinite([getattr(reg, k) for k in reg.__dataclass_fields__]).all()
        assert reg == reference_regularity(inst.model, inst.price_box, 21, inst.A, inst.gamma)

    def test_degenerate_grid_rejected(self, instance):
        with pytest.raises(ValueError):
            estimate_regularity(instance.model, instance.price_box, 1,
                                instance.A, instance.gamma)

"""Convex kernel: hulls, conjugation, minorants, quadrature, slice predicate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from arithvol import convexcore
from arithvol.convexcore import (GridConvexFunction, Region, brent_roots, conjugate_points_2d,
                                 constrained_convex_minorant, convex_hull,
                                 discrete_convexity_defect, golden_max,
                                 grid_function_from_callable,
                                 integrate_positive_part, legendre_conjugate,
                                 shifted_simplex, sliced_interior_nonempty,
                                 sliced_interior_witness)
from arithvol.divisor import canonical_divisor, concave_transform, sampled_from_divisor
from arithvol.errors import (InfeasibleError, InputError,
                             UnboundedSupremumError)
from conftest import random_full_dim_polytope


def logistic_grid(a0=1.0, a1=1.0, s_range=40.0, n=2001):
    fun = lambda s: np.logaddexp(math.log(a0), math.log(a1) + s)
    return grid_function_from_callable(fun, -s_range, s_range, n, [(0.0, 1.0)])


def conjugate_at(u, x, refine=True):
    """The 1-d conjugate at the single slope ``x``: a one-point conjugation domain."""
    return float(legendre_conjugate(u, convex_hull([[x]]), refine=refine).values[0])


# ---------------------------------------------------------------------------
# hulls
# ---------------------------------------------------------------------------

class TestConvexHull:
    def test_segment(self):
        p = convex_hull([[0.0], [1.0]])
        assert p.vertices.ravel().tolist() == [0.0, 1.0]
        assert p.volume() == 1.0

    def test_interior_point_absorbed(self):
        p = convex_hull([[0, 0], [1, 0], [0, 1], [0.25, 0.25]])
        assert len(p.vertices) == 3
        assert not any(np.allclose(v, [0.25, 0.25]) for v in p.vertices)

    def test_semigroup_hull_is_simplex(self):
        # oracle: enumerate the normalized monomial valuations for m <= 3
        pts = []
        for m in range(1, 4):
            for i in range(m + 1):
                for j in range(m + 1 - i):
                    pts.append((i / m, j / m))
        p = convex_hull(np.array(pts))
        expected = convex_hull([[0, 0], [1, 0], [0, 1]])
        assert np.allclose(p.vertices, expected.vertices)

    def test_idempotent(self, rng):
        for _ in range(20):
            p = random_full_dim_polytope(rng, 2)
            again = convex_hull(p.vertices)
            assert np.allclose(p.vertices, again.vertices)
            assert p.check_consistency()

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            convex_hull([[0, 1], [1]])

    def test_empty(self):
        with pytest.raises(InputError):
            convex_hull(np.zeros((0, 2)))

    def test_degenerate_collinear(self):
        p = convex_hull([[0, 0], [1, 1], [2, 2]])
        assert not p.is_full_dimensional()
        assert p.volume() == 0.0
        assert p.contains([1.5, 1.5])
        assert not p.contains([1.0, 1.2])

    def test_shifted_simplex(self):
        p = shifted_simplex([1.0, 0.0, 0.0])
        assert p.volume() == pytest.approx(0.5)
        assert p.contains([0.3, 0.3])
        assert not p.contains([0.7, 0.7])


# ---------------------------------------------------------------------------
# Legendre conjugation
# ---------------------------------------------------------------------------

class TestLegendreConjugate:
    def test_linear_conjugate_zero_at_slope(self):
        lam = 0.7
        u = grid_function_from_callable(lambda s: lam * s, -40, 40, 2001, [(lam, lam)])
        assert conjugate_at(u, lam) == pytest.approx(0.0, abs=1e-12)

    def test_linear_conjugate_unbounded_off_slope(self):
        lam = 0.7
        u = grid_function_from_callable(lambda s: lam * s, -40, 40, 2001, [(lam, lam)])
        with pytest.raises(UnboundedSupremumError):
            conjugate_at(u, 0.9)
        with pytest.raises(UnboundedSupremumError):
            legendre_conjugate(u, convex_hull([[0.2], [0.9]]))

    def test_logistic_value_vs_bisection_oracle(self):
        # oracle: maximize x s - u(s) by bisection on the derivative
        a0, a1, x = 1.0, 1.0, 0.5
        du = lambda s: a1 * math.exp(s) / (a0 + a1 * math.exp(s)) - x
        s_star = brentq(du, -50, 50, xtol=1e-14)
        expected = x * s_star - math.log(a0 + a1 * math.exp(s_star))
        assert expected == pytest.approx(-math.log(2), abs=1e-12)
        u = logistic_grid(a0, a1)
        assert conjugate_at(u, x) == pytest.approx(expected, abs=1e-8)

    def test_biconjugation(self):
        # involutive to 1e-6 on slope windows with margin from the recession ends
        u = logistic_grid()
        dom = convex_hull([[0.05], [0.95]])
        star = legendre_conjugate(u, dom)
        assert star.check_convex()
        s_window = convex_hull([[math.log(0.05 / 0.95)], [math.log(0.95 / 0.05)]])
        back = legendre_conjugate(star, s_window)
        truth = np.logaddexp(0.0, back.axes[0])
        assert np.max(np.abs(back.values - truth)) < 1e-6

    def test_biconjugation_quadratic_2d(self):
        fun = lambda s1, s2: 0.5 * (s1 ** 2 + s2 ** 2) + 0.2 * s1 * s2
        u = grid_function_from_callable(fun, [-6, -6], [6, 6], [257, 257],
                                        [(-7.2, 7.2), (-7.2, 7.2)])
        dom = convex_hull([[-3, -3], [3, -3], [-3, 3], [3, 3]])
        star = legendre_conjugate(u, dom)
        s_window = convex_hull([[-2, -2], [2, -2], [-2, 2], [2, 2]])
        back = legendre_conjugate(star, s_window)
        g1, g2 = np.meshgrid(back.axes[0], back.axes[1], indexing="ij")
        assert np.max(np.abs(back.values - fun(g1, g2))) < 1e-6

    def test_order_reversal(self, rng):
        dom = convex_hull([[0.0], [1.0]])
        for _ in range(10):
            c = float(rng.uniform(0.0, 1.0))
            u = logistic_grid()
            v = GridConvexFunction(axes=u.axes, values=u.values + c, recession=u.recession)
            cu = legendre_conjugate(u, dom)
            cv = legendre_conjugate(v, dom)
            assert np.all(cu.values >= cv.values - 1e-12)

    def test_rejects_nonconvex(self):
        s = np.linspace(-1, 1, 101)
        u = GridConvexFunction(axes=(s,), values=-s ** 2, recession=((-2, 2),))
        with pytest.raises(InputError):
            legendre_conjugate(u, convex_hull([[0.0], [0.1]]))


def brute_conjugate(s, u, x, refine):
    """Reference 1-d grid conjugate: every ``x s_j - u_j``, first maximum, capped bump.

    Returns ``(index, value)`` per ``x``; written out here so that the
    kernel is checked against code it does not share.
    """
    idx, out = [], []
    for xs in np.array_split(np.asarray(x, dtype=float), max(1, len(x) // 256)):
        f = xs[:, None] * s[None, :] - u[None, :]
        j = np.argmax(f, axis=1)
        r = np.arange(len(xs))
        best = f[r, j]
        if refine:
            inner = (j > 0) & (j < len(s) - 1)
            ri, ji = r[inner], j[inner]
            f0, f1, f2 = f[ri, ji - 1], f[ri, ji], f[ri, ji + 1]
            d2 = f0 - 2.0 * f1 + f2
            with np.errstate(divide="ignore", invalid="ignore"):
                bump = np.where(d2 < -1e-300, (f0 - f2) ** 2 / (-8.0 * d2), 0.0)
            best[inner] = f1 + np.clip(bump, 0.0, np.abs(f2 - f0) / 2.0)
        idx.append(j)
        out.append(best)
    return np.concatenate(idx), np.concatenate(out)


def assert_kernel_exact(s, u, x, refine):
    j, ref = brute_conjugate(s, u, x, refine)
    assert np.array_equal(convexcore._argmax_window(s, u, x), j)
    assert np.array_equal(convexcore._conjugate_1d(s, u, x, refine), ref)


class TestLinearTimeKernel:
    """The windowed 1-d kernel picks the full scan's index, so values are bit-identical."""

    @pytest.mark.parametrize("n", [501, 2001, 4001])
    @pytest.mark.parametrize("refine", [True, False])
    def test_canonical_resamples(self, n, refine):
        for a in ([1.0, 2.0], [0.3, 2.7]):
            dv = canonical_divisor(a)
            u = sampled_from_divisor(dv, n=n)
            conj = legendre_conjugate(u, dv.body, resolution=n, refine=refine)
            j, ref = brute_conjugate(u.axes[0], u.values, conj.axes[0], refine)
            assert np.array_equal(conj.values, ref)
            assert np.array_equal(
                convexcore._argmax_window(u.axes[0], u.values, conj.axes[0]), j)

    def test_recession_endpoints(self):
        # the sampled tails are linear to rounding: the endpoint rows are tie plateaus
        u = sampled_from_divisor(canonical_divisor([0.25, 2.0]), n=2001)
        (lo, hi), = u.recession
        for refine in (True, False):
            for x in (lo, hi):
                ref = brute_conjugate(u.axes[0], u.values, [x], refine)[1][0]
                assert conjugate_at(u, x, refine=refine) == ref
            assert_kernel_exact(u.axes[0], u.values, np.array([lo, hi]), refine)

    @pytest.mark.parametrize("a", [[0.25, 2.0], [0.3, 2.7], [2.5, 0.4]])
    def test_within_rounding_of_the_endpoints(self, a):
        # slopes left and right of the window differ from x by less than the
        # rounding of x s_j - u_j: only the rounding margin keeps these exact
        u = sampled_from_divisor(canonical_divisor(a), n=501)
        (lo, hi), = u.recession
        steps = np.concatenate([np.arange(1, 200) * 1e-17, np.arange(1, 200) * 1e-15])
        x = np.concatenate([lo + steps, hi - steps])
        assert_kernel_exact(u.axes[0], u.values, x, False)

    def test_exact_ties(self):
        # dyadic slopes on an integer grid: x s_j - u_j is exact, and every x
        # node equal to a slope ties two or more grid points
        slopes = np.array([-2, -2, -1.5, -1, -1, -1, -0.25, 0, 0.5, 0.5, 1, 1.75, 2])
        s = np.arange(len(slopes) + 1, dtype=float) - 6.0
        u = np.concatenate([[3.0], 3.0 + np.cumsum(slopes)])
        x = np.linspace(-2.0, 2.0, 17)                      # every multiple of 1/4
        assert np.isin(slopes, x).all()
        for refine in (True, False):
            assert_kernel_exact(s, u, x, refine)
        grid = GridConvexFunction(axes=(s,), values=u, recession=((-2.0, 2.0),))
        conj = legendre_conjugate(grid, convex_hull([[-2.0], [2.0]]), resolution=17)
        assert np.array_equal(conj.values, brute_conjugate(s, u, x, True)[1])

    def test_constrained_minorant_output(self):
        u = sampled_from_divisor(canonical_divisor([1.0, 2.0]), n=2001)
        h = constrained_convex_minorant(u, 0.2, 0.7)       # exact tangent tails
        (lo, hi), = h.recession
        x = np.linspace(lo, hi, 2001)
        for refine in (True, False):
            assert_kernel_exact(h.axes[0], h.values, x, refine)

    def test_small_convexity_defect(self):
        s = np.linspace(-40.0, 40.0, 2001)
        u = np.logaddexp(0.0, s)
        u[100] += 2.5e-10                    # in the tail, linear to rounding
        grid = GridConvexFunction(axes=(s,), values=u, recession=((0.0, 1.0),))
        assert -1e-9 < discrete_convexity_defect(u) < -4e-10
        assert grid.check_convex()
        x = np.linspace(0.0, 1.0, 2001)
        for refine in (True, False):
            assert_kernel_exact(s, u, x, refine)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
    def test_short_grids_and_single_x(self, n):
        s = np.linspace(-1.0, 1.0, n)
        u = s ** 2
        for x in (np.array([0.3]), np.linspace(-2.0, 2.0, 9)):
            for refine in (True, False):
                assert_kernel_exact(s, u, x, refine)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([-1.5, -1.0, -0.75, -0.5, 0.0, 0.25, 0.3, 1.0, 2.0]),
                    min_size=1, max_size=40),
           st.floats(0.01, 3.0), st.floats(-5.0, 5.0),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    def test_random_convex_grids(self, slopes, h, u0, where):
        slopes = np.sort(np.asarray(slopes))
        s = np.linspace(-h * len(slopes) / 2, h * len(slopes) / 2, len(slopes) + 1)
        u = np.concatenate([[u0], u0 + np.cumsum(slopes * np.diff(s))])
        lo, hi = slopes[0], slopes[-1]
        x = np.concatenate([[lo, hi], lo + (hi - lo) * np.asarray(where), slopes])
        for refine in (True, False):
            assert_kernel_exact(s, u, x, refine)


def test_2d_stages_equal_brute_force():
    # stage 1 per s2 column, stage 2 per x1 row, each a full scan
    dv = canonical_divisor([1.0, 2.0, 4.0])
    u = sampled_from_divisor(dv, s_range=10.0, n=65)
    conj = legendre_conjugate(u, dv.body, resolution=65, refine=True)
    (s1, s2), (x1, x2) = u.axes, conj.axes
    partial = np.column_stack([brute_conjugate(s1, u.values[:, k], x1, True)[1]
                               for k in range(len(s2))])
    want = np.array([brute_conjugate(s2, -p, x2, True)[1] for p in partial])
    assert np.array_equal(conj.values, want)


def test_pointwise_2d_conjugate_equals_grid_nodes():
    dv = canonical_divisor([1.0, 2.0, 4.0])
    u = sampled_from_divisor(dv, s_range=10.0, n=65)
    conj = legendre_conjugate(u, dv.body, resolution=65, refine=True)
    g1, g2 = np.meshgrid(*conj.axes, indexing="ij")
    pts = np.column_stack([g1.ravel(), g2.ravel()])
    order = np.random.default_rng(5).permutation(len(pts))      # any order, any subset
    assert np.array_equal(conjugate_points_2d(u, pts[order]), conj.values.ravel()[order])
    assert np.array_equal(conjugate_points_2d(u, pts[7:8]), conj.values.ravel()[7:8])


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------

class TestGridEvaluation:
    def test_1d_interpolates_inside_and_follows_slopes_outside(self):
        s = np.linspace(-1.0, 1.0, 41)
        u = GridConvexFunction(axes=(s,), values=s ** 2, recession=((-3.0, 3.0),))
        inside = np.linspace(-1.0, 1.0, 97)
        assert np.array_equal(u(inside), np.interp(inside, s, s ** 2))
        assert u(np.array([-4.0, 2.5])) == pytest.approx([1.0 + 9.0, 1.0 + 4.5], abs=1e-14)
        assert float(u(2.0)) == pytest.approx(4.0, abs=1e-14)

    def test_2d_extension_has_no_cross_term(self):
        # max(s1, s2, 0) sampled on [-1, 1]^2 with slopes in [0, 1] per axis:
        # beyond the box each axis continues by its slope, so (3, 3) gets
        # u(1, 1) + 2 + 2 = 5, where bilinear extrapolation of the corner
        # cell would give -7 through its s1 s2 term
        s = np.linspace(-1.0, 1.0, 5)
        g1, g2 = np.meshgrid(s, s, indexing="ij")
        u = GridConvexFunction(axes=(s, s), values=np.maximum(np.maximum(g1, g2), 0.0),
                               recession=((0.0, 1.0), (0.0, 1.0)))
        pts = np.array([[0.5, -0.5], [3.0, -4.0], [-5.0, 0.5], [3.0, 3.0]])
        assert u(pts) == pytest.approx([0.5, 3.0, 0.5, 5.0], abs=1e-12)
        assert u((3.0, 3.0)) == pytest.approx([5.0], abs=1e-12)


# ---------------------------------------------------------------------------
# constrained convex minorant
# ---------------------------------------------------------------------------

class TestConstrainedMinorant:
    def test_identity_when_feasible(self):
        u = logistic_grid(2.0, 2.0)
        h = constrained_convex_minorant(u, 0.0, 1.0)
        assert np.max(np.abs(h.values - u.values)) < 1e-9

    def test_abs_value_slope_window(self):
        # oracle: restrict the conjugate of |s| (indicator of [-1, 1]) to [0, 1]
        s = np.linspace(-40, 40, 2001)
        u = GridConvexFunction(axes=(s,), values=np.abs(s), recession=((-1.0, 1.0),))
        h = constrained_convex_minorant(u, 0.0, 1.0)
        assert np.max(np.abs(h.values - np.maximum(s, 0.0))) < 1e-12

    def test_barrier_already_satisfied(self):
        s = np.linspace(-40, 40, 2001)
        u = grid_function_from_callable(lambda t: np.logaddexp(math.log(2), math.log(2) + t),
                                        -40, 40, 2001, [(0.0, 1.0)])
        barrier = GridConvexFunction(axes=(s,), values=np.maximum(s, 0.0), recession=((0.0, 1.0),))
        h = constrained_convex_minorant(u, 0.0, 1.0, barrier=barrier)
        assert np.max(np.abs(h.values - u.values)) < 1e-9

    def test_barrier_forces_lift(self):
        # u below the barrier near -inf: the fixed point sticks to the barrier there
        s = np.linspace(-40, 40, 2001)
        u = grid_function_from_callable(lambda t: np.logaddexp(math.log(0.25), math.log(2) + t),
                                        -40, 40, 2001, [(0.0, 1.0)])
        lo = 0.1   # below the left root of the transform: barrier exceeds u somewhere
        barrier = GridConvexFunction(axes=(s,), values=np.maximum(lo * s, s),
                                     recession=((lo, 1.0),))
        with pytest.raises(InfeasibleError) as err:
            constrained_convex_minorant(u, lo, 1.0, barrier=barrier)
        assert err.value.witness is not None

    def test_infeasible_slope_window(self):
        u = logistic_grid()
        with pytest.raises(InputError):
            constrained_convex_minorant(u, 0.5, 0.2)
        with pytest.raises(InfeasibleError):
            constrained_convex_minorant(u, 1.2, 1.5)

    def test_result_is_minorant_and_convex(self, rng):
        u = logistic_grid(0.7, 1.3)
        for lo, hi in ((0.1, 0.9), (0.2, 0.6), (0.0, 0.4)):
            h = constrained_convex_minorant(u, lo, hi)
            assert np.all(h.values <= u.values + 1e-12)
            assert h.check_convex()
            slopes = np.diff(h.values) / (u.axes[0][1] - u.axes[0][0])
            assert slopes.min() >= lo - 1e-9
            assert slopes.max() <= hi + 1e-9


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

ENTROPY_QUARTER = 0.25                       # integral of -(x log x + (1-x)log(1-x))/2
ENTROPY_22 = 0.5 * math.log(2) + 0.25        # shifted by log(2)/2


def entropy(x):
    """``-(x log x + (1 - x) log(1 - x)) / 2``, zero off ``(0, 1)``; batched."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    inner = (x > 0) & (x < 1)
    y = np.where(inner, x, 0.5)
    return np.where(inner, -0.5 * (y * np.log(y) + (1 - y) * np.log(1 - y)), 0.0)


class TestQuadrature:
    def test_zero(self):
        region = Region(base=convex_hull([[0.0], [1.0]]))
        assert integrate_positive_part(lambda x: np.zeros(np.shape(x)), region) == 0.0

    def test_entropy_quarter(self):
        # oracle: closed-form antiderivative of x log x
        closed = -2 * (-0.25) / 2   # int_0^1 -x log x dx = 1/4, both terms symmetric
        assert closed == ENTROPY_QUARTER
        region = Region(base=convex_hull([[0.0], [1.0]]))
        val = integrate_positive_part(entropy, region)
        assert val == pytest.approx(ENTROPY_QUARTER, abs=1e-8)

    def test_entropy_shifted(self):
        f = lambda x: entropy(x) + 0.5 * math.log(2)
        region = Region(base=convex_hull([[0.0], [1.0]]))
        val = integrate_positive_part(f, region)
        assert val == pytest.approx(ENTROPY_22, abs=1e-8)

    def test_empty_region(self):
        region = Region(base=convex_hull([[0.0], [1.0]]),
                        constraints=((np.array([1.0]), -0.5),))
        assert integrate_positive_part(lambda x: np.ones(np.shape(x)), region) == 0.0

    def test_monotone_in_region(self):
        base = convex_hull([[0.0], [1.0]])
        f = lambda x: entropy(x) - 0.05
        cuts = [0.9, 0.7, 0.5, 0.3]
        vals = []
        for c in cuts:
            region = Region(base=base, constraints=((np.array([1.0]), c),))
            vals.append(integrate_positive_part(f, region))
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_2d_entropy(self):
        # closed form: 6 * integral over the simplex = 1.5 log 2 + 1.25 for weights (1,2,4)
        def g(xy):
            xy = np.asarray(xy, dtype=float)
            x1, x2 = xy[..., 0], xy[..., 1]
            total = 0.0
            for v, a in ((1.0 - x1 - x2, 1.0), (x1, 2.0), (x2, 4.0)):
                pos = v > 1e-300
                w = np.where(pos, v, 1.0)
                total = total + np.where(pos, w * np.log(a / w), 0.0)
            return 0.5 * total
        region = Region(base=shifted_simplex([1.0, 0.0, 0.0]))
        val = 6 * integrate_positive_part(g, region)
        assert val == pytest.approx(1.5 * math.log(2) + 1.25, abs=1e-6)

    def test_grid_refinement_stability(self):
        region = Region(base=convex_hull([[0.0], [1.0]]))
        v1 = integrate_positive_part(entropy, region, rel_tol=1e-9)
        v2 = integrate_positive_part(entropy, region, rel_tol=1e-11)
        assert abs(v1 - v2) < 1e-6


# ---------------------------------------------------------------------------
# line search
# ---------------------------------------------------------------------------

class TestGoldenMax:
    def test_concave_quadratic_argmax(self):
        for center in (-3.7, 0.0, 0.3, 12.5):
            x, f = golden_max(lambda t: 2.0 - (t - center) ** 2, -20.0, 20.0)
            # f is flat to rounding within ~sqrt(eps) of the argmax
            assert x == pytest.approx(center, abs=1e-7)
            assert f == pytest.approx(2.0, abs=1e-15)

    def test_array_brackets(self):
        centers = np.array([0.1, -2.0, 5.5, 0.75])
        lo = np.array([-1.0, -3.0, 0.0, 0.5])
        hi = np.array([1.0, 4.0, 9.0, 0.8])
        calls = []

        def fun(t):
            calls.append(np.shape(t))
            return -3.0 * np.abs(t - centers) + centers

        x, f = golden_max(fun, lo, hi)
        assert x.shape == f.shape == (4,)
        assert np.allclose(x, centers, atol=1e-9)
        assert np.allclose(f, centers, atol=1e-8)
        assert set(calls) == {(4,)}
        for k in range(4):   # elementwise: each bracket searched as if alone
            xk, fk = golden_max(lambda t: -3.0 * abs(t - centers[k]) + centers[k],
                                lo[k], hi[k])
            assert (xk, fk) == (x[k], f[k])

    def test_maximum_at_endpoint(self):
        x, f = golden_max(lambda t: -t, 0.0, 1.0)
        assert (x, f) == (0.0, 0.0)
        x, f = golden_max(lambda t: np.sqrt(t), np.array([0.0, 2.0]), np.array([1.0, 3.0]))
        assert x.tolist() == [1.0, 3.0]
        assert f.tolist() == [1.0, math.sqrt(3.0)]

    def test_scalar_bracket_gives_scalars(self):
        x, f = golden_max(lambda t: -(t - 1.0) ** 2, 0.25, 2.0)
        assert np.ndim(x) == 0 and np.ndim(f) == 0
        assert isinstance(x, float) and isinstance(f, float)

    def test_stops_at_xtol(self):
        calls = []

        def fun(t):
            calls.append(float(t))
            return -(t - 0.3) ** 2

        golden_max(fun, 0.0, 1.0, xtol=1e-3)
        # four start evaluations plus one per step until the bracket is < xtol
        assert len(calls) == 4 + math.ceil(math.log(1e-3) / math.log((math.sqrt(5) - 1) / 2))


def _brent_one(fun, a, b, xtol=1e-14):
    """``brent_roots`` on one bracket, with the end values read here."""
    return brent_roots(fun, [(a, b, float(fun(a)), float(fun(b)))], xtol)[0]


def _cubic(c):
    return lambda x: (x - c[0]) * (x - c[1]) * (x - c[2]) + c[3]


def _smooth(c):
    return lambda x: np.sin(3.0 * x + c[0]) + c[1] * x - c[2]


class TestBrentRoots:
    """Each root is scipy's ``brentq`` root bit for bit, compared with ``==``."""

    @pytest.mark.parametrize("family", [_cubic, _smooth])
    def test_random_brackets_equal_brentq(self, family, rng):
        compared = 0
        for _ in range(400):
            f = family(rng.uniform(-1.0, 1.0, 4).tolist())
            a, b = rng.uniform(-2.0, 2.0, 2).tolist()
            xtol = float(rng.choice([1e-14, 1e-13, 2e-12, 1e-6]))
            if (f(a) > 0) == (f(b) > 0):
                continue
            assert _brent_one(f, a, b, xtol) == brentq(f, a, b, xtol=xtol)
            compared += 1
        assert compared > 100

    def test_minus_inf_end_value(self):
        # a concave transform reads -inf outside its body
        def f(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(invalid="ignore"):
                out = np.where(x < 0.0, -np.inf, np.sqrt(np.abs(x)) - 0.3)
            return out if out.ndim else float(out)
        for a, b in ((-0.5, 0.4), (-1e-3, 2.0), (0.9, -0.25)):
            assert _brent_one(f, a, b) == brentq(f, a, b, xtol=1e-14)

    def test_zero_end_value_returns_that_end_without_a_call(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.5

        assert brent_roots(f, [(0.5, 1.0, 0.0, 0.5), (0.0, 0.5, -0.5, 0.0)], 1e-14) == [0.5, 0.5]
        assert brentq(f, 0.5, 1.0) == 0.5 and brentq(f, 0.0, 0.5) == 0.5
        assert brent_roots(f, [(0.5, 1.0, -0.0, 0.5)], 1e-14) == [0.5]
        assert len(calls) == 4          # brentq's own end reads only

    def test_sign_error_and_nan_raise(self):
        f = lambda x: x - 0.5
        with pytest.raises(ValueError, match="different signs"):
            brent_roots(f, [(0.6, 1.0, 0.1, 0.5)], 1e-14)
        with pytest.raises(ValueError, match="different signs"):   # signs, not a product that underflows
            brent_roots(f, [(0.6, 1.0, 1e-200, 1e-200)], 1e-14)
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: 1e-200, 0.6, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            brent_roots(f, [(0.0, 1.0, math.nan, 0.5)], 1e-14)
        with pytest.raises(ValueError, match="NaN"):
            brent_roots(lambda x: np.full(np.shape(x), math.nan), [(0.0, 1.0, -0.5, 0.5)], 1e-14)

    def test_underflowing_steps_keep_ieee_division(self):
        # values near 1e-160 underflow the extrapolation's denominator to 0.0,
        # where C divides to inf or nan and falls back to bisection
        for c in (-0.7, 0.13, 0.55):
            f = lambda x: 1e-160 * ((x - c) ** 3 + 0.1 * (x - c))
            assert _brent_one(f, -1.0, 1.3) == brentq(f, -1.0, 1.3, xtol=1e-14)

    def test_brackets_run_together_equal_single_runs(self):
        f = _cubic([0.2, -1.1, 1.4, 0.05])
        brackets = [(-2.0, -0.5), (-0.5, 0.8), (0.8, 3.0)]
        sizes = []

        def counted(x):
            sizes.append(len(x))
            return f(x)

        both = brent_roots(counted, [(a, b, f(a), f(b)) for a, b in brackets], 1e-14)
        assert both == [_brent_one(f, a, b) for a, b in brackets]
        assert sizes[0] == 3 and sizes == sorted(sizes, reverse=True)
        rounds = [brentq(f, a, b, xtol=1e-14, full_output=True)[1].iterations for a, b in brackets]
        assert len(sizes) == max(rounds) - 1
        assert brent_roots(counted, [], 1e-14) == []

    def test_slice_support_reads_probes_once_and_both_ends_together(self):
        # a 2-d canonical slice whose positive part ends inside the slice on both sides
        transform = concave_transform(canonical_divisor([1, 2, 4], twist=-1.8))
        x1, lo, hi, probes = 0.3, 0.0, 0.7, 129
        calls = []

        def g(y):
            calls.append(len(y))
            return transform(np.column_stack([np.full(len(y), x1), y]))

        a, b = convexcore._positive_support(g, lo, hi, probes)
        scalar = lambda y: float(transform((x1, y)))
        xs = np.linspace(lo, hi, probes)
        k_a, k_b = np.searchsorted(xs, a), np.searchsorted(xs, b)
        runs = [brentq(scalar, xs[k - 1], xs[k], xtol=1e-14, full_output=True) for k in (k_a, k_b)]
        assert lo < a < b < hi
        assert (a, b) == (runs[0][0], runs[1][0])
        assert calls[0] == probes
        assert len(calls) <= 2 + max(r.iterations for _, r in runs)


# ---------------------------------------------------------------------------
# slice predicate
# ---------------------------------------------------------------------------

class TestSlicedInterior:
    def test_unit_square(self):
        sq = convex_hull([[0, 0], [1, 0], [0, 1], [1, 1]])
        assert sliced_interior_nonempty(sq, 0.5)
        assert not sliced_interior_nonempty(sq, 0.0)

    def test_random_polytopes_match_direct_search(self, rng):
        hits = 0
        for _ in range(100):
            p = random_full_dim_polytope(rng, int(rng.integers(2, 4)))
            xmin = p.vertices[:, 0].min()
            xmax = p.vertices[:, 0].max()
            a = float(rng.uniform(xmin, xmax)) if rng.uniform() < 0.8 else float(xmin - 0.1)
            got, witness = sliced_interior_witness(p, a)
            _, cheb_r = p.interior_point()
            expected = (cheb_r > 1e-9) and (xmin < a - 1e-12)
            assert got == expected
            if got:
                hits += 1
                assert witness is not None
                assert p.contains(witness)
                assert witness[0] < a
        assert hits > 50

    def test_nonempty_slices_have_interior(self, rng):
        # nonempty slices of full-dimensional bodies always have interior
        for _ in range(100):
            p = random_full_dim_polytope(rng, 2)
            xmin = p.vertices[:, 0].min()
            xmax = p.vertices[:, 0].max()
            a = float(rng.uniform(xmin + 1e-6, xmax))
            ok, witness = sliced_interior_witness(p, a)
            assert ok and witness is not None

"""Arithmetic divisors: norms, transform, volumes, filtration, multiplicity."""

import math
import os

import numpy as np
import pytest
from scipy.optimize import brentq

from arithvol import convexcore, divisor, oracle
from arithvol.convexcore import (GridConvexFunction, grid_function_from_callable,
                                 shifted_simplex)
from arithvol.divisor import (BaseCondition, CanonicalFamily, SampledConvex,
                              add_divisors, canonical_divisor,
                              concave_transform, divisor_from_record,
                              divisor_record, filtration_summary, is_big,
                              is_effective, make_divisor,
                              mu_monotone_continuity_profile, mu_R,
                              log_sup_norm_monomial, principal_twist,
                              profile_lipschitz, multiplicity_law_suite,
                              sampled_from_divisor, scale_divisor,
                              sup_norm_monomial, positive_region, vol_hat,
                              vol_hat_base, with_twist)
from arithvol.errors import (BignessRequiredError, InputError, OutOfRangeError,
                             RecessionError, UnsupportedCenterError)

LOG2 = math.log(2)
VOL_22 = LOG2 + 0.5
VOL_BASE_22_HALF = 0.5 * LOG2 + 0.25
VOL_124 = 1.5 * LOG2 + 1.25          # closed-form simplex integral, weights (1,2,4)


def entropy_transform(a0, a1, lam=0.0):
    def g(x):
        total = lam
        if x > 0:
            total += x * math.log(a1 / x)
        if x < 1:
            total += (1 - x) * math.log(a0 / (1 - x))
        return 0.5 * total if x in (0.0, 1.0) else 0.5 * (total - lam) + lam / 2
    return lambda x: 0.5 * ((x * math.log(a1 / x) if x > 0 else 0.0)
                            + ((1 - x) * math.log(a0 / (1 - x)) if x < 1 else 0.0)) + lam / 2


X_MINUS_QTR2 = brentq(entropy_transform(0.25, 2.0), 1e-12, 0.8, xtol=1e-15)  # ~0.354106


class TestMakeDivisor:
    def test_valid_effective(self):
        dv = canonical_divisor([1, 1])
        assert is_effective(dv)

    def test_negative_log_a0_not_effective(self):
        assert not is_effective(canonical_divisor([0.25, 2]))

    def test_twisted_not_effective(self):
        dv = canonical_divisor([1, 1, 1], twist=-1.0)
        assert not is_effective(dv)

    def test_nonpositive_params(self):
        with pytest.raises(InputError):
            CanonicalFamily(a=(0.0, 1.0))

    def test_coefficient_mismatch(self):
        with pytest.raises(RecessionError):
            make_divisor(1, [2.0, 0.0], CanonicalFamily(a=(1.0, 1.0)))

    def test_sampled_requires_convexity(self):
        s = np.linspace(-40, 40, 501)
        u = GridConvexFunction(axes=(s,), values=-s ** 2, recession=((0.0, 1.0),))
        with pytest.raises(InputError):
            make_divisor(1, [1.0, 0.0], SampledConvex(u))

    def test_sampled_recession_mismatch(self):
        u = grid_function_from_callable(lambda t: np.logaddexp(0, t), -40, 40, 501,
                                        [(0.0, 0.7)])
        with pytest.raises(RecessionError):
            make_divisor(1, [1.0, 0.0], SampledConvex(u))

    def test_sampled_valid(self):
        u = grid_function_from_callable(lambda t: np.logaddexp(math.log(2), math.log(2) + t),
                                        -40, 40, 2001, [(0.0, 1.0)])
        dv = make_divisor(1, [1.0, 0.0], SampledConvex(u))
        assert is_effective(dv)

    @pytest.mark.parametrize("coeffs, potential, twist", [
        ([1.0, 0.0], CanonicalFamily(a=(2.0, 2.0)), math.inf),
        ([1.0, 0.0], CanonicalFamily(a=(2.0, 2.0)), math.nan),
        ([1.0, math.nan], CanonicalFamily(a=(2.0, 2.0)), 0.0),
        ([1.0, 0.0], CanonicalFamily(a=(math.inf, 2.0)), 0.0),
        ([1.0, 0.0], CanonicalFamily(a=(math.nan, 2.0)), 0.0),
        ([math.inf, 0.0], CanonicalFamily(a=(2.0, 2.0), scale=math.inf), 0.0),
        ([1.0, 0.0], CanonicalFamily(a=(2.0, 2.0), shift=(math.nan,)), 0.0),
    ], ids=["inf-twist", "nan-twist", "nan-coeff", "inf-a", "nan-a", "inf-scale", "nan-shift"])
    def test_non_finite_numbers(self, coeffs, potential, twist):
        with pytest.raises(InputError, match="finite"):
            make_divisor(1, coeffs, potential, twist)

    def test_non_finite_sum_part(self):
        parts = (CanonicalFamily(a=(2.0, 2.0)), CanonicalFamily(a=(2.0, math.inf)))
        with pytest.raises(InputError, match="finite"):
            make_divisor(1, [2.0, 0.0], divisor.SumPotential(parts=parts))

    def test_non_finite_sample(self):
        u = grid_function_from_callable(lambda t: np.logaddexp(0.0, t), -40, 40, 501,
                                        [(0.0, 1.0)])
        values = u.values.copy()
        values[250] = math.inf
        bad = GridConvexFunction(axes=u.axes, values=values, recession=u.recession)
        with pytest.raises(InputError, match="finite"):
            make_divisor(1, [1.0, 0.0], SampledConvex(bad))

    @pytest.mark.parametrize("shape", [(2,), (2, 5), (5, 2), (2, 2)])
    def test_sampled_grid_needs_three_nodes_per_axis(self, shape):
        # a 2-node axis has no second difference, so convexity is unchecked there
        axes = tuple(np.linspace(-40.0, 40.0, k) for k in shape)
        grids = np.meshgrid(*axes, indexing="ij")
        values = 40.0 + np.abs(sum(grids)) / 2.0
        rec = ((0.0, 1.0),) * len(shape)
        u = GridConvexFunction(axes=axes, values=values, recession=rec)
        with pytest.raises(InputError, match="3 nodes"):
            make_divisor(len(shape), [1.0] + [0.0] * len(shape), SampledConvex(u))


def _count_calls(monkeypatch, module, name):
    """Record each call of ``module.name`` (the list grows by one per call)."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _sampled(a, twist=0.0, **grid):
    dv = canonical_divisor(a)
    return make_divisor(dv.d, dv.coeffs, SampledConvex(sampled_from_divisor(dv, **grid)), twist)


class TestBuildOnce:
    """Each divisor builds its body once; each sampled potential conjugates once per body."""

    def test_body_is_kept(self):
        dv = canonical_divisor([1, 2, 4])
        assert dv.body is dv.body
        assert concave_transform(dv).domain is dv.body

    def test_oracle_count_conjugates_once(self, monkeypatch):
        dv = _sampled([1.2, 0.9], twist=0.1, n=501)
        conj = _count_calls(monkeypatch, divisor, "legendre_conjugate")
        hulls = _count_calls(monkeypatch, convexcore, "convex_hull")
        oracle.log_count(dv, 8)
        assert len(conj) == 1
        assert len(hulls) == 1

    def test_twist_profile_conjugates_once(self, monkeypatch):
        dv = _sampled([0.25, 2], n=2001)
        conj = _count_calls(monkeypatch, divisor, "legendre_conjugate")
        profile = mu_monotone_continuity_profile(dv, [0.0, 0.1, 0.2],
                                                 BaseCondition("hyperplane", 1, 0.0))
        assert len(profile) == 3
        assert len(conj) == 1

    def test_d2_mu_conjugates_once(self, monkeypatch):
        dv = _sampled([1, 2, 4], s_range=10.0, n=65)
        conj = _count_calls(monkeypatch, divisor, "legendre_conjugate")
        mu_R(dv, BaseCondition("hyperplane", 1, 0.0))
        assert len(conj) == 1

    def test_d2_mu_builds_only_the_transforms_it_reads(self, monkeypatch):
        # one for is_big, one for positive_region; none for the 1-d branch
        dv = _sampled([1, 2, 4], s_range=10.0, n=65)
        built = _count_calls(monkeypatch, divisor, "concave_transform")
        mu_R(dv, BaseCondition("hyperplane", 1, 0.0))
        assert len(built) == 2

    @pytest.mark.parametrize("a", [[0.25, 2], [1, 2, 4]])
    def test_closed_forms_build_no_hull(self, monkeypatch, a):
        dv = canonical_divisor(a)
        hulls = _count_calls(monkeypatch, convexcore, "convex_hull")
        assert is_big(dv)
        mu_R(dv, BaseCondition("hyperplane", 1, 0.0))
        log_sup_norm_monomial(dv, 5, (1,) * dv.d)
        assert hulls == []

    def test_twisted_sampled_values_match_fresh_conjugate(self):
        dv = _sampled([0.25, 2], n=2001)
        concave_transform(dv)                       # conjugates and keeps -u*/2
        lam = 0.37
        twisted = concave_transform(with_twist(dv, lam))
        fresh = convexcore.legendre_conjugate(dv.potential.u, shifted_simplex(dv.coeffs),
                                              resolution=2001, refine=True)
        assert np.array_equal(twisted.grid_values, -0.5 * fresh.values + lam / 2.0)
        assert np.array_equal(twisted.grid_axes[0], fresh.axes[0])


def _one_point_reads(transform, pts):
    """Each point read on its own: a transform call, or on sampled d=2 a one-point lattice read."""
    d = transform.divisor.d
    if d == 2 and not transform.closed_form:
        return [transform.lattice_values(p[None, :])[0] for p in pts]
    return [float(transform(p if d > 1 else p[0])) for p in pts]


LATTICE_DIVISORS = {
    "canonical-d1": lambda: canonical_divisor([0.4, 1.7]),
    "canonical-d1-scaled": lambda: scale_divisor(canonical_divisor([0.4, 1.7]), 1.3),
    "canonical-d1-shifted-twisted": lambda: principal_twist(
        canonical_divisor([0.4, 1.7], twist=0.3), [0.6]),
    "canonical-d2": lambda: canonical_divisor([1, 2, 4]),
    "canonical-d2-scaled-shifted-twisted": lambda: principal_twist(
        scale_divisor(canonical_divisor([0.3, 0.7, 1.1], twist=-0.2), 0.9), [0.25, -0.5]),
    "sum-d1": lambda: add_divisors(canonical_divisor([0.5, 1.5]),
                                   canonical_divisor([2, 0.3], twist=0.1)),
    "sampled-d1": lambda: _sampled([1.2, 0.9], twist=0.1, n=501),
    "sampled-d2": lambda: _sampled([1, 2, 4], twist=0.3, s_range=10.0, n=65),
}


class TestBatchedLatticeReads:
    """One batched lattice read equals one-point reads exactly, not within a tolerance."""

    @pytest.mark.parametrize("name", sorted(LATTICE_DIVISORS))
    def test_batch_equals_one_point_reads(self, name):
        dv = LATTICE_DIVISORS[name]()
        transform = concave_transform(dv)
        n = 7
        ms = divisor.admissible_monomials(dv, n)
        pts = ms / n
        got = transform.lattice_values(pts)
        assert got == _one_point_reads(transform, pts)
        assert all(isinstance(v, float) for v in got)
        assert transform.lattice_values(pts[:1]) == got[:1]                    # N = 1
        assert transform.lattice_values(np.empty((0, dv.d))) == []            # N = 0

    @pytest.mark.parametrize("name", ["canonical-d1", "canonical-d2", "sampled-d1"])
    def test_body_boundary_points(self, name):
        # the body's vertices, where the canonical form reads 0 log 0
        dv = LATTICE_DIVISORS[name]()
        transform = concave_transform(dv)
        pts = np.asarray(dv.body.vertices, dtype=float)
        got = transform.lattice_values(pts)
        assert got == _one_point_reads(transform, pts)
        assert np.all(np.isfinite(got))
        if transform.closed_form:
            a = np.asarray(dv.potential.a)
            assert sorted(got) == pytest.approx(sorted(0.5 * np.log(a)), abs=1e-15)

    def test_admissible_monomials_lexicographic(self):
        dv = principal_twist(canonical_divisor([1, 2, 4]), [0.5, -0.25])
        n = 6
        ms = divisor.admissible_monomials(dv, n)
        rows = [tuple(m) for m in ms.tolist()]
        assert ms.dtype.kind == "i" and ms.shape == (len(rows), 2)
        assert rows == sorted(rows)
        c = dv.coeffs
        assert all(m1 >= -n * c[1] - 1e-9 and m2 >= -n * c[2] - 1e-9
                   and m1 + m2 <= n * c[0] + 1e-9 for m1, m2 in rows)
        assert len(rows) == len(filtration_summary(dv, n).t_values)

    def test_filtration_summary_reads_one_batch(self, monkeypatch):
        dv = canonical_divisor([1, 2, 4])
        calls = _count_calls(monkeypatch, divisor.ConcaveTransform, "values_on")
        summary = filtration_summary(dv, 12)
        assert len(calls) == 1
        assert len(summary.t_values) == 91


class TestSupNorm:
    def test_canonical_11(self):
        dv = canonical_divisor([1, 1])
        assert sup_norm_monomial(dv, 2, [1]) ** 2 == pytest.approx(0.25, rel=1e-12)

    def test_constant_section(self):
        dv = canonical_divisor([2, 2])
        for n in (1, 3, 7):
            assert sup_norm_monomial(dv, n, [0]) ** 2 == pytest.approx(2.0 ** -n, rel=1e-12)

    def test_d2_closed_form(self):
        dv = canonical_divisor([1, 2, 4])
        assert sup_norm_monomial(dv, 3, (1, 1)) ** 2 == pytest.approx(1 / 216, rel=1e-12)

    def test_out_of_range(self):
        dv = canonical_divisor([1, 1])
        with pytest.raises(OutOfRangeError):
            sup_norm_monomial(dv, 2, [3])
        with pytest.raises(OutOfRangeError):
            sup_norm_monomial(dv, 2, [-1])

    def test_integral_section_criterion(self):
        # c z^m integral iff |c| <= 1 / norm
        dv = canonical_divisor([1, 1])
        norm = sup_norm_monomial(dv, 2, [1])
        assert 2 * norm <= 1.0 + 1e-12
        assert 3 * norm > 1.0


class TestConcaveTransform:
    def test_vertex_value(self):
        dv = canonical_divisor([1, 2, 4], twist=0.4)
        t = concave_transform(dv)
        assert t((1.0, 0.0)) == pytest.approx(0.5 * math.log(2) + 0.2, abs=1e-12)
        assert t((0.0, 1.0)) == pytest.approx(0.5 * math.log(4) + 0.2, abs=1e-12)

    def test_interior_value_vs_conjugate_oracle(self):
        # oracle: grid Legendre conjugation of the sampled potential
        dv = canonical_divisor([1, 1])
        u = grid_function_from_callable(lambda t: np.logaddexp(0, t), -40, 40, 2001,
                                        [(0.0, 1.0)])
        sampled = make_divisor(1, [1.0, 0.0], SampledConvex(u))
        t_closed = concave_transform(dv)
        t_grid = concave_transform(sampled)
        assert t_closed(0.5) == pytest.approx(0.5 * LOG2, abs=1e-12)
        for x in (0.1, 0.25, 0.5, 0.8):
            assert t_grid(x) == pytest.approx(t_closed(x), abs=1e-6)

    def test_argmax_and_max(self):
        dv = canonical_divisor([0.5, 1.5, 3.0], twist=0.3)
        t = concave_transform(dv)
        a = np.array([0.5, 1.5, 3.0])
        x_star = a[1:] / a.sum()
        assert t(tuple(x_star)) == pytest.approx(t.max_value(), abs=1e-12)
        assert t.max_value() == pytest.approx(0.5 * math.log(a.sum()) + 0.15, abs=1e-12)

    def test_concavity_on_grid(self):
        dv = canonical_divisor([0.7, 2.2])
        t = concave_transform(dv)
        xs = np.linspace(0, 1, 401)
        vals = np.array([t(float(x)) for x in xs])
        assert np.all(vals[:-2] + vals[2:] - 2 * vals[1:-1] <= 1e-9)

    def test_twist_identity_exact(self):
        dv = canonical_divisor([2, 2])
        t0 = concave_transform(dv)
        t1 = concave_transform(with_twist(dv, 0.37))
        for x in (0.0, 0.21, 0.5, 0.93, 1.0):
            assert t1(x) == t0(x) + 0.37 / 2

    def test_grid_nodes_match_closed_form_1d(self):
        # at the default 1-d resolution the conjugation path reproduces the
        # closed form at its own grid nodes to 1e-6
        u = grid_function_from_callable(
            lambda t: np.logaddexp(math.log(2), math.log(2) + t), -40, 40, 2001,
            [(0.0, 1.0)])
        sampled = make_divisor(1, [1.0, 0.0], SampledConvex(u))
        t_grid = concave_transform(sampled)
        t_closed = concave_transform(canonical_divisor([2, 2]))
        xs = t_grid.grid_axes[0]
        err = np.abs(t_grid.grid_values - t_closed.values_on(xs))
        assert float(err.max()) < 1e-6

    def test_grid_nodes_match_closed_form_2d(self):
        # the default 257^2 surface grid has step 0.31 in s, which caps the
        # conjugation accuracy near 2e-4; the volume path is unaffected
        # because the acceptance computations use the closed form
        def u2(s1, s2):
            return np.logaddexp(np.logaddexp(0.0, math.log(2) + s1),
                                math.log(4) + s2)
        u = grid_function_from_callable(u2, [-40, -40], [40, 40], [257, 257],
                                        [(0.0, 1.0), (0.0, 1.0)])
        sampled = make_divisor(2, [1.0, 0.0, 0.0], SampledConvex(u))
        t_grid = concave_transform(sampled)
        t_closed = concave_transform(canonical_divisor([1, 2, 4]))
        x1, x2 = t_grid.grid_axes
        g1, g2 = np.meshgrid(x1, x2, indexing="ij")
        pts = np.stack([g1.ravel(), g2.ravel()], axis=-1)
        inside = pts.sum(axis=1) <= 1.0 - 1e-9
        err = np.abs(t_grid.grid_values.ravel()[inside] - t_closed(pts[inside]))
        assert float(err.max()) < 5e-4

    def test_sampled_volume_stable_under_refinement(self):
        vols = []
        for n in (2001, 4001):
            u = grid_function_from_callable(
                lambda t: np.logaddexp(math.log(2), math.log(2) + t), -40, 40, n,
                [(0.0, 1.0)])
            vols.append(vol_hat(make_divisor(1, [1.0, 0.0], SampledConvex(u))))
        assert abs(vols[0] - vols[1]) < 1e-6


def _xlog_old(t, a):
    """The former per-coordinate kernel: ``t log(a / t)``, ``0 log 0 := 0``, ``-inf`` below -1e-9."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    out[pos] = t[pos] * (np.log(a) - np.log(t[pos]))
    out[t < -1e-9] = -np.inf
    return out


def _canonical_old(pot, lam, pts):
    """The former canonical transform, one ``_xlog_old`` per coordinate, summed from ``y_0``."""
    y = (pts + np.asarray(pot.shift)) / pot.scale
    total = _xlog_old(1.0 - y.sum(axis=-1), pot.a[0])
    for i in range(1, len(pot.a)):
        total = total + _xlog_old(y[..., i - 1], pot.a[i])
    return pot.scale * (0.5 * total) + lam / 2.0


def _body_points(d, rng):
    """Normalized points ``y`` (rows of ``y_1..y_d``) inside and on the simplex, then 40 outside."""
    inside = rng.dirichlet(np.ones(d + 1), size=40)
    vertices = np.eye(d + 1)
    edge = np.eye(d + 1) * (1.0 + np.linspace(1e-10, 9e-10, d + 1))
    edge[:, 0] = 1.0 - edge[:, 1:].sum(axis=1)    # y_0 in (-1e-9, 0] off the first vertex
    near = inside.copy()
    near[:, 1] = -rng.uniform(0.0, 1e-9, len(near))
    near[:, 0] = 1.0 - near[:, 1:].sum(axis=1)
    outside = inside.copy()
    outside[:, -1] = -rng.uniform(1e-8, 0.5, len(outside))
    return np.vstack([inside, vertices, edge, near, outside])[:, 1:]


class TestCanonicalKernel:
    """The one-pass canonical kernel equals the former per-coordinate formula with ``==``."""

    @pytest.mark.parametrize("a", [[2.0, 3.0], [1.0, 2.0, 4.0], [0.3, 1.7, 0.9, 2.2],
                                   [0.3, 1.7, 0.9, 2.2, 1.1, 0.6, 1.4, 0.8, 2.0]])
    def test_equals_per_coordinate_formula(self, a, rng):
        # d = 8 has 9 terms, where numpy's pairwise sum would leave the left-to-right order
        d = len(a) - 1
        y = _body_points(d, rng)
        base = canonical_divisor(a, twist=0.37)
        for dv in (base, scale_divisor(base, 2.5),
                   principal_twist(base, ([0.25, -0.5, 0.125, 0.0] * 2)[:d])):
            pot = dv.potential
            pts = y * pot.scale - np.asarray(pot.shift)
            got = concave_transform(dv).values_on(pts)
            ref = _canonical_old(pot, dv.twist, pts)
            assert np.array_equal(got, ref)
            assert np.isfinite(got[:-40]).all() and np.isneginf(got[-40:]).all()
            assert [concave_transform(dv).values_on(p)[0] for p in pts] == got.tolist()


def _positive_interval_old(transform, tol=1e-13):
    """The former 1-d support search: scalar reads and one ``brentq`` per end."""
    lo = float(transform.domain.vertices[:, 0].min())
    hi = float(transform.domain.vertices[:, 0].max())
    f = lambda x: float(transform(x))
    x_star = float(np.clip(transform.argmax()[0], lo, hi))
    f_star = f(x_star)
    if f_star <= 0.0:
        return (x_star, x_star) if f_star == 0.0 else None
    left = lo if f(lo) >= 0.0 else brentq(f, lo, x_star, xtol=tol)
    right = hi if f(hi) >= 0.0 else brentq(f, x_star, hi, xtol=tol)
    return (left, right)


@pytest.mark.parametrize("make", [
    lambda: canonical_divisor([2.0, 3.0], twist=-1.2),
    lambda: canonical_divisor([0.5, 1.5], twist=0.4),
    lambda: scale_divisor(canonical_divisor([1.0, 0.2], twist=-0.1), 3.0),
    lambda: add_divisors(canonical_divisor([0.5, 1.5]), canonical_divisor([2.0, 0.3], twist=-2.0)),
    lambda: _sampled([2.0, 3.0], twist=-1.0, n=501),
    lambda: canonical_divisor([0.25, 0.25]),
])
def test_positive_interval_1d_equals_scalar_brentq(make):
    transform = concave_transform(make())
    assert divisor._positive_interval_1d(transform) == _positive_interval_old(transform)


class TestThetaRegion:
    def test_full_interval(self):
        region = positive_region(canonical_divisor([2, 2]))
        lo, hi = region.interval()
        assert lo == pytest.approx(0.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)

    def test_empty(self):
        region = positive_region(canonical_divisor([0.25, 0.25]))
        assert region.is_empty()

    def test_qtr2_interval_matches_bisection_oracle(self):
        # left endpoint is the root of the transform; the right endpoint is 1
        # because the transform at x=1 equals log(2)/2 > 0
        region = positive_region(canonical_divisor([0.25, 2]))
        lo, hi = region.interval()
        assert lo == pytest.approx(X_MINUS_QTR2, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_convexity_superlevel_2d(self):
        region = positive_region(canonical_divisor([0.3, 1.4, 0.4]))
        pts = np.array([[0.4, 0.1], [0.6, 0.2], [0.5, 0.15]])
        inside = region.contains(pts)
        if inside[0] and inside[1]:
            assert inside[2]


class TestVolHat:
    def test_entropy_values(self):
        assert vol_hat(canonical_divisor([1, 1])) == pytest.approx(0.5, abs=1e-6)
        assert vol_hat(canonical_divisor([2, 2])) == pytest.approx(VOL_22, abs=1e-6)
        assert vol_hat(canonical_divisor([0.25, 0.25])) == 0.0

    def test_d2_closed_form(self):
        assert vol_hat(canonical_divisor([1, 2, 4])) == pytest.approx(VOL_124, abs=1e-6)

    def test_bigness_boundary(self):
        for a0 in (0.3, 0.5, 0.9):
            assert vol_hat(canonical_divisor([a0, 1.0 - a0 - 1e-4])) == 0.0
            assert vol_hat(canonical_divisor([a0, 1.0 - a0 + 1e-2])) > 0.0

    def test_twisted_bigness(self):
        dv = canonical_divisor([0.25, 0.25], twist=LOG2 + 0.1)
        assert vol_hat(dv) > 0
        assert is_big(dv)
        assert not is_big(canonical_divisor([0.25, 0.25], twist=LOG2 - 1e-6))


class TestVolHatBase:
    def test_zero_conditions_match(self):
        dv = canonical_divisor([2, 2])
        conds = [BaseCondition("hyperplane", 1, 0.0), BaseCondition("fiber", 3, 0.0)]
        assert vol_hat_base(dv, conds) == pytest.approx(vol_hat(dv), abs=1e-9)

    def test_half_bound_at_origin(self):
        dv = canonical_divisor([2, 2])
        val = vol_hat_base(dv, [BaseCondition("hyperplane", 1, 0.5)])
        assert val == pytest.approx(VOL_BASE_22_HALF, abs=1e-6)

    def test_vertical_condition(self):
        dv = canonical_divisor([2, 2])
        val = vol_hat_base(dv, [BaseCondition("fiber", 2, 0.5)])
        assert val == pytest.approx(0.5, abs=1e-6)   # the weights-(1,1) entropy volume

    def test_excessive_bound_empty(self):
        dv = canonical_divisor([2, 2])
        assert vol_hat_base(dv, [BaseCondition("hyperplane", 1, 1.5)]) == 0.0

    def test_monotone_in_bound(self):
        dv = canonical_divisor([2, 2])
        vals = [vol_hat_base(dv, [BaseCondition("hyperplane", 1, mu)])
                for mu in (0.0, 0.2, 0.4, 0.6, 0.8)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(vol_hat(dv), abs=1e-9)

    def test_point_condition_d2(self):
        dv = canonical_divisor([1, 2, 4])
        v0 = vol_hat_base(dv, [BaseCondition("point", 0, 0.3)])
        assert 0 < v0 < vol_hat(dv)

    def test_strict_drop_above_mu(self):
        # any bound above the asymptotic multiplicity drops the volume by more
        # than quadrature tolerance
        for a in ([2, 2], [0.25, 2], [0.6, 0.9]):
            dv = canonical_divisor(a)
            mu0 = mu_R(dv, BaseCondition("hyperplane", 1, 0.0))
            drop = vol_hat(dv) - vol_hat_base(dv, [BaseCondition("hyperplane", 1, mu0 + 0.1)])
            assert drop > 10 * 1e-6

    def test_invalid_condition(self):
        with pytest.raises(InputError):
            BaseCondition("hyperplane", 1, -0.5)
        with pytest.raises(InputError):
            BaseCondition("fiber", 4, 0.5)
        with pytest.raises(UnsupportedCenterError):
            BaseCondition("curve", 1, 0.5)


class TestFiltration:
    def test_level_one_22(self):
        summary = filtration_summary(canonical_divisor([2, 2]), 1)
        assert summary.e_min == pytest.approx(0.5 * LOG2, abs=1e-12)
        assert summary.e_max == pytest.approx(0.5 * LOG2, abs=1e-12)

    def test_level_two_11(self):
        summary = filtration_summary(canonical_divisor([1, 1]), 2)
        assert summary.e_min == pytest.approx(0.0, abs=1e-12)
        assert summary.e_max == pytest.approx(LOG2, abs=1e-12)
        assert summary.t_values[(1,)] == pytest.approx(LOG2, abs=1e-12)

    def test_normalized_emax_approaches_max(self):
        dv = canonical_divisor([2, 2])
        t = concave_transform(dv)
        summary = filtration_summary(dv, 100)
        assert abs(summary.e_max / 100 - t.max_value()) < 0.05

    def test_growth_constant_bounds_emax(self):
        dv = canonical_divisor([0.5, 3.0], twist=0.2)
        c = filtration_summary(dv, 1).growth_constant
        for n in (1, 5, 20, 60):
            assert filtration_summary(dv, n).e_max <= c * n + 1e-9

    def test_sampled_d2_levels_are_pointwise_conjugates(self):
        # at nodes of the transform grid the lattice read is the grid value itself
        dv = _sampled([1, 2, 4], twist=0.3, s_range=10.0, n=65)
        transform = concave_transform(dv)
        ax1, ax2 = transform.grid_axes
        nodes = np.array([[ax1[i], ax2[k]] for i in (3, 10, 40) for k in (0, 5, 20)])
        want = [transform.grid_values[i, k] for i in (3, 10, 40) for k in (0, 5, 20)]
        assert transform.lattice_values(nodes) == want
        n, m = 8, (3, 2)
        assert log_sup_norm_monomial(dv, n, m) == -n * transform.lattice_values(
            np.array([m]) / n)[0]
        assert filtration_summary(dv, n).t_values[m] == -log_sup_norm_monomial(dv, n, m)


# sampled d=2 e-range requests of the benchmark that missed its 1e-3 contract
# when the transform's bilinear grid was read at the lattice points
E_RANGE_D2_MISSES = [
    "sampled_grid-s6-b2-24", "sampled_grid-s8-b4-29", "sampled_grid-s10-b1-54",
    "sampled_grid-s10-b1-57", "sampled_grid-s11-b4-50", "sampled_grid-s24-b2-18",
    "sampled_grid-s32-b1-56", "sampled_grid-s32-b2-62", "sampled_grid-s35-b2-16",
    "sampled_grid-s36-b0-45", "sampled_grid-s38-b5-80"]


@pytest.mark.parametrize("rid", E_RANGE_D2_MISSES)
def test_sampled_d2_e_range_within_contract(rid, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench"))
    import checks
    import workloads
    _, seed, index, k = rid.split("-")
    req = workloads.block("sampled_grid", int(seed[1:]), int(index[1:]))[int(k)]
    assert req.id == rid and req.cls.startswith("e-range.sampled.d2")
    n = int(req.flags[req.flags.index("--level") + 1])
    summary = filtration_summary(divisor_from_record(req.record), n)
    # the closed form of the canonical source, per unit level
    t = checks.closed_form_levels(req.source, n, checks.admissible(req.source, n))
    assert abs(summary.e_min - t.min()) / n <= checks.TOL_SAMPLED
    assert abs(summary.e_max - t.max()) / n <= checks.TOL_SAMPLED


class TestMuR:
    def test_nef_and_big_all_centers_zero(self):
        for a in ([1, 1], [2, 2], [1, 1, 1], [1.5, 2.0, 1.0]):
            dv = canonical_divisor(a)
            d = dv.d
            centers = [BaseCondition("hyperplane", i, 0.0) for i in range(d + 1)]
            centers += [BaseCondition("point", j, 0.0) for j in range(d + 1)]
            centers += [BaseCondition("fiber", 2, 0.0)]
            for c in centers:
                assert mu_R(dv, c) == 0.0

    def test_qtr2_left_root(self):
        dv = canonical_divisor([0.25, 2])
        assert mu_R(dv, BaseCondition("hyperplane", 1, 0.0)) == pytest.approx(
            X_MINUS_QTR2, abs=1e-9)
        assert mu_R(dv, BaseCondition("hyperplane", 0, 0.0)) == 0.0

    def test_twisted_nef_stays_zero(self):
        for lam in (0.0, 0.3, 1.0):
            dv = canonical_divisor([2, 2], twist=lam)
            assert mu_R(dv, BaseCondition("hyperplane", 1, 0.0)) == 0.0
            assert mu_R(dv, BaseCondition("hyperplane", 0, 0.0)) == 0.0

    def test_vertical_zero(self):
        assert mu_R(canonical_divisor([0.25, 2]), BaseCondition("fiber", 5, 0.0)) == 0.0

    def test_non_big_raises(self):
        with pytest.raises(BignessRequiredError):
            mu_R(canonical_divisor([0.25, 0.25]), BaseCondition("hyperplane", 1, 0.0))

    def test_d2_hyperplane_and_point(self):
        dv = canonical_divisor([0.25, 2, 0.25])
        # face maximum along x1 = t has the two-group entropy closed form;
        # cross-check against a dense grid scan of the transform
        t = concave_transform(dv)
        xs = np.linspace(0, 1, 701)
        best = {}
        for center_name in ("h1", "p0"):
            best[center_name] = math.inf
        for x1 in xs:
            for x2 in np.linspace(0, 1 - x1, max(2, int(701 * (1 - x1)))):
                if t((float(x1), float(x2))) >= 0:
                    best["h1"] = min(best["h1"], x1)
                    best["p0"] = min(best["p0"], x1 + x2)
        mu_h1 = mu_R(dv, BaseCondition("hyperplane", 1, 0.0))
        mu_p0 = mu_R(dv, BaseCondition("point", 0, 0.0))
        assert mu_h1 == pytest.approx(best["h1"], abs=3e-3)
        assert mu_p0 == pytest.approx(best["p0"], abs=3e-3)

    def test_sampled_path_matches_closed_form(self):
        u = grid_function_from_callable(
            lambda t: np.logaddexp(math.log(0.25), math.log(2) + t), -40, 40, 2001,
            [(0.0, 1.0)])
        sampled = make_divisor(1, [1.0, 0.0], SampledConvex(u))
        got = mu_R(sampled, BaseCondition("hyperplane", 1, 0.0))
        assert got == pytest.approx(X_MINUS_QTR2, abs=1e-5)


class TestMuProfile:
    def test_identically_zero(self):
        dv = canonical_divisor([2, 2])
        profile = mu_monotone_continuity_profile(dv, np.linspace(0, 1, 11),
                                                 BaseCondition("hyperplane", 1, 0.0))
        assert all(m == 0.0 for _, m in profile)

    def test_decreasing_until_zero(self):
        dv = canonical_divisor([0.25, 2])
        lam_grid = np.linspace(0.0, 1.6, 33)
        profile = mu_monotone_continuity_profile(dv, lam_grid,
                                                 BaseCondition("hyperplane", 1, 0.0))
        mus = [m for _, m in profile]
        assert all(a >= b - 1e-12 for a, b in zip(mus, mus[1:]))
        # strictly decreasing while positive
        positive = [m for m in mus if m > 1e-12]
        assert all(a > b for a, b in zip(positive, positive[1:]))
        # zero once the twist clears the left endpoint: lam >= log 4
        for lam, m in profile:
            if lam >= math.log(4.0) + 1e-9:
                assert m == 0.0
        lip = profile_lipschitz(profile)
        assert math.isfinite(lip) and lip > 0
        h = lam_grid[1] - lam_grid[0]
        assert all(abs(m1 - m0) <= lip * h + 1e-12
                   for (_, m0), (_, m1) in zip(profile, profile[1:]))

    def test_leaves_big_cone(self):
        dv = canonical_divisor([0.25, 2])
        with pytest.raises(BignessRequiredError):
            mu_monotone_continuity_profile(dv, [-2.0, 0.0],
                                           BaseCondition("hyperplane", 1, 0.0))


class TestRemarkBoundaryWitness:
    """Boundary family a0 + a1 = 1: the explicit real-exponent witness z^{a1}.

    The multiplicity bounds it certifies are one-sided; equality is not
    asserted anywhere.
    """

    def test_witness_is_a_real_section(self):
        a0, a1 = 1 - 1 / math.sqrt(2), 1 / math.sqrt(2)
        dv = canonical_divisor([a0, a1])
        # divisor part: D + (z^{a1}) = a0 H_0 + a1 H_1 >= 0
        coeffs = (1.0 - a1, a1)
        assert all(c >= 0 for c in coeffs)
        # green part: u(s) - a1 s >= 0 with minimum 0 at s = 0
        s = np.linspace(-60, 60, 20001)
        vals = np.logaddexp(math.log(a0), math.log(a1) + s) - a1 * s
        assert vals.min() >= -1e-12
        assert float(np.logaddexp(math.log(a0), math.log(a1))) == pytest.approx(0.0, abs=1e-15)

    def test_upper_bounds_from_witness(self):
        a0, a1 = 1 - 1 / math.sqrt(2), 1 / math.sqrt(2)
        # mult at the two torus-fixed points of D + (z^{a1})
        assert 1.0 - a1 <= a0 + 1e-15
        assert a1 <= a1

    def test_no_rational_sections(self):
        from arithvol.oracle import mu_Q_approx
        a0, a1 = 1 - 1 / math.sqrt(2), 1 / math.sqrt(2)
        dv = canonical_divisor([a0, a1])
        res = mu_Q_approx(dv, BaseCondition("hyperplane", 1, 0.0), [1, 2, 5, 10, 20])
        assert res.warning is not None


class TestPropositionSuite:
    def test_identical_nef_pair(self):
        dv = canonical_divisor([2, 2])
        report = multiplicity_law_suite(dv, dv, [1.0], 2.0,
                                       BaseCondition("hyperplane", 1, 0.0))
        assert report["ok"]
        assert report["subadditivity"]["lhs"] == 0.0
        assert report["nef_vanishing"]["applicable"]
        assert report["nef_vanishing"]["value"] == 0.0

    def test_homogeneity_scales_root(self):
        dv = canonical_divisor([0.25, 2])
        report = multiplicity_law_suite(dv, canonical_divisor([2, 2]), [1.0], 3.0,
                                       BaseCondition("hyperplane", 1, 0.0))
        assert report["homogeneity"]["ok"]
        assert report["homogeneity"]["lhs"] == pytest.approx(3 * X_MINUS_QTR2, abs=1e-9)

    def test_principal_twist_invariance(self):
        dv = canonical_divisor([0.25, 2])
        report = multiplicity_law_suite(dv, canonical_divisor([1, 1]), [1.0], 1.5,
                                       BaseCondition("hyperplane", 1, 0.0))
        assert report["principal_invariance"]["ok"]

    def test_randomized_pairs(self, rng):
        for _ in range(25):
            a = rng.uniform(0.2, 3.0, size=2)
            b = rng.uniform(0.2, 3.0, size=2)
            a[1] = max(a[1], 1.1 - a[0] + 0.05)
            b[1] = max(b[1], 1.1 - b[0] + 0.05)
            report = multiplicity_law_suite(
                canonical_divisor(a.tolist()), canonical_divisor(b.tolist()),
                [float(rng.uniform(-1, 1))], float(rng.uniform(0.5, 3.0)),
                BaseCondition("hyperplane", 1, 0.0))
            assert report["ok"], report


class TestDivisorAlgebra:
    def test_scale_and_twist_volumes(self):
        dv = canonical_divisor([2, 2])
        assert vol_hat(scale_divisor(dv, 2.0)) == pytest.approx(4 * vol_hat(dv), rel=1e-9)
        assert vol_hat(with_twist(dv, 0.2)) == pytest.approx(
            vol_hat(dv) + 0.2, abs=1e-6)   # nef: the region is the whole body

    def test_principal_twist_roundtrip(self):
        dv = canonical_divisor([0.25, 2])
        back = principal_twist(principal_twist(dv, [0.7]), [-0.7])
        assert np.allclose(back.coeffs, dv.coeffs)
        assert vol_hat(back) == pytest.approx(vol_hat(dv), abs=1e-9)

    def test_sum_superadditive_volume(self):
        d1 = canonical_divisor([0.25, 2])
        d2 = canonical_divisor([2, 0.25])
        total = add_divisors(d1, d2)
        assert vol_hat(total) >= vol_hat(d1) + vol_hat(d2) - 1e-6

    def test_sum_transform_batched(self):
        total = add_divisors(canonical_divisor([0.25, 2]), canonical_divisor([2, 0.25]))
        t = concave_transform(total)
        xs = np.array([0.3, 1.0, 1.7])
        vals = t(xs)
        assert vals.shape == (3,)
        assert vals.tolist() == [t(float(x)) for x in xs]
        assert t.values_on(xs).tolist() == vals.tolist()
        xs = np.linspace(0.0, 2.0, 301)
        assert t(xs).tolist() == [t(float(x)) for x in xs]
        assert t(np.array([[0.3, 1.0], [1.7, 0.5]])).shape == (2, 2)

    def test_sum_transform_doubling(self):
        # sup-convolution of a concave G with itself peaks at the even split
        dv = canonical_divisor([0.7, 1.9], twist=0.2)
        xs = np.linspace(0.0, 2.0, 41)
        doubled = concave_transform(add_divisors(dv, dv))(xs)
        assert np.allclose(doubled, 2 * concave_transform(dv)(xs / 2), atol=1e-12)

    def test_sum_transform_outside_body(self):
        total = add_divisors(canonical_divisor([0.25, 2]), canonical_divisor([2, 0.25]))
        vals = concave_transform(total)(np.array([-0.5, 1.0, 2.5]))
        assert vals[0] == -np.inf and vals[2] == -np.inf and np.isfinite(vals[1])

    def test_sum_transform_limits(self):
        d1, d2 = canonical_divisor([0.25, 2]), canonical_divisor([2, 0.25])
        three = concave_transform(add_divisors(add_divisors(d1, d2), d1))
        with pytest.raises(InputError, match="two parts"):
            three(1.0)
        plane = add_divisors(canonical_divisor([1, 2, 4]), canonical_divisor([1, 1, 1]))
        with pytest.raises(InputError, match="d = 1"):
            concave_transform(plane)

    def test_records_roundtrip(self):
        for dv in (canonical_divisor([2, 2], twist=0.3),
                   principal_twist(canonical_divisor([0.25, 2]), [1.0]),
                   scale_divisor(canonical_divisor([1, 2, 4]), 1.5)):
            rec = divisor_record(dv)
            back = divisor_from_record(rec)
            assert back.coeffs == dv.coeffs
            assert back.twist == dv.twist
            assert back.potential == dv.potential

    def test_sampled_record_roundtrip(self):
        u = grid_function_from_callable(lambda t: np.logaddexp(math.log(2), math.log(2) + t),
                                        -40, 40, 801, [(0.0, 1.0)])
        dv = make_divisor(1, [1.0, 0.0], SampledConvex(u), twist=0.1)
        back = divisor_from_record(divisor_record(dv))
        assert np.allclose(back.potential.u.values, dv.potential.u.values)
        assert vol_hat(back) == pytest.approx(vol_hat(dv), abs=1e-9)

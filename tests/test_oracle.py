"""Brute-force oracle: enumeration, box counts, multiplicity bounds, norms."""

import itertools
import math
from fractions import Fraction

import pytest

from arithvol import oracle
from arithvol.divisor import (BaseCondition, CanonicalFamily, SampledConvex, canonical_divisor,
                              log_sup_norm_monomial, make_divisor, mu_R,
                              principal_twist, sampled_from_divisor, sup_norm_monomial,
                              vol_hat, vol_hat_base, with_twist)
from arithvol.oracle import (enumerate_sections, exact_ball_log_count,
                             log_count, mu_Q_approx, normalized_log_count,
                             sup_norm_numeric)

LOG2 = math.log(2)


class TestEnumeration:
    def test_radii_11_level2(self):
        enum = enumerate_sections(canonical_divisor([1, 1]), 2)
        got = {e.exponents: float(e.radius_sq) ** 0.5 for e in enum.entries}
        assert got == pytest.approx({(0,): 1.0, (1,): 2.0, (2,): 1.0})

    def test_horizontal_condition_filters(self):
        enum = enumerate_sections(canonical_divisor([1, 1]), 2,
                                  [BaseCondition("hyperplane", 1, 1.0)])
        assert [e.exponents for e in enum.entries] == [(2,)]

    def test_non_big_all_radii_below_one(self):
        enum = enumerate_sections(canonical_divisor([0.25, 0.25]), 10)
        assert all(e.radius_sq < 1 for e in enum.entries)

    def test_deterministic_order(self):
        enum = enumerate_sections(canonical_divisor([1, 2, 4]), 3)
        exps = [e.exponents for e in enum.entries]
        assert exps == sorted(exps)


def _reference_sections(dv, n, conditions=()):
    """Per-monomial reference: one sup-norm read and one ``Fraction`` product per monomial."""
    c = dv.coeffs
    lows = [math.ceil(-n * c[1 + i] - 1e-9) for i in range(dv.d)]
    top = math.floor(n * sum(c) + 1e-9)
    pot = dv.potential
    exact = (isinstance(pot, CanonicalFamily) and dv.twist == 0.0 and pot.scale == 1.0
             and not any(pot.shift))
    out = []
    for m in itertools.product(*(range(lo, top + 1) for lo in lows)):
        if sum(m) > n * c[0] + 1e-9:
            continue
        beta = [n * c[0] - sum(m)] + [n * c[j + 1] + m[j] for j in range(dv.d)]
        mults = [beta[cond.index] if cond.kind == "hyperplane"
                 else sum(b for j, b in enumerate(beta) if j != cond.index)
                 for cond in conditions if cond.kind != "fiber"]
        if any(mult < n * cond.bound - 1e-9 for mult, cond in
               zip(mults, [cond for cond in conditions if cond.kind != "fiber"])):
            continue
        r2 = None
        if exact:
            r2 = Fraction(1)
            for a_i, m_i in zip(pot.a, [n - sum(m)] + list(m)):
                if m_i > 0:
                    r2 *= (Fraction(n) * Fraction(a_i) / Fraction(m_i)) ** m_i
        out.append((m, -log_sup_norm_monomial(dv, n, m), r2))
    return out


ENUM_DIVISORS = {
    "non-dyadic": lambda: canonical_divisor([0.4, 0.8]),
    "canonical-d2": lambda: canonical_divisor([1, 2, 4]),
    "twisted-shifted": lambda: principal_twist(canonical_divisor([0.3, 1.7], twist=0.2), [0.4]),
    "sampled-d1": lambda: make_divisor(1, (1.0, 0.0), SampledConvex(
        sampled_from_divisor(canonical_divisor([1.2, 0.9]), n=501))),
}
ENUM_CONDITIONS = {
    "none": (),
    "horizontal-and-fiber": (BaseCondition("hyperplane", 1, 0.25), BaseCondition("fiber", 3, 0.2)),
    "point-and-fiber": (BaseCondition("point", 0, 0.1), BaseCondition("fiber", 2, 0.5)),
    "removes-all": (BaseCondition("hyperplane", 0, 5.0),),
}


class TestBatchedEnumeration:
    """The batched enumeration equals per-monomial reads and exact ``Fraction`` radii."""

    @pytest.mark.parametrize("cond", sorted(ENUM_CONDITIONS))
    @pytest.mark.parametrize("name", sorted(ENUM_DIVISORS))
    def test_equals_per_monomial_reference(self, name, cond):
        dv, conditions = ENUM_DIVISORS[name](), ENUM_CONDITIONS[cond]
        for n in (1, 9, 23):
            enum = enumerate_sections(dv, n, conditions)
            got = [(e.exponents, e.log_radius, e.radius_sq) for e in enum.entries]
            assert got == _reference_sections(dv, n, conditions)
            assert all(type(x) is int for e in enum.entries for x in e.exponents)
            if cond == "removes-all":
                assert got == [] and log_count(dv, n, conditions) == 0.0

    def test_non_dyadic_floors_equal_reduced_fractions(self):
        dv = canonical_divisor([0.4, 0.8])
        for n in (7, 60, 150):
            for entry in enumerate_sections(dv, n).entries:
                r2 = entry.radius_sq
                assert r2 is not None and r2.denominator > 1
                for divide, multiply in ((1, 1), (3, 1), (1, 5), (4, 9)):
                    s = r2 * multiply ** 2 / divide ** 2
                    want = math.isqrt(s.numerator * s.denominator) // s.denominator
                    assert oracle._floor_radius(entry, divide, multiply) == want

    @pytest.mark.parametrize("num, den", [(15, 3), (27, 4), (8, 2), (99, 100),
                                          (10 ** 40 + 1, 10 ** 40), (2 ** 60, 3 ** 20)])
    def test_floor_radius_of_unreduced_ratios(self, num, den):
        # isqrt(P Q) // Q floors sqrt(P / Q) whether or not P / Q is reduced
        for k in (1, 3, 2 ** 53):
            entry = oracle.SectionEntry((0,), 0.0, radius_ratio=(num * k, den * k))
            for divide, multiply in ((1, 1), (2, 1), (1, 3)):
                r2 = Fraction(num, den) * multiply ** 2 / divide ** 2
                want = math.isqrt(r2.numerator * r2.denominator) // r2.denominator
                assert oracle._floor_radius(entry, divide, multiply) == want

    def test_non_dyadic_integrality_matches_fractions(self):
        dv = canonical_divisor([0.4, 0.8])
        center = BaseCondition("hyperplane", 1, 0.0)
        levels = list(range(1, 41))
        best, want = math.inf, []
        for n in levels:
            level = [oracle._center_mult_of_section(dv, n, e.exponents, center) / n
                     for e in enumerate_sections(dv, n).entries if e.radius_sq >= 1]
            best = min([best] + level)
            if math.isfinite(best):
                want.append((n, best))
        assert mu_Q_approx(dv, center, levels).values == tuple(want)

    def test_one_transform_per_level(self, monkeypatch):
        dv = canonical_divisor([1, 2, 4])
        built = []
        original = oracle.concave_transform
        monkeypatch.setattr(oracle, "concave_transform",
                            lambda d: built.append(d) or original(d))
        enum = enumerate_sections(dv, 20)
        assert len(enum) == 231 and len(built) == 1


class TestLogCount:
    def test_zero_when_no_sections(self):
        assert log_count(canonical_divisor([0.25, 0.25]), 10) == 0.0

    def test_volume_trend_22(self):
        dv = canonical_divisor([2, 2])
        target = LOG2 + 0.5
        vals = [normalized_log_count(dv, n) for n in (100, 200, 400)]
        gaps = [abs(v - target) for v in vals]
        assert gaps[0] > gaps[1] - 0.02 > gaps[2] - 0.04
        assert gaps[-1] < 0.05

    def test_vertical_condition_limit(self):
        # sections divisible by 2^{n/2}: the count converges to the volume of
        # the transform lowered by log(2)/2, which is the weights-(1,1) value
        dv = canonical_divisor([2, 2])
        est = normalized_log_count(dv, 400, [BaseCondition("fiber", 2, 0.5)])
        closed = vol_hat_base(dv, [BaseCondition("fiber", 2, 0.5)])
        assert closed == pytest.approx(0.5, abs=1e-6)
        assert abs(est - closed) < 0.05

    def test_superadditive_up_to_log_slack(self):
        for a in ([2, 2], [0.5, 1.5]):
            dv = canonical_divisor(a)
            for n1, n2 in ((10, 15), (20, 40), (50, 50)):
                slack = 2 * 2 * math.log(n1 + n2 + 2)
                assert log_count(dv, n1 + n2) >= (log_count(dv, n1)
                                                  + log_count(dv, n2) - slack)

    def test_exact_path_matches_float_path(self):
        # twist disables the exact rational radii; counts must agree anyway
        dv = canonical_divisor([2, 2])
        tw = with_twist(dv, 0.0)
        for n in (10, 50):
            assert log_count(dv, n) == pytest.approx(log_count(tw, n), abs=1e-9)

    def test_counting_sandwich_tiny_levels(self):
        # exact enumeration of all integral sections in the sup-ball, with
        # membership tested on a dense polar grid, vs the diagonal box count
        dv = canonical_divisor([1.2, 0.05])
        for n in range(1, 13):
            exact = exact_ball_log_count(dv, n)
            box = log_count(dv, n)
            assert exact <= box + 1e-9
            assert abs(exact - box) <= 3 * (n + 1) * math.log(n + 3)


class TestMuQApprox:
    def test_envelope_converges_to_mu(self):
        dv = canonical_divisor([0.25, 2])
        center = BaseCondition("hyperplane", 1, 0.0)
        res = mu_Q_approx(dv, center, list(range(1, 201)))
        vals = [v for _, v in res.values]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - mu_R(dv, center)) < 0.05
        # every level value is an upper bound
        assert all(v >= mu_R(dv, center) - 1e-12 for v in vals)

    def test_nef_hits_zero_immediately(self):
        res = mu_Q_approx(canonical_divisor([2, 2]),
                          BaseCondition("hyperplane", 1, 0.0), [1, 2, 3])
        assert res.values[0] == (1, 0.0)

    def test_vertical_center_zero(self):
        res = mu_Q_approx(canonical_divisor([2, 2]),
                          BaseCondition("fiber", 2, 0.0), [1])
        assert res.values == ((1, 0.0),)

    def test_non_big_warning(self):
        res = mu_Q_approx(canonical_divisor([0.25, 0.25]),
                          BaseCondition("hyperplane", 1, 0.0), [1, 2, 10])
        assert res.warning is not None
        assert res.values == ()

    def test_at_twisted_divisor(self):
        dv = with_twist(canonical_divisor([0.25, 2]), 0.4)
        center = BaseCondition("hyperplane", 1, 0.0)
        res = mu_Q_approx(dv, center, list(range(1, 121)))
        assert abs(res.values[-1][1] - mu_R(dv, center)) < 0.05


class TestSupNormNumeric:
    def test_golden_section_1d(self):
        dv = canonical_divisor([1, 1])
        assert sup_norm_numeric(dv, 2, [1]) ** 2 == pytest.approx(0.25, rel=1e-8)

    def test_boundary_asymptote(self):
        dv = canonical_divisor([1, 1])
        assert sup_norm_numeric(dv, 3, [3]) ** 2 == pytest.approx(1.0, rel=1e-8)
        dv2 = canonical_divisor([1, 2, 4])
        assert sup_norm_numeric(dv2, 2, (0, 2)) ** 2 == pytest.approx(1 / 16, rel=1e-6)

    def test_constant_at_origin(self):
        dv = canonical_divisor([2, 2])
        assert sup_norm_numeric(dv, 4, [0]) ** 2 == pytest.approx(2.0 ** -4, rel=1e-8)

    def test_norm_consistency_500_random_samples(self, rng):
        # closed form vs numeric maximization, relative 1e-6, d <= 2, n <= 50
        for _ in range(500):
            d = int(rng.integers(1, 3))
            a = rng.uniform(0.1, 5.0, size=d + 1)
            n = int(rng.integers(1, 51))
            if d == 1:
                m = (int(rng.integers(0, n + 1)),)
            else:
                m1 = int(rng.integers(0, n + 1))
                m = (m1, int(rng.integers(0, n - m1 + 1)))
            dv = canonical_divisor(a.tolist())
            closed = sup_norm_monomial(dv, n, m)
            numeric = sup_norm_numeric(dv, n, m)
            assert numeric == pytest.approx(closed, rel=1e-6)

    def test_twisted_norms(self, rng):
        for _ in range(20):
            a = rng.uniform(0.2, 4.0, size=2)
            lam = float(rng.uniform(-0.5, 0.5))
            dv = canonical_divisor(a.tolist(), twist=lam)
            n = int(rng.integers(1, 30))
            m = (int(rng.integers(0, n + 1)),)
            assert sup_norm_numeric(dv, n, m) == pytest.approx(
                sup_norm_monomial(dv, n, m), rel=1e-6)

    @pytest.mark.parametrize("a, grid, n, exponents, tol", [
        ([2, 3], 4001, 7, [(0,), (3,), (7,)], 1e-4),
        ([1, 2, 4], 129, 3, [(1, 0), (1, 1)], 1e-2),
    ])
    def test_sampled_potentials_match_transform(self, a, grid, n, exponents, tol):
        # the numeric search reaches s = 60, past the grid's end at 40, where
        # the sampled potential must grow by its recession slopes; the d = 2
        # remainder is the quadratic peak bump that the transform's refined
        # conjugate adds and the bilinear interpolant of the potential lacks
        dv = canonical_divisor(a)
        sampled = make_divisor(dv.d, dv.coeffs, SampledConvex(sampled_from_divisor(dv, n=grid)))
        for m in exponents:
            numeric = math.log(sup_norm_numeric(sampled, n, m))
            assert abs(numeric - log_sup_norm_monomial(sampled, n, m)) <= tol


class TestVolumeAgreement:
    def test_d1_11(self):
        dv = canonical_divisor([1, 1])
        assert abs(normalized_log_count(dv, 400) - vol_hat(dv)) < 0.05

    def test_d2_124_level60(self):
        dv = canonical_divisor([1, 2, 4])
        assert abs(normalized_log_count(dv, 60) - vol_hat(dv)) < 0.15

    def test_base_condition_at_400(self):
        dv = canonical_divisor([2, 2])
        cond = [BaseCondition("hyperplane", 1, 0.5)]
        assert abs(normalized_log_count(dv, 400, cond) - vol_hat_base(dv, cond)) < 0.05

    def test_body_inclusion_is_equality_at_small_levels(self):
        # the valuation image of a constrained series fills the cut body:
        # counts match the cut-volume prediction already at modest levels
        dv = canonical_divisor([2, 2])
        for mu in (0.25, 0.5):
            cond = [BaseCondition("hyperplane", 1, mu)]
            gaps = [abs(normalized_log_count(dv, n, cond) - vol_hat_base(dv, cond))
                    for n in (50, 100, 200)]
            assert gaps[-1] < 0.1
            assert gaps[-1] <= gaps[0] + 1e-9

    def test_principal_twist_invariant_counts(self):
        dv = canonical_divisor([2, 2])
        tw = principal_twist(dv, [1.0])
        for n in (10, 30):
            assert log_count(tw, n) == pytest.approx(log_count(dv, n), abs=1e-9)

    def test_combined_horizontal_and_vertical_conditions(self):
        # the body cut and the integrand drop apply simultaneously
        dv = canonical_divisor([2, 2])
        conds = [BaseCondition("hyperplane", 1, 0.25), BaseCondition("fiber", 2, 0.25)]
        closed = vol_hat_base(dv, conds)
        assert 0 < closed < vol_hat_base(dv, conds[:1])
        assert closed < vol_hat_base(dv, conds[1:])
        assert abs(normalized_log_count(dv, 200, conds) - closed) < 0.1

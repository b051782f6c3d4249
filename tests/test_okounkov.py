"""Lexicographic valuations, graded semigroups, bodies, dimension counts."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from arithvol.convexcore import convex_hull
from arithvol.errors import (EmptySeriesError, GradingViolationError,
                             InputError, ValuationOfZeroError)
from arithvol.okounkov import (MonomialSeries, ValuationFlag,
                               dim_via_valuations, filtered_series,
                               full_series, identity_flag,
                               mult_first_coordinate, okounkov_body, ord_lex,
                               semigroup_points)


def poly_mul(f, g):
    """Product of exponent-to-coefficient maps, dropping cancellations."""
    out = {}
    for mf, cf in f.items():
        for mg, cg in g.items():
            key = tuple(a + b for a, b in zip(mf, mg))
            out[key] = out.get(key, 0) + cf * cg
    return {m: c for m, c in out.items() if c != 0}


def poly_add(f, g):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c != 0}


def random_poly(rng, d, n_terms=4, max_exp=6):
    out = {}
    for _ in range(n_terms):
        m = tuple(int(e) for e in rng.integers(0, max_exp, size=d))
        out[m] = Fraction(int(rng.integers(-5, 6)) or 1)
    return out


class TestOrdLex:
    def test_constant(self):
        assert ord_lex({(0, 0): 1}, identity_flag(2)) == (0, 0)

    def test_forced_order(self):
        assert ord_lex({(2, 1): 1, (3, 0): 1}, identity_flag(2)) == (2, 1)

    def test_zero_raises(self):
        with pytest.raises(ValuationOfZeroError):
            ord_lex({}, identity_flag(2))
        with pytest.raises(ValuationOfZeroError):
            ord_lex({(1, 0): 0}, identity_flag(2))

    def test_hand_expanded_product(self):
        # z1 * (z1 + z2) = z1^2 + z1 z2; the valuation of the second factor is
        # (0, 1), so additivity forces (1, 1) for the product
        flag = identity_flag(2)
        f = {(1, 0): 1}
        g = {(1, 0): 1, (0, 1): 1}
        assert ord_lex(g, flag) == (0, 1)
        prod = poly_mul(f, g)
        assert ord_lex(prod, flag) == (1, 1)
        assert ord_lex(prod, flag) == tuple(
            a + b for a, b in zip(ord_lex(f, flag), ord_lex(g, flag)))

    def test_permuted_flag(self):
        flag = ValuationFlag(dim=2, order=(1, 0))
        assert ord_lex({(2, 1): 1, (3, 0): 1}, flag) == (0, 3)

    def test_bad_permutation(self):
        with pytest.raises(InputError):
            ValuationFlag(dim=2, order=(0, 0))

    def test_additivity_on_random_pairs(self, rng):
        flag = identity_flag(2)
        for _ in range(200):
            f = random_poly(rng, 2)
            g = random_poly(rng, 2)
            prod = poly_mul(f, g)
            assert prod, "char-0 products of nonzero polys are nonzero"
            assert ord_lex(prod, flag) == tuple(
                a + b for a, b in zip(ord_lex(f, flag), ord_lex(g, flag)))

    def test_ultrametric_bound(self, rng):
        flag = identity_flag(2)
        for _ in range(200):
            f = random_poly(rng, 2)
            g = random_poly(rng, 2)
            s = poly_add(f, g)
            if not s:
                continue
            assert ord_lex(s, flag) >= min(ord_lex(f, flag), ord_lex(g, flag))


class TestMultFirstCoordinate:
    def test_coefficient_readoff(self):
        assert mult_first_coordinate([1.0, 2.0, 3.0], identity_flag(2)) == 2.0

    def test_with_monomial(self):
        # H_0 + (z1^a z2^b) carries a along the first flag divisor
        assert mult_first_coordinate([1.0, 0.0, 0.0], identity_flag(2),
                                     monomial=(4, 7)) == 4.0

    def test_random_combinations_match_bookkeeping(self, rng):
        # oracle: the coefficient of the hyperplane cut out by the first flag
        # parameter, tracked independently of the valuation machinery
        for _ in range(50):
            coeffs = rng.uniform(-2, 2, size=4)
            perm = tuple(rng.permutation(3))
            flag = ValuationFlag(dim=3, order=perm)
            expected = coeffs[1 + perm[0]]
            assert mult_first_coordinate(coeffs, flag) == pytest.approx(expected, abs=0)

    def test_wrong_support_length(self):
        with pytest.raises(InputError):
            mult_first_coordinate([1.0, 2.0], identity_flag(2))


class TestSemigroupPoints:
    def test_full_series_p1_level2(self):
        pts = semigroup_points(full_series(1, 2), identity_flag(1))
        assert pts.at_level(2) == {(0.0,), (1.0,), (2.0,)}

    def test_empty_levels(self):
        series = [MonomialSeries(level=m, support=frozenset(), divisor_coeffs=(1.0, 0.0))
                  for m in range(3)]
        pts = semigroup_points(series, identity_flag(1))
        assert len(pts) == 0
        with pytest.raises(EmptySeriesError):
            okounkov_body(pts, 3)

    def test_base_conditioned_series(self):
        series = filtered_series(1, 4, lambda m, lvl: m[0] >= 0.5 * lvl)
        pts = semigroup_points(series, identity_flag(1))
        firsts = {v[0] for v in pts.at_level(4)}
        assert firsts == {2.0, 3.0, 4.0}

    def test_grading_violation_names_pair(self):
        bad = [MonomialSeries(level=0, support=frozenset({(0,)}), divisor_coeffs=(1.0, 0.0)),
               MonomialSeries(level=1, support=frozenset({(1,)}), divisor_coeffs=(1.0, 0.0)),
               MonomialSeries(level=2, support=frozenset({(1,)}), divisor_coeffs=(1.0, 0.0))]
        with pytest.raises(GradingViolationError) as err:
            semigroup_points(bad, identity_flag(1))
        assert err.value.offending_pair == (((1,), 1), ((1,), 1))

    def test_additivity_of_semigroup(self, rng):
        # when both factors are present and the product monomial is in the
        # series, the sum of the valuation points is present too
        series = filtered_series(2, 5, lambda m, lvl: sum(m) >= 0.4 * lvl)
        pts = semigroup_points(series, identity_flag(2))
        by_level = {}
        for v, lvl in pts.points:
            by_level.setdefault(lvl, set()).add(v)
        for m1, m2 in itertools.combinations(sorted(by_level), 2):
            if m1 == 0 or m1 + m2 not in by_level:
                continue
            for v1 in by_level[m1]:
                for v2 in by_level[m2]:
                    total = tuple(a + b for a, b in zip(v1, v2))
                    if sum(total) <= m1 + m2:
                        assert total in by_level[m1 + m2]


class TestOkounkovBody:
    def test_p2_standard_simplex(self):
        pts = semigroup_points(full_series(2, 3), identity_flag(2))
        body = okounkov_body(pts, 3)
        expected = convex_hull([[0, 0], [1, 0], [0, 1]])
        assert np.allclose(body.vertices, expected.vertices)
        assert body.volume() == pytest.approx(0.5, abs=1e-12)

    def test_single_monomial_series(self):
        series = [MonomialSeries(level=m, support=frozenset({(m, 0)}),
                                 divisor_coeffs=(1.0, 0.0, 0.0))
                  for m in range(4)]
        pts = semigroup_points(series, identity_flag(2))
        body = okounkov_body(pts, 3)
        assert len(body.vertices) == 1
        assert np.allclose(body.vertices[0], [1.0, 0.0])
        assert body.volume() == 0.0

    def test_base_condition_half_segment(self):
        series = filtered_series(1, 6, lambda m, lvl: m[0] >= 0.5 * lvl)
        body = okounkov_body(semigroup_points(series, identity_flag(1)), 6)
        assert np.allclose(sorted(body.vertices.ravel()), [0.5, 1.0])

    def test_monotone_in_level_bound(self):
        pts = semigroup_points(full_series(2, 6), identity_flag(2))
        prev = None
        simplex = convex_hull([[0, 0], [1, 0], [0, 1]])
        for m_max in range(1, 7):
            body = okounkov_body(pts, m_max)
            assert np.all(simplex.contains(body.vertices, tol=1e-9))
            if prev is not None:
                assert np.all(prev.contains(body.vertices, tol=1e-9) |
                              body.contains(body.vertices))
                assert np.all(body.contains(prev.vertices, tol=1e-9))
            prev = body


class TestDimCount:
    def test_small(self):
        s = MonomialSeries(level=2, support=frozenset({(0, 0), (1, 0), (1, 1)}),
                           divisor_coeffs=(1.0, 0.0, 0.0))
        assert dim_via_valuations(s, identity_flag(2)) == 3

    def test_empty(self):
        s = MonomialSeries(level=2, support=frozenset(), divisor_coeffs=(1.0, 0.0))
        assert dim_via_valuations(s, identity_flag(1)) == 0

    @pytest.mark.parametrize("d", [1, 2])
    def test_full_series_binomial(self, d):
        series = full_series(d, 10)
        for s in series[1:]:
            expected = math.comb(s.level + d, d)
            assert dim_via_valuations(s, identity_flag(d)) == expected


class TestVolumeLimit:
    """Gap between the body volume and the dimension ratio, decreasing in m.

    The exact gap for the complete hyperplane series is
    ``C(m + d, d) / m^d - 1/d!``; at the reference levels this is 1/30 for
    the curve case and 47/450 (about 0.1044) for the surface case.
    """

    def compute_gap(self, d, m):
        pts = semigroup_points(full_series(d, m), identity_flag(d))
        vol = okounkov_body(pts, m).volume()
        dim = math.comb(m + d, d)
        return abs(vol - dim / m ** d)

    def test_gap_decreasing(self):
        for d, levels in ((1, range(3, 31, 9)), (2, range(3, 16, 4))):
            gaps = [self.compute_gap(d, m) for m in levels]
            assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_gap_values_match_combinatorial_oracle(self):
        assert self.compute_gap(1, 30) == pytest.approx(1 / 30, abs=1e-12)
        assert self.compute_gap(2, 15) == pytest.approx(Fraction(47, 450), abs=1e-12)

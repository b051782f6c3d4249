"""Property-based checks of the structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from arithvol.convexcore import (convex_hull, grid_function_from_callable,
                                 legendre_conjugate)
from arithvol.divisor import (BaseCondition, add_divisors, canonical_divisor,
                              concave_transform, mu_R, is_big,
                              principal_twist, scale_divisor, vol_hat,
                              vol_hat_base, with_twist)

positive = st.floats(min_value=0.1, max_value=4.0, allow_nan=False)
big_pair = st.tuples(positive, positive).filter(lambda ab: ab[0] + ab[1] > 1.05)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=3, max_size=15))
@example([(0.0, 0.0), (0.0, 0.0), (0.0, 4.0), (3.5, 0.0), (-1.0, 2.0),
          (-1.75, 1.707171799592941e-14)])   # (0, 0) sits on the bottom edge
def test_hull_idempotent(points):
    p = convex_hull(np.asarray(points, dtype=float))
    again = convex_hull(p.vertices)
    assert np.allclose(p.vertices, again.vertices, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(0.0, 1.5))
def test_conjugation_order_reversing(a0, a1, bump):
    dom = convex_hull([[0.0], [1.0]])
    u = grid_function_from_callable(
        lambda s: np.logaddexp(math.log(a0), math.log(a1) + s), -40, 40, 1001,
        [(0.0, 1.0)])
    v = grid_function_from_callable(
        lambda s: np.logaddexp(math.log(a0), math.log(a1) + s) + bump, -40, 40, 1001,
        [(0.0, 1.0)])
    cu = legendre_conjugate(u, dom)
    cv = legendre_conjugate(v, dom)
    assert np.all(cu.values >= cv.values - 1e-12)


@settings(max_examples=20, deadline=None)
@given(big_pair, st.floats(0.0, 0.8))
def test_twist_identity_pointwise_exact(ab, lam):
    dv = canonical_divisor(list(ab))
    t0 = concave_transform(dv)
    t1 = concave_transform(with_twist(dv, lam))
    for x in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert t1(x) == t0(x) + lam / 2


@settings(max_examples=20, deadline=None)
@given(big_pair, st.floats(0.05, 1.0))
def test_volume_monotone_in_parameters(ab, bump):
    small = canonical_divisor(list(ab))
    large = canonical_divisor([ab[0] + bump, ab[1] + bump])
    assert vol_hat(large) >= vol_hat(small) - 1e-9


@settings(max_examples=15, deadline=None)
@given(big_pair, st.floats(0.0, 1.2))
def test_base_condition_never_exceeds_volume(ab, mu):
    dv = canonical_divisor(list(ab))
    val = vol_hat_base(dv, [BaseCondition("hyperplane", 1, mu)])
    assert val <= vol_hat(dv) + 1e-9
    assert val >= 0.0


@settings(max_examples=15, deadline=None)
@given(big_pair, big_pair)
def test_mu_subadditive(ab, cd):
    center = BaseCondition("hyperplane", 1, 0.0)
    d1 = canonical_divisor(list(ab))
    d2 = canonical_divisor(list(cd))
    total = add_divisors(d1, d2)
    assert mu_R(total, center) <= mu_R(d1, center) + mu_R(d2, center) + 1e-9


@settings(max_examples=15, deadline=None)
@given(big_pair, st.floats(0.2, 3.0))
def test_mu_homogeneous(ab, t):
    center = BaseCondition("hyperplane", 1, 0.0)
    dv = canonical_divisor(list(ab))
    assert mu_R(scale_divisor(dv, t), center) == pytest.approx(
        t * mu_R(dv, center), abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(big_pair, st.floats(-1.5, 1.5))
def test_mu_invariant_under_principal_twist(ab, k):
    center = BaseCondition("hyperplane", 1, 0.0)
    dv = canonical_divisor(list(ab))
    assert mu_R(principal_twist(dv, [k]), center) == pytest.approx(
        mu_R(dv, center), abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.tuples(positive, positive), st.floats(-0.5, 1.0))
def test_bigness_iff_threshold(ab, lam):
    dv = canonical_divisor(list(ab), twist=lam)
    threshold = math.log(ab[0] + ab[1]) + lam
    if abs(threshold) < 1e-9:
        return
    assert is_big(dv) == (threshold > 0)
    if threshold < 0:
        assert vol_hat(dv) == 0.0

"""Surface decompositions: solver, certificates, verifiers, probes."""

import math
import os

import numpy as np
import pytest

from arithvol import cli, convexcore, divisor, zariski
from arithvol.convexcore import GridConvexFunction
from arithvol.divisor import (BaseCondition, canonical_divisor, divisor_from_record,
                              mu_R, principal_twist, scale_divisor,
                              positive_region, vol_hat, with_twist)
from arithvol.errors import (BignessRequiredError, ConsistencyError,
                             InputError, ToleranceError)
from arithvol.zariski import (Decomposition, RotInvariantDivisor,
                              check_multiplicity_identity,
                              decomposition_record, deg_self_intersection,
                              greatest_nef_minorant, nef_certificate,
                              nef_comparison_check, rot_from_toric,
                              rot_divisor_from_record, rot_divisor_record,
                              toric_minorant_gap_2d, verify_zariski,
                              vertical_drop_probe, vol_rot)

LOG2 = math.log(2)
X_MINUS_QTR2 = 0.3541060774351936   # left root of the (1/4, 2) transform
H0 = BaseCondition("hyperplane", 0, 0.0)
H1 = BaseCondition("hyperplane", 1, 0.0)
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def big_random_family(rng, count):
    """Mixed nef / non-nef big canonical inputs (some twisted)."""
    out = []
    while len(out) < count:
        a = rng.uniform(0.15, 3.0, size=2)
        lam = float(rng.choice([0.0, 0.0, 0.2, -0.1]))
        if math.log(a.sum()) + lam < 0.05:
            continue
        out.append(canonical_divisor(a.tolist(), twist=lam))
    return out


class TestNefCertificate:
    def test_nef_canonical(self):
        cert = nef_certificate(rot_from_toric(canonical_divisor([2, 2])))
        assert cert.passed and cert.sampled_necessary

    def test_non_nef_fails_barrier(self):
        cert = nef_certificate(rot_from_toric(canonical_divisor([0.25, 2])))
        assert not cert.passed
        assert not cert.barrier_ok

    def test_principal_divisor_nef_with_negative_coefficient(self):
        # -a (z)-hat has a linear potential and zero height everywhere
        p = rot_from_toric(principal_twist(canonical_divisor([1, 1]), [-0.6]))
        base = rot_from_toric(canonical_divisor([1, 1]))
        assert p.e1 == pytest.approx(-0.6)
        cert = nef_certificate(p)
        assert cert.passed

    def test_heights_at_rationals_nonnegative_for_nef(self):
        cert = nef_certificate(rot_from_toric(canonical_divisor([1, 1])))
        assert all(v >= -1e-9 for _, v in cert.heights)


class TestGreatestNefMinorant:
    def test_nef_input_returns_zero_negative_part_exactly(self):
        dv = canonical_divisor([2, 2])
        dec = greatest_nef_minorant(dv)
        assert dec.negative.e0 == 0.0
        assert dec.negative.e1 == 0.0
        assert float(np.max(np.abs(dec.negative.potential.values))) == 0.0
        assert verify_zariski(dv, dec)["pass"]

    def test_non_big_raises(self):
        with pytest.raises(BignessRequiredError):
            greatest_nef_minorant(canonical_divisor([0.25, 0.25]))

    def test_qtr2_decomposition(self):
        dv = canonical_divisor([0.25, 2])
        dec = greatest_nef_minorant(dv)
        assert dec.provenance["delta1"] == pytest.approx(X_MINUS_QTR2, abs=1e-6)
        assert dec.provenance["delta0"] == pytest.approx(0.0, abs=1e-6)
        rep = verify_zariski(dv, dec, tol=1e-3)
        assert rep["pass"]
        assert abs(rep["vol_positive"] - rep["vol_input"]) <= 1e-3
        mu = check_multiplicity_identity(dv, dec, tol=1e-3)
        assert mu["pass"]
        assert mu["z0"]["mu"] == pytest.approx(X_MINUS_QTR2, abs=1e-9)

    def test_boundary_family_limit_trend(self):
        # as the family approaches the pseudo-effective boundary the positive
        # part approaches the principal shape: potential -> a1 * s and the
        # negative coefficients -> (1 - a1, a1); a limit trend, not equality
        # (the positive region shrinks like sqrt(eps), hence the tolerances)
        a1 = 0.6
        sups, d0s, d1s = [], [], []
        for eps in (0.1, 0.01, 0.001):
            dv = canonical_divisor([1 + eps - a1, a1])
            dec = greatest_nef_minorant(dv)
            s = dec.positive.potential.axes[0]
            window = np.abs(s) <= 2.0
            sups.append(float(np.max(np.abs(
                dec.positive.potential.values[window] - a1 * s[window]))))
            d0s.append(dec.provenance["delta0"])
            d1s.append(dec.provenance["delta1"])
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] < 0.05
        assert abs(d0s[2] - (1 - a1)) < abs(d0s[1] - (1 - a1)) < abs(d0s[0] - (1 - a1))
        assert d0s[2] == pytest.approx(1 - a1, abs=0.03)
        assert d1s[2] == pytest.approx(a1, abs=0.03)

    def test_solver_soundness_randomized(self, rng):
        for dv in big_random_family(rng, 10):
            dec = greatest_nef_minorant(dv)
            assert verify_zariski(dv, dec, tol=1e-3)["pass"]
            assert check_multiplicity_identity(dv, dec, tol=1e-3)["pass"]
            assert dec.provenance["vertical_probe"]["cannot_help"]

    def test_greatest_among_sampled_minorants(self, rng):
        # any feasible nef minorant generated from random trims is dominated
        dv = canonical_divisor([0.25, 2])
        dec = greatest_nef_minorant(dv)
        vol_best = vol_rot(dec.positive)
        region = positive_region(dv)
        x_lo, x_hi = region.interval()
        w = rot_from_toric(dv)
        s = w.potential.axes[0]
        count = 0
        while count < 50:
            d1 = float(rng.uniform(x_lo, min(x_hi, x_lo + 0.5)))
            d0 = float(rng.uniform(1 - x_hi, 1 - x_hi + 0.4))
            e0 = 1.0 - d0
            if e0 <= d1 + 1e-6:
                continue
            t_drop = float(rng.uniform(0.02, 0.5))
            barrier = np.maximum(d1 * s, e0 * s)
            from arithvol.convexcore import constrained_convex_minorant
            h = constrained_convex_minorant(w.potential, d1, e0)
            vals = np.maximum(h.values - t_drop, barrier)
            cand = RotInvariantDivisor(
                e0=e0, e1=-d1,
                potential=GridConvexFunction(axes=(s,), values=vals,
                                             recession=((d1, e0),)))
            if not nef_certificate(cand).passed:
                continue
            assert float(np.max(vals - w.potential.values)) <= 1e-9
            assert vol_rot(cand) <= vol_best + 1e-6
            count += 1


def sampled_zariski_requests(monkeypatch):
    """The zariski requests of blocks 0-1 of the sampled_grid benchmark, seeds 1-2."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads
    return [req for seed in (1, 2) for index in (0, 1)
            for req in workloads.block("sampled_grid", seed, index) if req.command == "zariski"]


class TestMultiplicityIdentity:
    """The negative part's coefficients are the multiplicities at the two sections."""

    def test_sampled_requests_exact(self, monkeypatch):
        # nef inputs keep an exactly zero negative part, while mu_R measures
        # from the body ends as convex_hull rounds them (within an ulp of -c1, c0)
        reqs = sampled_zariski_requests(monkeypatch)
        assert len(reqs) == 12
        nef = 0
        for req in reqs:
            dv = divisor_from_record(req.record)
            dec = greatest_nef_minorant(dv)
            mu1, mu0 = mu_R(dv, H1), mu_R(dv, H0)
            if dec.provenance["nef_short_circuit"]:
                nef += 1
                assert dec.negative.e1 == 0.0 and dec.negative.e0 == 0.0
                assert abs(mu1) <= 1e-15 and abs(mu0) <= 1e-15
            else:
                assert dec.negative.e1 == mu1
                assert dec.negative.e0 == mu0
        assert nef == 2

    def test_canonical_divisors(self):
        rng = np.random.default_rng(77)      # criterion 07's divisors
        divisors = []
        while len(divisors) < 10:
            a = rng.uniform(0.15, 3.0, size=2)
            if a.sum() > 1.05:
                divisors.append(canonical_divisor(a.tolist()))
        for dv in divisors:
            dec = greatest_nef_minorant(dv)
            assert abs(dec.negative.e1 - mu_R(dv, H1)) <= 1e-12
            assert abs(dec.negative.e0 - mu_R(dv, H0)) <= 1e-12

    def test_non_nef_sampled_request_conjugates_three_times(self, monkeypatch, tmp_path):
        reqs = sampled_zariski_requests(monkeypatch)
        req = next(r for r in reqs
                   if not greatest_nef_minorant(divisor_from_record(r.record))
                   .provenance["nef_short_circuit"])
        import workloads
        workloads.write_block([req], str(tmp_path))
        calls = []
        conjugate = convexcore.legendre_conjugate

        def counted(*args, **kwargs):
            calls.append(args)
            return conjugate(*args, **kwargs)

        for module in (convexcore, divisor, zariski):
            monkeypatch.setattr(module, "legendre_conjugate", counted)
        assert cli.main(req.argv(str(tmp_path / "out"))) == 0
        assert len(calls) <= 3


class TestVerifiers:
    def test_trivial_pass(self):
        dv = canonical_divisor([2, 2])
        dec = greatest_nef_minorant(dv)
        assert verify_zariski(dv, dec)["pass"]

    def test_zero_positive_part_fails_volume(self):
        dv = canonical_divisor([2, 2])
        w = rot_from_toric(dv)
        s = w.potential.axes[0]
        zero = RotInvariantDivisor(
            e0=0.0, e1=0.0,
            potential=GridConvexFunction(axes=(s,), values=np.zeros_like(s),
                                         recession=((0.0, 0.0),)))
        dec = Decomposition(positive=zero, negative=w, provenance={})
        rep = verify_zariski(dv, dec)
        assert not rep["vol_equal"] and not rep["pass"]
        assert rep["nef"] and rep["effective"]

    def test_inconsistent_sum_raises(self):
        dv = canonical_divisor([2, 2])
        dec = greatest_nef_minorant(dv)
        bad = Decomposition(positive=dec.positive, negative=dec.positive,
                            provenance={})
        with pytest.raises(ConsistencyError):
            verify_zariski(dv, bad)

    def test_inflated_negative_coefficient_detected(self):
        dv = canonical_divisor([0.25, 2])
        dec = greatest_nef_minorant(dv)
        fake_neg = RotInvariantDivisor(e0=dec.negative.e0, e1=dec.negative.e1 + 0.2,
                                       potential=dec.negative.potential)
        fake_pos = RotInvariantDivisor(e0=dec.positive.e0, e1=dec.positive.e1 - 0.2,
                                       potential=dec.positive.potential)
        fake = Decomposition(positive=fake_pos, negative=fake_neg, provenance={})
        mu = check_multiplicity_identity(dv, fake, tol=1e-3)
        assert not mu["z0"]["ok"]
        assert not mu["pass"]

    def test_multiplicity_identity_on_nef(self):
        dv = canonical_divisor([2, 2])
        dec = greatest_nef_minorant(dv)
        mu = check_multiplicity_identity(dv, dec)
        assert mu["z0"]["mu"] == 0.0 and mu["z0"]["mult_N"] == 0.0
        assert mu["pass"]

    def test_report_record_roundtrip(self):
        dv = canonical_divisor([0.25, 2])
        dec = greatest_nef_minorant(dv)
        rep = verify_zariski(dv, dec)
        mu = check_multiplicity_identity(dv, dec)
        record = decomposition_record(dv, dec, rep, mu)
        assert record["pass"]
        back = rot_divisor_from_record(record["positive"])
        assert back.e0 == dec.positive.e0
        assert np.allclose(back.potential.values, dec.positive.potential.values)


class TestNefComparison:
    def test_equal_divisors(self):
        p = rot_from_toric(canonical_divisor([2, 2]))
        assert nef_comparison_check(p, p) is True

    def test_twist_strictly_increases_volume(self):
        p = rot_from_toric(canonical_divisor([2, 2]))
        q = rot_from_toric(with_twist(canonical_divisor([2, 2]), 0.1))
        assert nef_comparison_check(p, q) is False
        region = positive_region(canonical_divisor([2, 2]))
        lo, hi = region.interval()
        assert vol_rot(q) - vol_rot(p) >= 0.1 * (hi - lo) - 1e-6

    def test_vertical_fiber_strictly_increases_volume(self):
        p = rot_from_toric(canonical_divisor([2, 2]))
        q = RotInvariantDivisor(e0=p.e0, e1=p.e1, potential=p.potential,
                                vertical=((3, 0.2),))
        assert nef_comparison_check(p, q) is False
        assert vol_rot(q) > vol_rot(p)

    def test_incomparable_raises(self):
        p = rot_from_toric(canonical_divisor([2, 2]))
        q = rot_from_toric(canonical_divisor([1, 1]))
        with pytest.raises(InputError):
            nef_comparison_check(p, q)


class TestSelfIntersection:
    def test_known_values(self):
        assert deg_self_intersection(canonical_divisor([1, 1])) == pytest.approx(0.5, abs=1e-9)
        assert deg_self_intersection(canonical_divisor([2, 2])) == pytest.approx(
            LOG2 + 0.5, abs=1e-9)

    def test_rot_path_matches_closed(self):
        got = deg_self_intersection(rot_from_toric(canonical_divisor([2, 2])))
        assert got == pytest.approx(LOG2 + 0.5, abs=1e-4)

    def test_scaling_homogeneity(self):
        base = canonical_divisor([2, 2])
        d0 = deg_self_intersection(base)
        for t in (0.5, 1.7, 3.0):
            dt = deg_self_intersection(scale_divisor(base, t))
            assert abs(dt - t * t * d0) <= 1e-9 * max(1.0, t * t * d0)

    def test_refuses_without_certificate(self):
        with pytest.raises(InputError):
            deg_self_intersection(canonical_divisor([0.25, 2]))


class TestProbes:
    def test_minorant_gap_2d(self):
        # big and not nef: no decomposition exists upstairs; every toric nef
        # minorant on the tested family loses at least 0.01 of volume
        report = toric_minorant_gap_2d(canonical_divisor([0.3, 1.4, 0.4]), steps=18)
        assert report["best_minorant_vol"] > 0
        assert report["gap"] >= 0.01

    def test_minorant_gap_second_family(self):
        report = toric_minorant_gap_2d(canonical_divisor([0.25, 2.0, 0.25]), steps=18)
        assert report["gap"] >= 0.01

    def test_vertical_drop_attains_linear_bound(self):
        # tested inputs keep the transform above mu log p on the whole region,
        # where the drop equals the bound exactly (up to quadrature)
        cases = [([2, 2], 2, 0.5), ([math.e, math.e], 3, 0.3), ([2, 2], 2, 0.2)]
        for a, p, mu in cases:
            report = vertical_drop_probe(canonical_divisor(a), p, mu)
            assert report["drop"] >= report["bound"] - 1e-6
            assert report["vol_base"] < report["vol"]

    def test_vertical_drop_strict(self, rng):
        for _ in range(5):
            a = rng.uniform(1.1, 3.0, size=2)
            dv = canonical_divisor(a.tolist())
            report = vertical_drop_probe(dv, 2, 0.1)
            assert report["drop"] > 0

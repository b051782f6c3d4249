"""Zariski decompositions on the arithmetic surface (relative dimension 1).

The positive-part candidates are rotation-invariant divisors
``e_0 H_0 + e_1 H_1`` with a Green potential ``h(log|z|^2)``; a candidate is
nef-certified by convexity, the slope window ``[-e_1, e_0]``, the barrier
``h(s) >= max(-e_1 s, e_0 s)`` and sampled heights.  The solver searches
negative-part coefficients ``(delta_0, delta_1)`` by nested golden section,
maximizing the candidate volume; for each feasible pair the optimal
potential is the slope-constrained greatest convex minorant of the input
Green function, whose transform is exactly the input transform restricted
to ``[delta_1, e_0]``.  That restriction identity is what the inner search
evaluates; the returned decomposition is built through the grid minorant
and re-verified.

The nef certificate is sampled-necessary only: the nef condition quantifies
over all integral curves and no finite criterion is available, so every
certificate carries the ``sampled_necessary`` flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .convexcore import (GridConvexFunction, Region, constrained_convex_minorant,
                         convex_hull, golden_max, integrate_positive_part,
                         legendre_conjugate, pl_positive_integral)
from .divisor import (BaseCondition, ToricArithDivisor, concave_transform,
                      is_big, mu_R, principal_twist, sampled_from_divisor,
                      vol_hat, _positive_interval_1d)
from .errors import (BignessRequiredError, ConsistencyError, InfeasibleError,
                     InputError, ToleranceError)

HEIGHT_TOL = 1e-9
DEFAULT_VOL_TOL = 1e-3


@dataclass(frozen=True)
class RotInvariantDivisor:
    """Rotation-invariant divisor on the surface: coefficients on the two
    torus-fixed sections, a Green potential grid in ``s = log|z|^2`` with
    recession slopes ``(-e1, e0)``, and vertical fiber coefficients.

    The potential container is a grid function; convexity is a property
    certified for nef candidates, not a type invariant (negative parts are
    generally non-convex differences).
    """

    e0: float
    e1: float
    potential: GridConvexFunction
    vertical: tuple = ()          # ((prime, coefficient), ...) sorted

    def __post_init__(self):
        object.__setattr__(self, "vertical",
                           tuple(sorted((int(p), float(g)) for p, g in self.vertical)))

    def vertical_shift(self) -> float:
        return sum(g * math.log(p) for p, g in self.vertical)

    def green(self, s):
        return self.potential(s)


def rot_from_toric(dv: ToricArithDivisor, s_range: float = 40.0, n: int = 2001) -> RotInvariantDivisor:
    """Surface form of a relative-dimension-1 toric divisor (twist folded in)."""
    if dv.d != 1:
        raise InputError("surface divisors have relative dimension 1")
    u = sampled_from_divisor(dv, s_range=s_range, n=n)
    vals = u.values + dv.twist
    pot = GridConvexFunction(axes=u.axes, values=vals, recession=u.recession)
    return RotInvariantDivisor(e0=dv.coeffs[0], e1=dv.coeffs[1], potential=pot)


def _transform_grid(m: RotInvariantDivisor, resolution: int = 2001):
    lo, hi = -m.e1, m.e0
    if hi < lo - 1e-12:
        raise InputError("degenerate slope window: -e1 > e0")
    dom = convex_hull([[lo], [max(hi, lo)]])
    conj = legendre_conjugate(m.potential, dom, resolution=resolution, refine=False)
    return conj.axes[0], -0.5 * conj.values


def vol_rot(m: RotInvariantDivisor, resolution: int = 2001) -> float:
    """Arithmetic volume of a surface divisor through its transform grid."""
    x, g = _transform_grid(m, resolution)
    if len(x) == 1:
        return 0.0
    return 2.0 * pl_positive_integral(x, g + m.vertical_shift())


# ---------------------------------------------------------------------------
# nef certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NefCertificate:
    convex_ok: bool
    slope_ok: bool
    barrier_ok: bool
    fiber_ok: bool
    heights: tuple                # ((label, value), ...) all >= -tol when passed
    passed: bool
    sampled_necessary: bool = True
    note: str = ("necessary sampled conditions only; no finite nef criterion "
                 "is available for the full family")


DEFAULT_HEIGHT_POINTS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3),
                         Fraction(2, 3), Fraction(5, 2), Fraction(7))


def _height_at_rational(m: RotInvariantDivisor, beta: Fraction) -> float:
    """Arithmetic degree of the divisor restricted to the section at ``beta``."""
    if beta == 0:
        raise InputError("use the dedicated limit for the zero section")
    finite = 0.0
    num, den = abs(beta.numerator), beta.denominator
    for p in _prime_factors(num):
        finite += m.e1 * _ord(num, p) * math.log(p)
    for p in _prime_factors(den):
        finite += m.e0 * _ord(den, p) * math.log(p)
    finite += m.vertical_shift()
    s = math.log(float(beta) ** 2) if beta > 0 else math.log(float(-beta) ** 2)
    return finite + 0.5 * float(m.potential(s))


def _ord(k: int, p: int) -> int:
    out = 0
    while k % p == 0 and k > 0:
        k //= p
        out += 1
    return out


def _prime_factors(k: int):
    out = []
    p = 2
    while p * p <= k:
        if k % p == 0:
            out.append(p)
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        out.append(k)
    return out


def nef_certificate(m: RotInvariantDivisor, test_points: Sequence = None,
                    tol: float = HEIGHT_TOL) -> NefCertificate:
    """Sampled-necessary nef checks.

    Convexity, the slope window, and the barrier are exactly the height
    conditions at the two torus-fixed sections and at unit-modulus points;
    fiber degrees reduce to ``e0 + e1 >= 0``; further heights are sampled at
    a configurable set of rational points.
    """
    pot = m.potential
    s = pot.axes[0]
    convex_ok = pot.check_convex(tol=1e-9)
    slo, shi = pot.edge_slopes()
    slope_ok = (slo >= -m.e1 - 1e-6) and (shi <= m.e0 + 1e-6)
    barrier = np.maximum(-m.e1 * s, m.e0 * s)
    barrier_ok = bool(np.min(pot.values - barrier) >= -tol)
    fiber_deg = m.e0 + m.e1
    fiber_ok = fiber_deg >= -tol

    heights = [("fiber_degree_per_log_p", fiber_deg),
               ("section_z0", 0.5 * float(pot.values[0] + m.e1 * s[0]) + m.vertical_shift()),
               ("section_zinf", 0.5 * float(pot.values[-1] - m.e0 * s[-1]) + m.vertical_shift()),
               ("unit_circle", 0.5 * float(pot(0.0)) + m.vertical_shift())]
    for beta in (test_points if test_points is not None else DEFAULT_HEIGHT_POINTS):
        beta = Fraction(beta)
        heights.append((f"section_{beta}", _height_at_rational(m, beta)))
    heights_ok = all(v >= -tol for _, v in heights)
    passed = convex_ok and slope_ok and barrier_ok and fiber_ok and heights_ok
    return NefCertificate(convex_ok=convex_ok, slope_ok=slope_ok, barrier_ok=barrier_ok,
                          fiber_ok=fiber_ok, heights=tuple(heights), passed=passed)


# ---------------------------------------------------------------------------
# the greatest nef minorant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    positive: RotInvariantDivisor
    negative: RotInvariantDivisor
    provenance: dict


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _interval_vol(transform, a: float, b: float) -> float:
    """2 * integral of the transform over [a, b] (64-point Gauss-Legendre)."""
    if b <= a:
        return 0.0
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    pts = mid + half * _GL_NODES
    vals = np.asarray(transform(pts), dtype=float)
    return 2.0 * half * float(_GL_WEIGHTS @ vals)


def greatest_nef_minorant(dv: ToricArithDivisor, resolution: int = 2001,
                          tol: float = DEFAULT_VOL_TOL) -> Decomposition:
    """Unique Zariski decomposition of a big surface divisor.

    Nef inputs short-circuit to a zero negative part.  Otherwise the
    negative coefficients are located by nested golden section on the
    candidate volume (the transform restricted to the candidate window);
    the positive potential is the slope-constrained convex minorant above
    the nef barrier.  The positive part carries no vertical component; a
    perturbation probe recorded in the provenance confirms per run that
    vertical fibers cannot help.
    """
    if dv.d != 1:
        raise InputError("the decomposition solver works on the surface (d = 1)")
    if not is_big(dv):
        raise BignessRequiredError("Zariski decomposition computed for big divisors only")

    shift_back = dv.coeffs[1]
    base = principal_twist(dv, [-shift_back]) if shift_back != 0.0 else dv
    c0 = base.coeffs[0]
    transform = concave_transform(base)
    iv = _positive_interval_1d(transform)
    if iv is None:
        raise InfeasibleError("positive region empty for a big divisor (tolerance breakdown)")
    x_lo, x_hi = iv

    g_at = lambda x: float(transform(float(np.clip(x, 0.0, c0))))
    nef_input = g_at(0.0) >= -1e-13 and g_at(c0) >= -1e-13

    if nef_input:
        delta0, delta1 = 0.0, 0.0
    else:
        def score(d0, d1):
            # continuous merit: volume over the feasible clip of the window,
            # penalized by the transform deficit at the window ends
            e0 = c0 - d0
            if e0 < d1:
                return -1e9 * (d1 - e0 + 1.0)
            viol = max(0.0, -g_at(d1)) + max(0.0, -g_at(e0))
            lo = max(d1, x_lo)
            hi = min(e0, x_hi)
            return _interval_vol(transform, lo, hi) - viol

        def best_inner(d0):
            return golden_max(lambda t: score(d0, t), 0.0, max(c0 - d0, 0.0))

        delta0, _ = golden_max(lambda t: best_inner(t)[1], 0.0, c0)
        delta1, _ = best_inner(delta0)
        if delta0 < 1e-7:
            delta0 = 0.0
        if delta1 < 1e-7:
            delta1 = 0.0
        # the window must stay inside the positive region: clip defensively
        delta1 = max(delta1, x_lo if x_lo > 1e-12 else 0.0)
        delta0 = max(delta0, c0 - x_hi if c0 - x_hi > 1e-12 else 0.0)

    e0 = c0 - delta0
    w = rot_from_toric(base, n=resolution)
    s = w.potential.axes[0]
    if nef_input:
        h = w.potential
    else:
        barrier = GridConvexFunction(axes=(s,), values=np.maximum(delta1 * s, e0 * s),
                                     recession=((delta1, e0),))
        h = constrained_convex_minorant(w.potential, delta1, e0, barrier=barrier)
    positive = RotInvariantDivisor(e0=e0, e1=-delta1, potential=h)
    neg_pot = GridConvexFunction(axes=(s,), values=w.potential.values - h.values,
                                 recession=((-delta1, delta0),))
    negative = RotInvariantDivisor(e0=delta0, e1=delta1, potential=neg_pot)

    if shift_back != 0.0:
        positive = _principal_twist_rot(positive, shift_back)

    vol_input = vol_hat(dv)
    vol_pos = vol_rot(positive, resolution=resolution)
    probe = _vertical_probe(positive, vol_pos)
    prov = {"delta0": delta0, "delta1": delta1, "grid": resolution,
            "vol_input": vol_input, "vol_positive": vol_pos,
            "nef_short_circuit": nef_input, "vertical_probe": probe,
            "tol": tol}
    if vol_pos < vol_input - max(tol, 10 * DEFAULT_VOL_TOL):
        raise InfeasibleError(
            f"solver failed to reach the input volume: {vol_pos} vs {vol_input}", witness=prov)
    return Decomposition(positive=positive, negative=negative, provenance=prov)


def _principal_twist_rot(m: RotInvariantDivisor, k: float) -> RotInvariantDivisor:
    s = m.potential.axes[0]
    vals = m.potential.values - k * s
    rec = ((m.potential.recession[0][0] - k, m.potential.recession[0][1] - k),)
    return RotInvariantDivisor(e0=m.e0 - k, e1=m.e1 + k,
                               potential=GridConvexFunction(axes=(s,), values=vals, recession=rec),
                               vertical=m.vertical)


def _vertical_probe(positive: RotInvariantDivisor, vol_pos: float, eps: float = 0.05) -> dict:
    """Removing mass into a vertical fiber strictly loses volume."""
    perturbed = RotInvariantDivisor(e0=positive.e0, e1=positive.e1,
                                    potential=positive.potential,
                                    vertical=positive.vertical + ((2, -eps),))
    vol_pert = vol_rot(perturbed)
    return {"eps": eps, "vol_delta": vol_pert - vol_pos,
            "cannot_help": vol_pert <= vol_pos + 1e-9}


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_zariski(dv: ToricArithDivisor, dec: Decomposition,
                   tol: float = DEFAULT_VOL_TOL) -> dict:
    """Three-way check: positive part nef, negative part effective, volumes equal."""
    w = rot_from_toric(dv, n=len(dec.positive.potential.axes[0]))
    sum_e0 = dec.positive.e0 + dec.negative.e0
    sum_e1 = dec.positive.e1 + dec.negative.e1
    pot_sum = dec.positive.potential.values + dec.negative.potential.values
    vert = {}
    for p, g in dec.positive.vertical + dec.negative.vertical:
        vert[p] = vert.get(p, 0.0) + g
    consistent = (abs(sum_e0 - w.e0) <= 1e-9 and abs(sum_e1 - w.e1) <= 1e-9
                  and float(np.max(np.abs(pot_sum - w.potential.values))) <= 1e-9
                  and all(abs(g) <= 1e-12 for g in vert.values()))
    if not consistent:
        raise ConsistencyError("decomposition does not sum to the input divisor")

    cert = nef_certificate(dec.positive)
    neg = dec.negative
    effective = (neg.e0 >= -1e-12 and neg.e1 >= -1e-12
                 and float(np.min(neg.potential.values)) >= -1e-9
                 and all(g >= -1e-12 for _, g in neg.vertical))
    vol_input = vol_hat(dv)
    vol_pos = vol_rot(dec.positive)
    vol_equal = abs(vol_pos - vol_input) <= tol
    return {"nef": cert.passed, "effective": effective, "vol_equal": vol_equal,
            "pass": cert.passed and effective and vol_equal,
            "vol_input": vol_input, "vol_positive": vol_pos,
            "certificate": cert, "tol": tol}


def check_multiplicity_identity(dv: ToricArithDivisor, dec: Decomposition,
                                tol: float = 1e-3) -> dict:
    """Asymptotic multiplicities of the input equal the negative-part coefficients.

    Horizontal centers compare against the coefficients on the two sections;
    vertical fibers compare against zero.
    """
    mu_z0 = mu_R(dv, BaseCondition("hyperplane", 1, 0.0))
    mu_zinf = mu_R(dv, BaseCondition("hyperplane", 0, 0.0))
    checks = {
        "z0": {"mu": mu_z0, "mult_N": dec.negative.e1,
               "ok": abs(mu_z0 - dec.negative.e1) <= tol},
        "zinf": {"mu": mu_zinf, "mult_N": dec.negative.e0,
                 "ok": abs(mu_zinf - dec.negative.e0) <= tol},
    }
    for p, g in dec.negative.vertical:
        checks[f"fiber_{p}"] = {"mu": 0.0, "mult_N": g, "ok": abs(g) <= tol}
    checks["pass"] = all(v["ok"] for v in checks.values() if isinstance(v, dict))
    return checks


def nef_comparison_check(p: RotInvariantDivisor, q: RotInvariantDivisor,
                         vol_tol: float = 1e-9, grid_tol: float = 1e-6) -> bool:
    """Comparable nef divisors with equal positive volume must coincide.

    Returns True (after asserting coincidence within grid tolerance) when the
    volumes agree; returns False after confirming the strict volume increase
    otherwise.  Non-comparable inputs are a precondition error.
    """
    cp, cq = nef_certificate(p), nef_certificate(q)
    if not (cp.passed and cq.passed):
        raise InputError("both divisors must be nef-certified")
    if p.e0 > q.e0 + 1e-12 or p.e1 > q.e1 + 1e-12:
        raise InputError("divisors are not comparable: coefficients")
    if float(np.max(p.potential.values - q.potential.values)) > 1e-9:
        raise InputError("divisors are not comparable: potentials")
    gp = dict(p.vertical)
    gq = dict(q.vertical)
    for prime in set(gp) | set(gq):
        if gp.get(prime, 0.0) > gq.get(prime, 0.0) + 1e-12:
            raise InputError("divisors are not comparable: vertical parts")
    vol_p, vol_q = vol_rot(p), vol_rot(q)
    if abs(vol_p - vol_q) <= vol_tol and vol_p > 0:
        same = (abs(p.e0 - q.e0) <= grid_tol and abs(p.e1 - q.e1) <= grid_tol
                and float(np.max(np.abs(p.potential.values - q.potential.values))) <= grid_tol
                and gp == gq)
        if not same:
            raise ToleranceError("equal volumes but distinct comparable nef divisors")
        return True
    if vol_p > vol_q + vol_tol:
        raise ToleranceError("volume decreased along a nef inequality")
    return False


def deg_self_intersection(p, certificate: Optional[NefCertificate] = None) -> float:
    """Arithmetic self-intersection of a nef divisor, via its volume.

    For nef divisors the self-intersection number equals the volume, so the
    value is routed through the volume integral; without a passing
    certificate the identity is not claimed and the call refuses.
    """
    if isinstance(p, ToricArithDivisor):
        rot = rot_from_toric(p)
        cert = certificate or nef_certificate(rot)
        if not cert.passed:
            raise InputError("self-intersection via volume requires a nef certificate")
        return vol_hat(p)
    cert = certificate or nef_certificate(p)
    if not cert.passed:
        raise InputError("self-intersection via volume requires a nef certificate")
    return vol_rot(p)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def toric_minorant_gap_2d(dv: ToricArithDivisor, steps: int = 24,
                          refine_top: int = 5) -> dict:
    """Best toric nef minorant volume on the 2-fold family vs the input volume.

    Candidates are sub-simplex bodies cut by nonnegative coefficient trims
    ``(delta_0, delta_1, delta_2)`` with the restricted-transform potential;
    a candidate is feasible iff the transform is nonnegative at the three
    trimmed vertices.  Search on a coarse Riemann grid, then the leading
    candidates are re-evaluated by quadrature.  Reports the volume gap (no
    claim beyond the tested family).
    """
    if dv.d != 2:
        raise InputError("the minorant gap probe is for d = 2")
    transform = concave_transform(dv)
    c0 = dv.coeffs[0]
    n_r = 220
    xs = np.linspace(0, c0, n_r)
    g1, g2 = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([g1.ravel(), g2.ravel()], axis=-1)
    inside = pts.sum(axis=1) <= c0 + 1e-12
    gv = np.full(len(pts), -np.inf)
    gv[inside] = transform(pts[inside])
    gv = gv.reshape(n_r, n_r)
    cell = (c0 / (n_r - 1)) ** 2

    deltas = np.linspace(0.0, c0 * 0.98, steps)
    results = []
    for d0 in deltas:
        for d1 in deltas:
            for d2 in deltas:
                if d1 + d2 > c0 - d0 - 1e-9:
                    continue
                verts = [(d1, d2), (c0 - d0 - d2, d2), (d1, c0 - d0 - d1)]
                if any(float(transform(v)) < 0.0 for v in verts):
                    continue
                mask = (g1 >= d1 - 1e-12) & (g2 >= d2 - 1e-12) & (g1 + g2 <= c0 - d0 + 1e-12)
                vol6 = 6.0 * float(np.sum(np.where(mask, np.maximum(gv, 0.0), 0.0))) * cell
                results.append((vol6, d0, d1, d2))
    if not results:
        return {"vol_input": vol_hat(dv), "best_minorant_vol": 0.0,
                "gap": vol_hat(dv), "argmax": None}
    results.sort(reverse=True)
    best_val, best_arg = -np.inf, None
    for vol6, d0, d1, d2 in results[:refine_top]:
        region = Region(base=dv.body, constraints=(
            (np.array([-1.0, 0.0]), -d1),
            (np.array([0.0, -1.0]), -d2),
            (np.array([1.0, 1.0]), c0 - d0)))
        exact = 6.0 * integrate_positive_part(transform, region)
        if exact > best_val:
            best_val, best_arg = exact, (d0, d1, d2)
    vol_input = vol_hat(dv)
    return {"vol_input": vol_input, "best_minorant_vol": best_val,
            "gap": vol_input - best_val, "argmax": best_arg}


def vertical_drop_probe(dv: ToricArithDivisor, p: int, mu: float) -> dict:
    """Volume drop of a vertical base condition vs its linear lower bound.

    The bound ``2 mu log(p) |Theta|`` is attained exactly when the transform
    dominates ``mu log p`` on the whole positive region (the tested inputs);
    in general the true drop is the integral of ``min(G^+, mu log p)``.
    """
    from .divisor import vol_hat_base, positive_region
    vol = vol_hat(dv)
    vol_base = vol_hat_base(dv, [BaseCondition("fiber", p, mu)])
    region = positive_region(dv)
    lo, hi = region.interval()
    region_len = max(hi - lo, 0.0)
    bound = 2.0 * mu * math.log(p) * region_len
    return {"vol": vol, "vol_base": vol_base, "drop": vol - vol_base,
            "bound": bound, "region_length": region_len}


# ---------------------------------------------------------------------------
# report records (external interface)
# ---------------------------------------------------------------------------

def rot_divisor_record(m: RotInvariantDivisor) -> dict:
    s = m.potential.axes[0]
    return {"e0": m.e0, "e1": m.e1,
            "s_min": float(s[0]), "s_max": float(s[-1]),
            "potential": m.potential.values.tolist(),
            "vertical": [[p, g] for p, g in m.vertical]}


def rot_divisor_from_record(rec: dict) -> RotInvariantDivisor:
    vals = np.asarray(rec["potential"], dtype=float)
    s = np.linspace(float(rec["s_min"]), float(rec["s_max"]), len(vals))
    e0, e1 = float(rec["e0"]), float(rec["e1"])
    pot = GridConvexFunction(axes=(s,), values=vals, recession=((-e1, e0),))
    return RotInvariantDivisor(e0=e0, e1=e1, potential=pot,
                               vertical=tuple((int(p), float(g)) for p, g in rec.get("vertical", [])))


def decomposition_record(dv: ToricArithDivisor, dec: Decomposition,
                         verification: dict, mu_checks: dict) -> dict:
    cert = verification["certificate"]
    return {
        "positive": rot_divisor_record(dec.positive),
        "negative": rot_divisor_record(dec.negative),
        "vol_input": verification["vol_input"],
        "vol_positive": verification["vol_positive"],
        "nef_certificate": {
            "convex_ok": cert.convex_ok, "slope_ok": cert.slope_ok,
            "barrier_ok": cert.barrier_ok, "fiber_ok": cert.fiber_ok,
            "heights": [[label, v] for label, v in cert.heights],
            "passed": cert.passed, "sampled_necessary": cert.sampled_necessary},
        "mu_checks": {k: v for k, v in mu_checks.items() if k != "pass"},
        "pass": verification["pass"] and mu_checks["pass"],
        "provenance": dec.provenance,
    }

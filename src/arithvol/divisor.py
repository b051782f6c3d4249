"""Toric arithmetic divisors on projective space over the integers.

A divisor is a real combination of the coordinate hyperplanes together with
a rotation-invariant Green potential, written as a convex function ``u`` of
``s_i = log |z_i|^2``, plus an additive Green constant (the "twist").  The
canonical family is ``u(s) = log(a_0 + a_1 e^{s_1} + ... + a_d e^{s_d})``
with all ``a_i > 0``; scalar multiples and principal monomial twists of it
keep closed forms and are tracked symbolically.

Everything downstream is driven by the concave transform

    G(x) = -u*(x)/2 + twist/2        on the body  {x_i >= -c_i, sum x <= c_0},

which for the canonical family is the entropy-like closed form
``G(x) = (1/2) sum_i x_i log(a_i / x_i) + twist/2`` with
``x_0 = c_0 - sum x_i`` and ``0 log 0 = 0``.  Sup-norms of monomial
sections, filtration levels, arithmetic volumes (with and without base
conditions) and asymptotic multiplicities are all read off G.

Divisors, transforms and summaries are immutable; all randomized suites
take explicit seeds.  What is costly is built once and kept with the object
it belongs to: a divisor's body (its convex hull) on the divisor, on first
use, and a sampled potential's half conjugate ``-u*/2`` on the potential,
per body, so that every twist of one sampled divisor shares one Legendre
conjugation.  Closed-form transforms build no hull.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from . import convexcore
from .convexcore import (GridConvexFunction, Polytope, Region, conjugate_points_2d,
                         integrate_positive_part, legendre_conjugate, shifted_simplex)
from .errors import (BignessRequiredError, InputError, OutOfRangeError,
                     RecessionError, UnsupportedCenterError)

DEFAULT_S_RANGE = 40.0
DEFAULT_GRID_1D = 2001
DEFAULT_GRID_2D = 257
BIGNESS_TOL = 1e-12
MAX_COEFF = 1e6          # larger bodies overflow the hull and lattice arithmetic
LATTICE_LIMIT = 10 ** 6  # lattice points one level may span


# ---------------------------------------------------------------------------
# potentials and divisors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalFamily:
    """Potential ``scale * log(a_0 + sum a_i e^{s_i}) - <shift, s>``."""

    a: tuple
    scale: float = 1.0
    shift: tuple = None

    def __post_init__(self):
        a = tuple(float(x) for x in self.a)
        if any(x <= 0 for x in a):
            raise InputError(f"canonical parameters must be positive, got {a}")
        if self.scale <= 0:
            raise InputError("scale must be positive")
        shift = self.shift if self.shift is not None else (0.0,) * (len(a) - 1)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "shift", tuple(float(x) for x in shift))

    @property
    def d(self) -> int:
        return len(self.a) - 1

    def coeffs(self) -> tuple:
        c0 = self.scale - sum(self.shift)
        return (c0,) + self.shift

    def u(self, *s) -> np.ndarray:
        a = self.a
        acc = np.full_like(np.asarray(s[0], dtype=float), math.log(a[0]))
        for i in range(1, len(a)):
            acc = np.logaddexp(acc, math.log(a[i]) + np.asarray(s[i - 1], dtype=float))
        lin = sum(k * np.asarray(si, dtype=float) for k, si in zip(self.shift, s))
        return self.scale * acc - lin


@dataclass(frozen=True)
class SampledConvex:
    """Potential given by a convex grid sample of ``u(s)``.

    ``half_conjugates`` memoizes the grid axes and ``-u*/2`` on each body
    the potential is conjugated over, keyed by the divisor coefficients, so
    every twist of one sampled divisor shares one Legendre conjugation.
    """

    u: GridConvexFunction
    half_conjugates: dict = field(default_factory=dict, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class SumPotential:
    """Sum of canonical-family potentials (from divisor addition)."""

    parts: tuple

    @property
    def d(self) -> int:
        return self.parts[0].d


@dataclass(frozen=True)
class ToricArithDivisor:
    d: int
    coeffs: tuple
    potential: object
    twist: float = 0.0

    @functools.cached_property
    def body(self) -> Polytope:
        """The body ``{x_i >= -c_i, sum x <= c_0}``, built on first use and kept."""
        return shifted_simplex(self.coeffs)

    @property
    def width(self) -> float:
        return float(sum(self.coeffs))


def make_divisor(d: int, coeffs: Sequence[float], potential, twist: float = 0.0,
                 slope_tol: float = 1e-3) -> ToricArithDivisor:
    """Validated toric arithmetic divisor.

    The potential's recession structure must reproduce the body
    ``{x_i >= -c_i, sum x <= c_0}``: canonical tags are checked exactly
    against their implied coefficients, sampled potentials must have at
    least 3 nodes per axis (a second difference to check convexity by) and
    be discretely convex with boundary slopes within ``slope_tol`` of the
    declared recession bounds.
    """
    coeffs = tuple(float(c) for c in coeffs)
    twist = float(twist)
    if d < 1:
        raise InputError(f"relative dimension must be at least 1, got {d}")
    if len(coeffs) != d + 1:
        raise InputError(f"need {d + 1} hyperplane coefficients, got {len(coeffs)}")
    if not _all_finite(coeffs + (twist,), potential) or max(map(abs, coeffs)) > MAX_COEFF:
        raise InputError("coefficients, twist and potential must be finite numbers, "
                         f"coefficients at most {MAX_COEFF:g} in size")
    if isinstance(potential, CanonicalFamily):
        if potential.d != d:
            raise InputError("canonical family dimension mismatch")
        implied = potential.coeffs()
        if any(abs(x - y) > 1e-9 for x, y in zip(coeffs, implied)):
            raise RecessionError(
                f"coefficients {coeffs} incompatible with canonical potential (implied {implied})")
    elif isinstance(potential, SumPotential):
        implied = np.zeros(d + 1)
        for part in potential.parts:
            if part.d != d:
                raise InputError("sum potential dimension mismatch")
            implied += np.asarray(part.coeffs())
        if np.max(np.abs(np.asarray(coeffs) - implied)) > 1e-9:
            raise RecessionError("coefficients incompatible with potential sum")
    elif isinstance(potential, SampledConvex):
        u = potential.u
        if u.ndim != d:
            raise InputError("sampled potential dimension mismatch")
        if min(len(ax) for ax in u.axes) < 3:
            raise InputError("sampled grids need at least 3 nodes per axis")
        if not u.check_convex():
            raise InputError("sampled potential is not discretely convex")
        width = sum(coeffs)
        for i in range(d):
            lo_exp = -coeffs[1 + i]
            hi_exp = width - coeffs[1 + i]
            rlo, rhi = u.recession[i]
            if abs(rlo - lo_exp) > 1e-6 or abs(rhi - hi_exp) > 1e-6:
                raise RecessionError(
                    f"axis {i}: recession {(rlo, rhi)} vs divisor bounds {(lo_exp, hi_exp)}")
        if d == 1:
            slo, shi = u.edge_slopes()
            if slo < u.recession[0][0] - slope_tol or shi > u.recession[0][1] + slope_tol:
                raise RecessionError("sampled potential slopes escape the recession range")
            if (slo - u.recession[0][0] > max(0.2, slope_tol * 100)
                    or u.recession[0][1] - shi > max(0.2, slope_tol * 100)):
                raise RecessionError("sampled grid too narrow: edge slopes far from recession")
    else:
        raise InputError(f"unknown potential type {type(potential).__name__}")
    return ToricArithDivisor(d=d, coeffs=coeffs, potential=potential, twist=twist)


def _all_finite(numbers: tuple, potential) -> bool:
    """Whether the numbers and every parameter or sample of the potential are finite."""
    if isinstance(potential, SampledConvex):
        params = potential.u.values.ravel()
    else:
        parts = potential.parts if isinstance(potential, SumPotential) else (potential,)
        params = [x for p in parts if isinstance(p, CanonicalFamily)
                  for x in (*p.a, p.scale, *p.shift)]
    return bool(np.isfinite(np.concatenate([numbers, params])).all())


def canonical_divisor(a: Sequence[float], twist: float = 0.0) -> ToricArithDivisor:
    """The divisor ``(H_0, log(a_0 + sum a_i |z_i|^2))`` plus a twist."""
    fam = CanonicalFamily(a=tuple(a))
    return make_divisor(fam.d, fam.coeffs(), fam, twist)


def is_effective(dv: ToricArithDivisor, grid: int = 4001) -> bool:
    """Nonnegative coefficients and pointwise nonnegative Green function."""
    if any(c < -1e-12 for c in dv.coeffs):
        return False
    pot = dv.potential
    if isinstance(pot, CanonicalFamily) and not any(pot.shift):
        return pot.scale * math.log(pot.a[0]) + dv.twist >= -1e-12
    return _potential_min(dv, grid) + dv.twist >= -1e-12


def _potential_min(dv: ToricArithDivisor, grid: int = 2001) -> float:
    pot = dv.potential
    if isinstance(pot, SampledConvex):
        return float(np.min(pot.u.values))
    s = np.linspace(-DEFAULT_S_RANGE, DEFAULT_S_RANGE, grid)
    if dv.d == 1:
        return float(np.min(_potential_values(dv, (s,))))
    g1, g2 = np.meshgrid(s[::8], s[::8], indexing="ij")
    return float(np.min(_potential_values(dv, (g1, g2))))


def _potential_values(dv: ToricArithDivisor, axes_or_grids):
    """Untwisted potential ``u`` at broadcastable coordinate arrays ``(s_1, ..., s_d)``."""
    pot = dv.potential
    if isinstance(pot, CanonicalFamily):
        return pot.u(*axes_or_grids)
    if isinstance(pot, SumPotential):
        return sum(p.u(*axes_or_grids) for p in pot.parts)
    if dv.d == 1:
        return pot.u(axes_or_grids[0])
    pts = np.stack(np.broadcast_arrays(*axes_or_grids), axis=-1)
    return pot.u(pts.reshape(-1, dv.d)).reshape(pts.shape[:-1])


def sampled_from_divisor(dv: ToricArithDivisor, s_range: float = DEFAULT_S_RANGE,
                         n: int = DEFAULT_GRID_1D) -> GridConvexFunction:
    """Grid sample of the (untwisted) potential with divisor recession data."""
    if isinstance(dv.potential, SampledConvex):
        return dv.potential.u
    width = dv.width
    rec = tuple((-dv.coeffs[1 + i], width - dv.coeffs[1 + i]) for i in range(dv.d))
    if dv.d == 1:
        s = np.linspace(-s_range, s_range, n)
        return GridConvexFunction(axes=(s,), values=np.asarray(_potential_values(dv, (s,))),
                                  recession=rec)
    n2 = min(n, DEFAULT_GRID_2D)
    s = np.linspace(-s_range, s_range, n2)
    g1, g2 = np.meshgrid(s, s, indexing="ij")
    return GridConvexFunction(axes=(s, s), values=np.asarray(_potential_values(dv, (g1, g2))),
                              recession=rec)


# ---------------------------------------------------------------------------
# divisor algebra
# ---------------------------------------------------------------------------

def with_twist(dv: ToricArithDivisor, delta: float) -> ToricArithDivisor:
    """Add the Green constant ``(0, delta)``."""
    return ToricArithDivisor(dv.d, dv.coeffs, dv.potential, dv.twist + float(delta))


def principal_twist(dv: ToricArithDivisor, k: Sequence[float]) -> ToricArithDivisor:
    """Add the principal divisor of the monomial with exponents ``k``.

    Coefficients and potential shift together; every asymptotic quantity at a
    fixed center is invariant under this operation.
    """
    k = tuple(float(x) for x in k)
    if len(k) != dv.d:
        raise InputError("exponent vector has wrong length")
    coeffs = (dv.coeffs[0] - sum(k),) + tuple(c + x for c, x in zip(dv.coeffs[1:], k))
    pot = dv.potential
    if isinstance(pot, CanonicalFamily):
        new = CanonicalFamily(a=pot.a, scale=pot.scale,
                              shift=tuple(s + x for s, x in zip(pot.shift, k)))
    elif isinstance(pot, SumPotential):
        first = pot.parts[0]
        shifted = CanonicalFamily(a=first.a, scale=first.scale,
                                  shift=tuple(s + x for s, x in zip(first.shift, k)))
        new = SumPotential(parts=(shifted,) + pot.parts[1:])
    else:
        u = pot.u
        lin = np.zeros_like(u.values)
        if u.ndim == 1:
            lin = k[0] * u.axes[0]
        else:
            g = np.meshgrid(*u.axes, indexing="ij")
            lin = sum(ki * gi for ki, gi in zip(k, g))
        rec = tuple((lo - ki, hi - ki) for (lo, hi), ki in zip(u.recession, k))
        new = SampledConvex(GridConvexFunction(axes=u.axes, values=u.values - lin,
                                               recession=rec, mask=u.mask))
    return make_divisor(dv.d, coeffs, new, dv.twist)


def scale_divisor(dv: ToricArithDivisor, t: float) -> ToricArithDivisor:
    """The divisor ``t * D`` (coefficients, potential and twist all scale)."""
    if t <= 0:
        raise InputError("scale factor must be positive")
    coeffs = tuple(t * c for c in dv.coeffs)
    pot = dv.potential
    if isinstance(pot, CanonicalFamily):
        new = CanonicalFamily(a=pot.a, scale=t * pot.scale,
                              shift=tuple(t * s for s in pot.shift))
    elif isinstance(pot, SumPotential):
        new = SumPotential(parts=tuple(
            CanonicalFamily(a=p.a, scale=t * p.scale, shift=tuple(t * s for s in p.shift))
            for p in pot.parts))
    else:
        u = pot.u
        rec = tuple((t * lo, t * hi) for lo, hi in u.recession)
        new = SampledConvex(GridConvexFunction(axes=u.axes, values=t * u.values,
                                               recession=rec, mask=u.mask))
    return make_divisor(dv.d, coeffs, new, t * dv.twist)


def add_divisors(a: ToricArithDivisor, b: ToricArithDivisor) -> ToricArithDivisor:
    """Sum of two divisors with closed-form potentials."""
    if a.d != b.d:
        raise InputError("dimension mismatch")
    parts = []
    for dv in (a, b):
        if isinstance(dv.potential, CanonicalFamily):
            parts.append(dv.potential)
        elif isinstance(dv.potential, SumPotential):
            parts.extend(dv.potential.parts)
        else:
            raise InputError("divisor addition needs closed-form potentials")
    coeffs = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
    return make_divisor(a.d, coeffs, SumPotential(parts=tuple(parts)), a.twist + b.twist)


# ---------------------------------------------------------------------------
# concave transform
# ---------------------------------------------------------------------------

def _entropy_slice_max(a_params, subset, t):
    """max of the normalized entropy form on the slice ``sum_{i in S} y_i = t``.

    Closed form: grouping the simplex coordinates into S and its complement
    concentrates each group at proportional weights.
    """
    a_in = sum(a_params[i] for i in subset)
    a_out = sum(a_params[i] for i in range(len(a_params)) if i not in subset)
    t = float(t)
    if t < -1e-12 or t > 1.0 + 1e-12:
        return -np.inf
    t = min(max(t, 0.0), 1.0)
    val = 0.0
    if t > 0:
        val += t * math.log(a_in / t)
    if 1.0 - t > 0:
        val += (1.0 - t) * math.log(a_out / (1.0 - t))
    return 0.5 * val


class ConcaveTransform:
    """The concave transform G on the divisor body.

    Immutable; callable on points (scalar for d=1, pair for d=2, or arrays of
    such).  The evaluator is batch-only, ``(N, d)`` points to ``(N,)``
    values; the scalar-or-array handling lives here.  Grid transforms carry
    their node values in ``grid_values``; closed forms have none.
    """

    def __init__(self, divisor: ToricArithDivisor, evaluator: Callable,
                 grid_axes=None, grid_values=None):
        self.divisor = divisor
        self.lam = divisor.twist
        self._eval = evaluator
        self.grid_axes = grid_axes
        self.grid_values = grid_values

    @property
    def domain(self) -> Polytope:
        """The divisor body; read on demand, so closed forms that never ask build no hull."""
        return self.divisor.body

    @property
    def closed_form(self) -> bool:
        """Whether evaluation is exact (no grid conjugate behind it)."""
        return self.grid_values is None

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        d = self.divisor.d
        vals = self._eval(x.reshape(-1, d))
        if x.ndim == (0 if d == 1 else 1):
            return float(vals[0])
        return vals.reshape(x.shape if d == 1 else x.shape[:-1])

    def max_value(self) -> float:
        pot = self.divisor.potential
        if isinstance(pot, CanonicalFamily):
            return pot.scale * 0.5 * math.log(sum(pot.a)) + self.lam / 2
        if isinstance(pot, SumPotential):
            return sum(p.scale * 0.5 * math.log(sum(p.a)) for p in pot.parts) + self.lam / 2
        return float(np.nanmax(self.grid_values)) + 0.0

    def argmax(self) -> np.ndarray:
        """A maximizer of the transform on the body."""
        pot = self.divisor.potential
        if isinstance(pot, CanonicalFamily):
            a = np.asarray(pot.a)
            return pot.scale * a[1:] / a.sum() - np.asarray(pot.shift)
        if isinstance(pot, SumPotential):
            out = np.zeros(self.divisor.d)
            for p in pot.parts:
                a = np.asarray(p.a)
                out += p.scale * a[1:] / a.sum() - np.asarray(p.shift)
            return out
        flat = int(np.nanargmax(self.grid_values))
        idx = np.unravel_index(flat, self.grid_values.shape)
        return np.array([self.grid_axes[i][idx[i]] for i in range(len(idx))])

    def values_on(self, pts) -> np.ndarray:
        """Values at a flat batch of points, always an ``(N,)`` array."""
        return self._eval(np.asarray(pts, dtype=float).reshape(-1, self.divisor.d))

    def lattice_values(self, pts) -> list:
        """Values at the ``(N, d)`` points ``m / n`` of a filtration level, as floats.

        The whole batch is read at once.  Closed forms and sampled d=1
        transforms take one :meth:`values_on` call; their evaluators work
        elementwise, so each value equals a one-point read bit for bit.  A
        sampled d=2 transform's bilinear grid reads low where the body's
        slanted edge cuts a cell, so there ``-u*/2 + twist/2`` is conjugated
        at exactly each point (equal to ``grid_values`` at grid nodes).
        """
        dv = self.divisor
        if dv.d == 2 and not self.closed_form:
            half = -0.5 * conjugate_points_2d(dv.potential.u, pts)
            return (half + dv.twist / 2.0).tolist()
        return self.values_on(pts).tolist()


def _canonical_G(pot: CanonicalFamily, lam: float):
    """``scale * ½ Σ_i y_i log(a_i / y_i) + lam/2`` at ``y = (pts + shift) / scale``, ``y_0 = 1 - Σ y``.

    One pass over the ``(N, d+1)`` coordinates, summed left to right from ``y_0``;
    ``0 log 0 := 0`` on ``[-1e-9, 0]`` and ``-inf`` below it, outside the body.
    """
    log_a = np.log(np.asarray(pot.a, dtype=float))
    scale = pot.scale
    shift = np.asarray(pot.shift)

    def G(pts):
        y = (pts + shift) / scale
        t = np.concatenate([1.0 - y.sum(axis=-1, keepdims=True), y], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = t * (log_a - np.log(t))
        terms = np.where(t > 0.0, terms, np.where(t < -1e-9, -np.inf, 0.0))
        total = terms[:, 0]
        for i in range(1, terms.shape[1]):
            total = total + terms[:, i]
        return scale * (0.5 * total) + lam / 2.0

    return G


def _sum_G(pot: SumPotential, lam: float, d: int):
    """Sup-convolution of two d = 1 canonical transforms, one line search per point."""
    if d != 1:
        raise InputError("sum-potential transforms implemented for d = 1")
    gs = [_canonical_G(p, 0.0) for p in pot.parts]
    los = [-p.shift[0] for p in pot.parts]
    his = [p.scale - p.shift[0] for p in pot.parts]

    def G(pts):
        if len(gs) != 2:
            raise InputError("sum potentials support two parts")
        x = pts[:, 0]
        # the first part takes y, the second x - y
        lo = np.maximum(los[0], x - his[1])
        hi = np.minimum(his[0], x - los[1])
        val = lambda y: gs[0](y[:, None]) + gs[1]((x - y)[:, None])
        _, best = convexcore.golden_max(val, lo, hi, xtol=1e-13)
        return np.where(hi < lo - 1e-12, -np.inf, best + lam / 2.0)

    return G


def concave_transform(dv: ToricArithDivisor) -> ConcaveTransform:
    """The transform ``G = -u*/2 + twist/2`` on the divisor body.

    Canonical-family divisors (and their scalar multiples, principal twists
    and two-term sums) evaluate in closed form; sampled potentials go through
    the grid Legendre conjugate, computed once per potential and body (see
    :class:`SampledConvex`) and shifted by each divisor's twist.
    """
    pot = dv.potential
    if isinstance(pot, CanonicalFamily):
        return ConcaveTransform(dv, _canonical_G(pot, dv.twist))
    if isinstance(pot, SumPotential):
        return ConcaveTransform(dv, _sum_G(pot, dv.twist, dv.d))

    if dv.coeffs not in pot.half_conjugates:
        res = DEFAULT_GRID_1D if dv.d == 1 else DEFAULT_GRID_2D
        conj = legendre_conjugate(pot.u, dv.body, resolution=res, refine=True)
        pot.half_conjugates[dv.coeffs] = (conj.axes, -0.5 * conj.values)
    axes, half = pot.half_conjugates[dv.coeffs]
    gv = half + dv.twist / 2.0
    if dv.d == 1:
        ax = axes[0]
        return ConcaveTransform(dv, lambda pts: np.interp(pts[:, 0], ax, gv),
                                grid_axes=axes, grid_values=gv)
    from scipy.interpolate import RegularGridInterpolator
    itp = RegularGridInterpolator(axes, gv, bounds_error=False, fill_value=None)
    return ConcaveTransform(dv, itp, grid_axes=axes, grid_values=gv)


# ---------------------------------------------------------------------------
# positive region, volumes
# ---------------------------------------------------------------------------

def _positive_interval_1d(transform: ConcaveTransform, tol: float = 1e-13):
    """Support of the positive part of a 1-d transform (closure).

    Concavity pins the structure: a single interval around the maximizer,
    with both endpoints found together by Brent's method toward the body ends.
    """
    dom = transform.domain
    lo = float(dom.vertices[:, 0].min())
    hi = float(dom.vertices[:, 0].max())
    x_star = float(np.clip(transform.argmax()[0], lo, hi))
    f_lo, f_hi, f_star = transform.values_on([lo, hi, x_star]).tolist()
    if f_star <= 0.0:
        if f_star == 0.0:
            return (x_star, x_star)
        return None
    ends = [(lo, x_star, f_lo, f_star), (x_star, hi, f_star, f_hi)]
    inside = [f_lo >= 0.0, f_hi >= 0.0]      # an end with G >= 0 is its own endpoint
    roots = iter(convexcore.brent_roots(transform.values_on,
                                        [e for e, ok in zip(ends, inside) if not ok], tol))
    return (lo if inside[0] else next(roots), hi if inside[1] else next(roots))


def positive_region(dv: ToricArithDivisor) -> Region:
    """Closure of ``{ x in the body : G(x) > 0 }`` (empty iff max G <= 0).

    Convex: the superlevel set of a concave function.  In one variable it is
    returned as an interval cut of the body; in two variables the region
    carries the superlevel indicator.
    """
    transform = concave_transform(dv)
    body = dv.body
    if dv.d == 1:
        iv = _positive_interval_1d(transform)
        if iv is None:
            return Region(base=body, constraints=((np.array([1.0]), body.vertices[:, 0].min() - 1.0),))
        lo, hi = iv
        return Region(base=body, constraints=((np.array([-1.0]), -lo), (np.array([1.0]), hi)))
    ind = lambda pts: transform.values_on(pts) >= -1e-12
    return Region(base=body, constraints=(), indicator=ind)


def _grid_positive_mass(transform: ConcaveTransform, interval, shift: float = 0.0) -> float:
    """Exact positive-part integral of a 1-d grid transform over an interval."""
    x = transform.grid_axes[0]
    g = transform.grid_values - shift
    lo, hi = interval
    if hi <= lo:
        return 0.0
    keep = (x >= lo - 1e-15) & (x <= hi + 1e-15)
    xs = np.concatenate([[lo], x[keep], [hi]])
    gs = np.concatenate([[np.interp(lo, x, g)], g[keep], [np.interp(hi, x, g)]])
    order = np.argsort(xs)
    return convexcore.pl_positive_integral(xs[order], gs[order])


def vol_hat(dv: ToricArithDivisor) -> float:
    """Arithmetic volume ``(d+1)! * integral of max(G, 0)`` over the body.

    Positive exactly on the big cone; for the canonical family with twist
    ``lam`` that is ``sum(a) * e^lam > 1``.  This is :func:`vol_hat_base`
    with no base conditions.
    """
    return vol_hat_base(dv, ())


@dataclass(frozen=True)
class BaseCondition:
    """Center (hyperplane, torus-fixed point, or vertical fiber) plus a bound."""

    kind: str                  # "hyperplane" | "point" | "fiber"
    index: int                 # hyperplane/point index, or the prime p
    bound: float = 0.0

    def __post_init__(self):
        if self.kind not in ("hyperplane", "point", "fiber"):
            raise UnsupportedCenterError(f"unknown center kind {self.kind!r}")
        if self.bound < 0:
            raise InputError("multiplicity bound must be >= 0")
        if self.kind == "fiber":
            p = self.index
            if p < 2 or any(p % q == 0 for q in range(2, int(math.isqrt(p)) + 1)):
                raise InputError(f"{p} is not prime")


def _horizontal_constraint(dv: ToricArithDivisor, cond: BaseCondition):
    """Halfspace ``normal . x <= offset`` carved by one horizontal condition."""
    d, c = dv.d, dv.coeffs
    mu = cond.bound
    i = cond.index
    if cond.kind == "hyperplane":
        if i == 0:
            return np.ones(d), c[0] - mu
        if not 1 <= i <= d:
            raise UnsupportedCenterError(f"hyperplane index {i} out of range")
        normal = np.zeros(d)
        normal[i - 1] = -1.0
        return normal, c[i] - mu
    if cond.kind == "point":
        if i == 0:
            return -np.ones(d), sum(c[1:]) - mu
        if not 1 <= i <= d:
            raise UnsupportedCenterError(f"point index {i} out of range")
        normal = np.zeros(d)
        normal[i - 1] = 1.0
        return normal, c[0] + sum(c[1:]) - c[i] - mu
    raise UnsupportedCenterError(cond.kind)


def vol_hat_base(dv: ToricArithDivisor, conditions: Sequence[BaseCondition]) -> float:
    """Arithmetic volume under base conditions.

    Horizontal centers cut the body by linear constraints; vertical fibers at
    ``p`` lower the integrand by ``mu log p``.  With no conditions, or with
    every bound zero, this is :func:`vol_hat`; it never exceeds it.
    """
    shift = sum((c.bound * math.log(c.index) for c in conditions if c.kind == "fiber"), 0.0)
    constraints = tuple(_horizontal_constraint(dv, c) for c in conditions if c.kind != "fiber")
    transform = concave_transform(dv)
    if transform.closed_form and transform.max_value() <= shift:
        return 0.0
    region = Region(base=dv.body, constraints=constraints)
    if not transform.closed_form and dv.d == 1:
        if region.is_empty():
            return 0.0
        return math.factorial(2) * _grid_positive_mass(transform, region.interval(), shift)
    return math.factorial(dv.d + 1) * integrate_positive_part(transform, region, shift=shift)


# ---------------------------------------------------------------------------
# filtration summary
# ---------------------------------------------------------------------------

def admissible_monomials(dv: ToricArithDivisor, n: int) -> np.ndarray:
    """Exponents m with ``n D + (z^m) >= 0`` (integer points of n * body).

    One ``(N, d)`` integer array, rows in lexicographic order.
    """
    if n < 1:
        raise InputError("level must be >= 1")
    c = dv.coeffs
    lows = [math.ceil(-n * c[1 + i] - 1e-9) for i in range(dv.d)]
    top = int(math.floor(n * sum(c) + 1e-9))
    if math.prod(top + 1 - lo for lo in lows) > LATTICE_LIMIT:
        raise InputError(f"level {n} spans more than {LATTICE_LIMIT:,} lattice points")
    if dv.d == 1:
        hi = math.floor(n * c[0] + 1e-9)
        return np.arange(lows[0], hi + 1).reshape(-1, 1)
    grids = np.meshgrid(*(np.arange(lo, top + 1) for lo in lows), indexing="ij")
    ms = np.stack([g.ravel() for g in grids], axis=-1)
    return ms[ms.sum(axis=1) <= n * c[0] + 1e-9]


def log_sup_norm_monomial(dv: ToricArithDivisor, n: int, m: Sequence[int]) -> float:
    """log of the sup-norm of ``z^m`` as a section of ``n * D``."""
    m = tuple(int(x) for x in np.atleast_1d(m))
    c = dv.coeffs
    if any(mi + n * ci < -1e-9 for mi, ci in zip(m, c[1:])) or sum(m) > n * c[0] + 1e-9:
        raise OutOfRangeError(f"monomial {m} not admissible at level {n}")
    g = concave_transform(dv).lattice_values(np.asarray([m], dtype=float) / n)[0]
    return -n * g


def sup_norm_monomial(dv: ToricArithDivisor, n: int, m: Sequence[int]) -> float:
    """Sup-norm ``sup |z^m| e^{-n g / 2}``.

    Canonical family closed form:
    ``norm^2 = e^{-n lam} prod_i (m_i / (n a_i))^{m_i}`` with
    ``m_0 = n - |m|`` and ``0^0 = 1``.  An integer multiple ``c z^m`` is an
    integral section iff ``|c| * norm <= 1``.
    """
    return math.exp(log_sup_norm_monomial(dv, n, m))


@dataclass(frozen=True)
class FiltrationSummary:
    """Per-monomial filtration levels ``t = -log ||z^m||`` at one degree."""

    n: int
    t_values: dict
    e_min: float
    e_max: float
    growth_constant: float     # valid bound: e_max <= C n for all n >= 1

    def __post_init__(self):
        if self.e_min > self.e_max + 1e-12:
            raise InputError("e_min exceeds e_max")


def filtration_summary(dv: ToricArithDivisor, n: int) -> FiltrationSummary:
    """Filtration data of the full monomial basis at level ``n``.

    ``e_max`` is the largest level at which the filtration is nonzero and
    ``e_min`` the level where it stops being everything; on the monomial
    basis these are the extreme values of ``t``.
    """
    transform = concave_transform(dv)
    monomials = admissible_monomials(dv, n)
    gs = transform.lattice_values(monomials / n)
    ts = {m: n * g for m, g in zip(map(tuple, monomials.tolist()), gs)}
    if not ts:
        raise OutOfRangeError(f"no admissible monomials at level {n}")
    e_min = min(ts.values())
    e_max = max(ts.values())
    c = transform.max_value() + 1.0
    return FiltrationSummary(n=n, t_values=ts, e_min=e_min, e_max=e_max, growth_constant=c)


# ---------------------------------------------------------------------------
# asymptotic multiplicity
# ---------------------------------------------------------------------------

def is_big(dv: ToricArithDivisor) -> bool:
    transform = concave_transform(dv)
    if transform.closed_form:
        return transform.max_value() > BIGNESS_TOL
    return float(np.nanmax(transform.grid_values)) > 1e-9


def _positive_extreme_subset(dv: ToricArithDivisor, subset, want_max: bool) -> float:
    """Extreme of ``sum_{i in subset} y_i`` over the normalized positive region.

    Closed-form path for canonical-family potentials: the restricted maximum
    of the transform over each slice has an explicit two-group entropy form,
    and the extreme slice is found by bisection on it.
    """
    pot = dv.potential
    lam = dv.twist
    if isinstance(pot, CanonicalFamily):
        scale = pot.scale
        tau = -lam / (2.0 * scale)
        a = pot.a
        aset = [i + 1 for i in subset]
        slice_max = lambda t: _entropy_slice_max(a, aset, t)
        t_star = sum(a[i] for i in aset) / sum(a)
        top = slice_max(t_star)
        if top < tau - 1e-15:
            raise BignessRequiredError("positive region is empty")
        f = lambda t: slice_max(t) - tau
        if want_max:
            if f(1.0) >= 0:
                return 1.0
            return brentq(f, t_star, 1.0, xtol=1e-14)
        if f(0.0) >= 0:
            return 0.0
        return brentq(f, 1e-300, t_star, xtol=1e-14)
    raise InputError("subset reduction requires a canonical potential")


def mu_R(dv: ToricArithDivisor, center: BaseCondition) -> float:
    """Asymptotic multiplicity at a center, for big divisors.

    Horizontal centers: the minimum of the corresponding linear multiplicity
    functional over the closed positive region of the transform.  Vertical
    fibers: zero (a unit-content section exists whenever the region is
    nonempty).
    """
    if not is_big(dv):
        raise BignessRequiredError("asymptotic multiplicity computed only for big divisors")
    if center.kind == "fiber":
        return 0.0
    d, c = dv.d, dv.coeffs
    pot = dv.potential
    i = center.index
    if not 0 <= i <= d:
        raise UnsupportedCenterError(f"{center.kind} index {i} out of range")
    # the coordinate sum of a center (all coordinates for index 0, x_i else)
    # enters at its largest over the region for H_0 and P_i (i >= 1), else at its smallest
    want_max = (center.kind == "hyperplane") == (i == 0)

    if isinstance(pot, CanonicalFamily):
        subset = list(range(d)) if i == 0 else [i - 1]
        t = _positive_extreme_subset(dv, subset, want_max)
        return pot.scale * (1.0 - t) if want_max else pot.scale * t

    # generic path: minimize the functional over the positive region
    if d == 1:
        iv = _positive_interval_1d(concave_transform(dv))
        if iv is None:
            raise BignessRequiredError("positive region is empty")
        lo, hi = iv
        return (c[0] - hi) if want_max else (lo + c[1])
    normal, offset = _horizontal_constraint(dv, BaseCondition(center.kind, i, 0.0))
    # functional value is offset - normal . x minimized <=> max normal . x
    region = positive_region(dv)
    axes = np.linspace(0, 1, 513)
    verts = dv.body.vertices
    pts = np.stack(np.meshgrid(axes * dv.width + verts[:, 0].min(),
                               axes * dv.width + verts[:, 1].min(),
                               indexing="ij"), axis=-1).reshape(-1, 2)
    inside = region.contains(pts)
    if not inside.any():
        raise BignessRequiredError("positive region is empty")
    vals = offset - pts[inside] @ normal
    return float(vals.min())


def mu_monotone_continuity_profile(dv: ToricArithDivisor, lam_grid: Sequence[float],
                                   center: BaseCondition):
    """Multiplicity along a twist grid; nonincreasing with finite slope.

    Raises per-point bigness errors when the grid leaves the big cone.
    """
    out = []
    for lam in lam_grid:
        twisted = with_twist(dv, float(lam))
        if not is_big(twisted):
            raise BignessRequiredError(f"divisor leaves the big cone at twist {lam}")
        out.append((float(lam), mu_R(twisted, center)))
    return out


def profile_lipschitz(profile) -> float:
    """Largest discrete slope magnitude of a twist profile."""
    best = 0.0
    for (l0, m0), (l1, m1) in zip(profile, profile[1:]):
        if l1 > l0:
            best = max(best, abs(m1 - m0) / (l1 - l0))
    return best


# ---------------------------------------------------------------------------
# elementary-law suite for the multiplicity
# ---------------------------------------------------------------------------

def multiplicity_law_suite(dv: ToricArithDivisor, ev: ToricArithDivisor,
                          phi_exponents: Sequence[float], a_scalar: float,
                          center: BaseCondition, oracle_levels=(25, 50),
                          tol: float = 1e-9) -> dict:
    """Check the elementary multiplicity laws on a pair of big divisors.

    Returns a report dict with one entry per law: subadditivity under sums,
    the order inequality for comparable divisors, invariance under principal
    monomial twists, positive homogeneity, the sandwich between 0 and the
    level-n upper bounds, and vanishing for nef-and-big inputs.
    """
    from . import oracle as _oracle

    report = {}
    mu_d = mu_R(dv, center)
    mu_e = mu_R(ev, center)

    total = add_divisors(dv, ev)
    mu_sum = mu_R(total, center)
    report["subadditivity"] = {
        "ok": mu_sum <= mu_d + mu_e + tol,
        "lhs": mu_sum, "rhs": mu_d + mu_e}

    mult_diff = _center_multiplicity_of_divisor(ev, center)
    report["order"] = {
        "ok": (not is_effective(ev)) or mu_sum <= mu_d + mult_diff + tol,
        "lhs": mu_sum, "rhs": mu_d + mult_diff,
        "applicable": bool(is_effective(ev))}

    twisted = principal_twist(dv, phi_exponents)
    mu_twisted = mu_R(twisted, center)
    report["principal_invariance"] = {
        "ok": abs(mu_twisted - mu_d) <= tol, "lhs": mu_twisted, "rhs": mu_d}

    scaled = scale_divisor(dv, a_scalar)
    mu_scaled = mu_R(scaled, center)
    report["homogeneity"] = {
        "ok": abs(mu_scaled - a_scalar * mu_d) <= tol,
        "lhs": mu_scaled, "rhs": a_scalar * mu_d}

    approx = _oracle.mu_Q_approx(dv, center, list(oracle_levels))
    upper = min((v for _, v in approx.values), default=math.inf)
    report["sandwich"] = {
        "ok": (mu_d >= -tol) and (mu_d <= upper + tol),
        "lower": 0.0, "value": mu_d, "upper": upper}

    pot = dv.potential
    nef = isinstance(pot, CanonicalFamily) and not any(pot.shift) and \
        all(pot.scale * math.log(ai) + dv.twist >= -1e-15 for ai in pot.a)
    report["nef_vanishing"] = {
        "applicable": bool(nef),
        "ok": (not nef) or mu_d == 0.0,
        "value": mu_d}
    report["ok"] = all(v["ok"] for k, v in report.items() if isinstance(v, dict))
    return report


def _center_multiplicity_of_divisor(dv: ToricArithDivisor, center: BaseCondition) -> float:
    """Multiplicity of the divisor itself (no section) at a center."""
    c = dv.coeffs
    if center.kind == "fiber":
        return 0.0
    i = center.index
    if center.kind == "hyperplane":
        return float(c[i])
    return float(sum(c) - c[i])


# ---------------------------------------------------------------------------
# divisor records (external interface)
# ---------------------------------------------------------------------------

def divisor_record(dv: ToricArithDivisor) -> dict:
    pot = dv.potential
    if isinstance(pot, CanonicalFamily):
        rec = {"kind": "canonical", "a": list(pot.a)}
        if pot.scale != 1.0:
            rec["scale"] = pot.scale
        if any(pot.shift):
            rec["shift"] = list(pot.shift)
    elif isinstance(pot, SampledConvex):
        u = pot.u
        rec = {"kind": "sampled",
               "s_min": float(u.axes[0][0]), "s_max": float(u.axes[0][-1]),
               "values": u.values.tolist()}
    else:
        rec = {"kind": "sum",
               "parts": [divisor_record(make_divisor(p.d, p.coeffs(), p))["potential"]
                         for p in pot.parts]}
    return {"d": dv.d, "coeffs": list(dv.coeffs), "potential": rec, "twist": dv.twist}


def _canonical_from_record(pot: dict, d: int) -> CanonicalFamily:
    return CanonicalFamily(a=tuple(float(x) for x in pot["a"]),
                           scale=float(pot.get("scale", 1.0)),
                           shift=tuple(float(x) for x in pot.get("shift", [0.0] * d)))


def divisor_from_record(rec: dict) -> ToricArithDivisor:
    """Divisor from its record; any unreadable field is an :class:`InputError`."""
    try:
        d = int(rec["d"])
        coeffs = [float(c) for c in rec["coeffs"]]
        twist = float(rec.get("twist", 0.0))
        pot = rec["potential"]
        kind = pot["kind"]
        if kind == "canonical":
            potential = _canonical_from_record(pot, d)
        elif kind == "sum":
            potential = SumPotential(parts=tuple(_canonical_from_record(p, d) for p in pot["parts"]))
        elif kind == "sampled":
            values = np.asarray(pot["values"], dtype=float)
            s_min, s_max = float(pot["s_min"]), float(pot["s_max"])
            if not math.isfinite(s_max - s_min):
                raise InputError(f"sampled grid range [{s_min}, {s_max}] must be finite")
            width = sum(coeffs)
            rec_slopes = tuple((-coeffs[1 + i], width - coeffs[1 + i]) for i in range(d))
            if d == 1:
                axes = (np.linspace(s_min, s_max, len(values)),)
            else:
                axes = tuple(np.linspace(s_min, s_max, n) for n in values.shape)
            potential = SampledConvex(GridConvexFunction(axes=axes, values=values,
                                                         recession=rec_slopes))
        else:
            raise InputError(f"unknown potential kind {kind!r}")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise InputError(f"malformed divisor record: {exc}") from None
    return make_divisor(d, coeffs, potential, twist)

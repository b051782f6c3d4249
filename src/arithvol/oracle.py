"""Brute-force ground truth for the closed forms.

Enumerates integral monomial sections of multiples of a divisor, counts
lattice boxes, forms level-n upper bounds for asymptotic multiplicities, and
maximizes section norms numerically without touching the conjugate-based
formulas.  The box count differs from the true section count by
O(n^d log n), which vanishes in the volume normalization; the discrepancy
is calibrated once against exact enumeration at tiny levels.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .convexcore import golden_max
from .divisor import (BaseCondition, CanonicalFamily, ToricArithDivisor,
                      _potential_values, admissible_monomials, concave_transform)
from .errors import InputError

_GUARD = 1e-9


@dataclass(frozen=True)
class SectionEntry:
    exponents: tuple
    log_radius: float                      # log(1 / norm)
    radius_ratio: Optional[tuple] = None   # exact squared radius, unreduced (num, den)

    @property
    def radius_sq(self) -> Optional[Fraction]:
        """The exact squared radius, or None where only ``log_radius`` is known."""
        return None if self.radius_ratio is None else Fraction(*self.radius_ratio)


@dataclass(frozen=True)
class SectionEnumeration:
    level: int
    entries: tuple
    conditions: tuple

    def __len__(self):
        return len(self.entries)


def _exact_radii_sq(a, n: int, exponents) -> list:
    """``R^2 = prod (n a_i / m_i)^{m_i}`` per monomial, as unreduced integer ratios ``(num, den)``.

    Each ``a_i`` enters as ``float.as_integer_ratio() = (p_i, 2^s_i)``, so
    ``den = prod m_i^{m_i} << sum s_i m_i``.  Nothing is reduced: non-dyadic
    ``a_i`` carry ``2^53`` denominators, and the gcds of a ``Fraction``
    would cost more than every use of the ratio.  The powers come from
    per-level tables over ``k = 0..n``, which hold every ``m_i`` once all
    are nonnegative; a monomial with a negative one has no exact radius.
    """
    ratios = [a_i.as_integer_ratio() for a_i in a]
    num_pows = [list(itertools.accumulate(itertools.repeat(n * p, n), operator.mul, initial=1))
                for p, _ in ratios]
    self_pows = [k ** k for k in range(n + 1)]      # 0 ** 0 == 1
    shifts = [q.bit_length() - 1 for _, q in ratios]
    out = []
    for m in exponents:
        ms = (n - sum(m),) + m
        if min(ms) < 0:
            out.append(None)
            continue
        num, den, shift = 1, 1, 0
        for pows, s_i, m_i in zip(num_pows, shifts, ms):
            num *= pows[m_i]
            den *= self_pows[m_i]
            shift += s_i * m_i
        out.append((num, den << shift))
    return out


def _center_mult_of_section(dv: ToricArithDivisor, n: int, m, center: BaseCondition):
    """mult at a horizontal center of ``n D + (z^m)`` (monomial section).

    ``m`` holds the d exponents, each an int or an integer array (one entry
    per monomial); the float operations are the same either way.
    """
    c = dv.coeffs
    i = center.index
    if center.kind == "hyperplane":
        if i == 0:
            return n * c[0] - sum(m)
        return n * c[i] + m[i - 1]
    if center.kind == "point":
        beta = [n * c[0] - sum(m)] + [n * c[j + 1] + m[j] for j in range(dv.d)]
        return sum(b for j, b in enumerate(beta) if j != i)
    raise InputError("horizontal centers only")


def enumerate_sections(dv: ToricArithDivisor, n: int,
                       conditions: Sequence[BaseCondition] = ()) -> SectionEnumeration:
    """All admissible monomials at level n, with their coefficient radii.

    Horizontal base conditions filter the monomials; vertical conditions are
    recorded and applied at the counting step.  The kept monomials are read
    off the transform in one batch.  Squared radii are exact, as unreduced
    integer ratios, for the untwisted, unscaled canonical family.
    """
    if n < 1:
        raise InputError("level must be >= 1")
    ms = admissible_monomials(dv, n)
    keep = np.ones(len(ms), dtype=bool)
    for c in conditions:
        if c.kind != "fiber":
            keep &= _center_mult_of_section(dv, n, ms.T, c) >= n * c.bound - _GUARD
    ms = ms[keep]
    gs = concave_transform(dv).lattice_values(ms / n)
    exponents = list(map(tuple, ms.tolist()))
    pot = dv.potential
    if (isinstance(pot, CanonicalFamily) and dv.twist == 0.0 and pot.scale == 1.0
            and not any(pot.shift)):
        exact = _exact_radii_sq(pot.a, n, exponents)
    else:
        exact = [None] * len(exponents)
    entries = tuple(SectionEntry(exponents=m, log_radius=n * g, radius_ratio=r)
                    for m, g, r in zip(exponents, gs, exact))
    return SectionEnumeration(level=n, entries=entries, conditions=tuple(conditions))


def _floor_radius(entry: SectionEntry, divide_by: int = 1, multiply_by: int = 1) -> int:
    """floor(R * multiply / divide); exact when the squared radius is rational.

    With ``R^2 = P / Q`` unreduced, ``floor(sqrt(P / Q)) = isqrt(P Q) // Q``.
    Boundary ties count the section in (the defining inequalities are
    non-strict), hence the guard band on the floating path.
    """
    if entry.radius_ratio is not None:
        num, den = entry.radius_ratio
        p, q = num * multiply_by ** 2, den * divide_by ** 2
        return math.isqrt(p * q) // q
    val = entry.log_radius + math.log(multiply_by) - math.log(divide_by)
    if val > 650:   # would overflow exp; count is astronomically large anyway
        return int(math.exp(650))
    return int(math.floor(math.exp(val) + _GUARD))


def log_count(dv: ToricArithDivisor, n: int, conditions: Sequence[BaseCondition] = (),
              vertical_coeffs: Sequence = ()) -> float:
    """log of the diagonal lattice-box count of level-n sections.

    ``L(n) = sum_m log(2 floor(R_m / p^{ceil(n mu)}) + 1)`` over the
    enumerated monomials; vertical base conditions divide the radii, and
    vertical divisor coefficients ``(p, gamma)`` multiply them by
    ``p^{floor(n gamma)}``.  Differs from the log section count by
    ``O(n^d log n)``.
    """
    enum = enumerate_sections(dv, n, conditions)
    divide = 1
    for cond in enum.conditions:
        if cond.kind == "fiber":
            divide *= cond.index ** math.ceil(n * cond.bound - _GUARD)
    multiply = 1
    for p, gamma in vertical_coeffs:
        e = math.floor(n * gamma + _GUARD)
        if e >= 0:
            multiply *= p ** e
        else:
            divide *= p ** (-e)
    total = 0.0
    for entry in enum.entries:
        k = _floor_radius(entry, divide_by=divide, multiply_by=multiply)
        if entry.radius_ratio is None and entry.log_radius + math.log(multiply) - math.log(divide) > 650:
            total += entry.log_radius + math.log(multiply) - math.log(divide) + math.log(2.0)
        elif k > 0:
            total += math.log(2 * k + 1)
    return total


def normalized_log_count(dv: ToricArithDivisor, n: int,
                         conditions: Sequence[BaseCondition] = ()) -> float:
    """(d+1)! L(n) / n^{d+1}: the finite-level volume estimate."""
    return math.factorial(dv.d + 1) * log_count(dv, n, conditions) / n ** (dv.d + 1)


@dataclass(frozen=True)
class MuApproxResult:
    values: tuple        # (n, running-min upper bound)
    warning: Optional[str] = None


def mu_Q_approx(dv: ToricArithDivisor, center: BaseCondition,
                n_list: Sequence[int]) -> MuApproxResult:
    """Level-n upper bounds for the rational asymptotic multiplicity.

    At each level the minimum normalized multiplicity over integral monomial
    sections (coefficient radius >= 1) is a rigorous upper bound; the running
    minimum over levels is the nonincreasing envelope reported here.  If no
    level admits a section, a bigness warning is returned instead of infinity.
    """
    values = []
    best = math.inf
    for n in sorted(n_list):
        enum = enumerate_sections(dv, n)
        level_best = math.inf
        for entry in enum.entries:
            ratio = entry.radius_ratio
            integral = ratio[0] >= ratio[1] if ratio is not None else entry.log_radius >= -1e-12
            if not integral:
                continue
            if center.kind == "fiber":
                level_best = min(level_best, 0.0)
            else:
                level_best = min(level_best,
                                 _center_mult_of_section(dv, n, entry.exponents, center) / n)
        best = min(best, level_best)
        if math.isfinite(best):
            values.append((n, best))
    if not values:
        return MuApproxResult(values=(), warning="no integral sections at the requested levels; "
                                                 "the divisor may not be big")
    return MuApproxResult(values=tuple(values))


# ---------------------------------------------------------------------------
# numeric sup-norms (independent of the conjugate formulas)
# ---------------------------------------------------------------------------

def sup_norm_numeric(dv: ToricArithDivisor, n: int, m: Sequence[int],
                     s_cap: float = 60.0) -> float:
    """Numeric maximization of ``|z^m|^2 e^{-n g}`` (returns the norm).

    Works in logarithmic coordinates where the objective is concave; boundary
    exponents attain their supremum in the limit, approximated at the cap.
    """
    m = tuple(int(x) for x in np.atleast_1d(m))

    def objective_1d(s):
        return m[0] * s - n * _potential_values(dv, (s,)) - n * dv.twist

    def objective_2d(s1, s2):
        u = _potential_values(dv, (s1, s2))
        return m[0] * s1 + m[1] * s2 - n * u - n * dv.twist

    if dv.d == 1:
        _, best = golden_max(objective_1d, -s_cap, s_cap, xtol=1e-12)
        return math.exp(best / 2.0)
    # directional ascent over the box: the axis directions plus the diagonals,
    # which are the recession directions where boundary exponents ridge out
    directions = [np.array(v, dtype=float)
                  for v in ((1, 0), (0, 1), (1, 1), (1, -1))]
    s = np.zeros(2)
    for _ in range(60):
        prev = s.copy()
        for vec in directions:
            t_bounds = []
            for axis in range(2):
                if vec[axis] > 0:
                    t_bounds.append(((-s_cap - s[axis]) / vec[axis],
                                     (s_cap - s[axis]) / vec[axis]))
                elif vec[axis] < 0:
                    t_bounds.append(((s_cap - s[axis]) / vec[axis],
                                     (-s_cap - s[axis]) / vec[axis]))
            lo = max(b[0] for b in t_bounds)
            hi = min(b[1] for b in t_bounds)
            line = lambda t: objective_2d(s[0] + t * vec[0], s[1] + t * vec[1])
            t_best, f_best = golden_max(line, lo, hi, xtol=1e-13)
            if f_best > objective_2d(s[0], s[1]):
                s = s + t_best * vec
        if np.max(np.abs(s - prev)) < 1e-12:
            break
    corners = [objective_2d(s[0], s[1])]
    for c1 in (-s_cap, s[0], s_cap):
        for c2 in (-s_cap, s[1], s_cap):
            corners.append(objective_2d(c1, c2))
    return math.exp(max(corners) / 2.0)


# ---------------------------------------------------------------------------
# exact tiny-level calibration of the box count
# ---------------------------------------------------------------------------

def exact_ball_log_count(dv: ToricArithDivisor, n: int,
                         s_grid: int = 384, theta_grid: int = 192) -> float:
    """log of the exact number of integral sections in the sup-norm ball.

    Enumerates every integer coefficient vector inside the per-monomial box
    (the box contains the ball: Cauchy bounds on circles) and tests sup-norm
    membership by dense maximization over a polar grid.  Exponential in the
    level; intended for tiny calibration runs (d = 1 only).
    """
    if dv.d != 1:
        raise InputError("exact enumeration implemented for d = 1")
    enum = enumerate_sections(dv, n)
    radii = [_floor_radius(e) for e in enum.entries]
    exps = [e.exponents[0] for e in enum.entries]
    s = np.linspace(-30.0, 30.0, s_grid)
    theta = np.linspace(0.0, np.pi, theta_grid)   # conjugation symmetry
    r = np.exp(s / 2.0)
    z = r[:, None] * np.exp(1j * theta[None, :])
    weight = np.exp(-n * (_potential_values(dv, (s,)) + dv.twist) / 2.0)
    basis = np.stack([(z ** k) * weight[:, None] for k in exps], axis=-1)
    basis = basis.reshape(-1, len(exps))

    ranges = [np.arange(-k, k + 1) for k in radii]
    total = 0
    grids = np.meshgrid(*ranges, indexing="ij")
    coeffs = np.stack([g.ravel() for g in grids], axis=-1)
    chunk = max(1, 2_000_000 // basis.shape[0])
    for start in range(0, len(coeffs), chunk):
        block = coeffs[start:start + chunk]
        vals = np.abs(basis @ block.T)
        total += int(np.sum(vals.max(axis=0) <= 1.0 + 1e-9))
    return math.log(total)

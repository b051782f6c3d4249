"""Lexicographic valuations at torus-fixed flags and semigroups of monomial
graded series on projective space, with their convex bodies.

Only torus-fixed flags are supported: an affine coordinate chart (the chart
where one homogeneous coordinate is nonzero) together with an ordering of
its local parameters.  Series are given by monomial supports; on projective
space with torus-invariant data monomial bases diagonalize every quantity
computed here, and the brute-force oracle validates that this loses no
generality for the volume and multiplicity outputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .convexcore import Polytope, convex_hull
from .errors import (EmptySeriesError, GradingViolationError, InputError,
                     UnsupportedCenterError, ValuationOfZeroError)

MultiIndex = tuple  # d non-negative integer exponents


@dataclass(frozen=True)
class ValuationFlag:
    """Torus-fixed flag: a coordinate chart plus a parameter order.

    ``order`` is a permutation of ``0..d-1``; the valuation compares exponent
    vectors lexicographically after reordering by it.  Only chart 0 (local
    parameters the affine coordinates of the distinguished chart) is
    supported; the first parameter after reordering cuts out the flag's
    divisorial center.
    """

    dim: int
    order: tuple = None
    chart: int = 0

    def __post_init__(self):
        order = self.order if self.order is not None else tuple(range(self.dim))
        object.__setattr__(self, "order", tuple(order))
        if sorted(self.order) != list(range(self.dim)):
            raise InputError(f"parameter order {self.order} is not a permutation of 0..{self.dim - 1}")
        if self.chart != 0:
            raise UnsupportedCenterError("only the distinguished affine chart is supported")

    def apply(self, exponents: Sequence) -> tuple:
        return tuple(exponents[i] for i in self.order)


def identity_flag(dim: int) -> ValuationFlag:
    return ValuationFlag(dim=dim)


def ord_lex(poly: Mapping, flag: ValuationFlag) -> tuple:
    """Rank-d valuation: lexicographic minimum of the support of ``poly``.

    ``poly`` maps exponent tuples to nonzero coefficients.  Additive on
    products; for sums, bounded below by the lexicographic minimum of the
    two valuations.
    """
    support = [m for m, c in poly.items() if c != 0]
    if not support:
        raise ValuationOfZeroError("valuation of the zero function")
    return min(flag.apply(m) for m in support)


def mult_first_coordinate(hyperplane_coeffs: Sequence[float], flag: ValuationFlag,
                          monomial: Optional[Sequence] = None) -> float:
    """First coordinate of the flag valuation of a toric divisor.

    The divisor is ``sum_i c_i H_i`` (coefficients of the coordinate
    hyperplanes, ``c_0`` first) plus, optionally, the principal divisor of a
    monomial in the chart coordinates.  The result equals the coefficient of
    the hyperplane cut out by the first flag parameter, i.e. the multiplicity
    of the divisor along the flag center.
    """
    coeffs = np.asarray(hyperplane_coeffs, dtype=float)
    d = flag.dim
    if len(coeffs) != d + 1:
        raise UnsupportedCenterError(
            f"divisor must be supported on the {d + 1} coordinate hyperplanes")
    local = coeffs[1:].astype(float)
    if monomial is not None:
        local = local + np.asarray(monomial, dtype=float)
    return float(local[flag.order[0]])


@dataclass(frozen=True)
class MonomialSeries:
    """One graded piece: the monomials spanning the level-``level`` space."""

    level: int
    support: frozenset
    divisor_coeffs: tuple   # c_0..c_d of the ambient divisor

    def __post_init__(self):
        object.__setattr__(self, "support", frozenset(tuple(m) for m in self.support))
        object.__setattr__(self, "divisor_coeffs", tuple(float(c) for c in self.divisor_coeffs))
        deg = sum(self.divisor_coeffs)
        for m in self.support:
            if any(e < 0 for e in m):
                raise InputError(f"negative exponent in {m}")
            if sum(m) > self.level * deg + 1e-9:
                raise InputError(f"monomial {m} exceeds degree bound {self.level * deg}")

    @property
    def dim(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class SemigroupPoints:
    """Valuation images ``(value, level)`` of a graded series."""

    points: frozenset

    def at_level(self, m: int):
        return {v for v, lvl in self.points if lvl == m}

    def normalized(self, m_max: int):
        out = []
        for v, lvl in self.points:
            if 1 <= lvl <= m_max:
                out.append(tuple(x / lvl for x in v))
        return out

    def __len__(self):
        return len(self.points)


def full_series(d: int, m_max: int, degree: int = 1) -> list:
    """Complete monomial series of ``degree * H_0`` on P^d, levels 0..m_max."""
    coeffs = (float(degree),) + (0.0,) * d
    out = []
    for m in range(m_max + 1):
        bound = m * degree
        support = [mi for mi in itertools.product(range(bound + 1), repeat=d)
                   if sum(mi) <= bound]
        out.append(MonomialSeries(level=m, support=frozenset(support), divisor_coeffs=coeffs))
    return out


def filtered_series(d: int, m_max: int, keep, degree: int = 1) -> list:
    """Sub-series of the full one: keep monomials with ``keep(m, level)``."""
    out = []
    for series in full_series(d, m_max, degree):
        support = frozenset(m for m in series.support if keep(m, series.level))
        out.append(MonomialSeries(level=series.level, support=support,
                                  divisor_coeffs=series.divisor_coeffs))
    return out


def _check_graded(series_by_level: dict):
    levels = sorted(series_by_level)
    for m1, m2 in itertools.combinations_with_replacement(levels, 2):
        if m1 == 0 or m2 == 0:
            continue
        target = series_by_level.get(m1 + m2)
        if target is None:
            continue
        sup1 = series_by_level[m1].support
        sup2 = series_by_level[m2].support
        tgt = target.support
        for a in sup1:
            for b in sup2:
                prod = tuple(x + y for x, y in zip(a, b))
                if prod not in tgt:
                    raise GradingViolationError(
                        f"product of {a} (level {m1}) and {b} (level {m2}) "
                        f"missing from level {m1 + m2}",
                        offending_pair=((a, m1), (b, m2)))


def semigroup_points(series: Sequence[MonomialSeries], flag: ValuationFlag,
                     check_grading: bool = True) -> SemigroupPoints:
    """Valuation points of a graded monomial series.

    For each level m and monomial f in the level's support, records the flag
    valuation of ``(f) + m D`` together with m.  Non-graded input (a product
    of supported monomials escaping a declared higher level) is a hard error
    naming the offending pair.
    """
    by_level = {s.level: s for s in series}
    if len(by_level) != len(series):
        raise InputError("duplicate levels in series")
    if check_grading:
        _check_graded(by_level)
    pts = set()
    for s in series:
        c_local = s.divisor_coeffs[1:]
        for mono in s.support:
            value = tuple(mono[i] + s.level * c_local[i] for i in range(len(mono)))
            pts.add((flag.apply(value), s.level))
    return SemigroupPoints(points=frozenset(pts))


def okounkov_body(points: SemigroupPoints, m_max: int) -> Polytope:
    """Convex hull of the level-normalized valuation points up to ``m_max``.

    Monotone nondecreasing in ``m_max``; for the complete series of a
    hyperplane it converges to the standard simplex.
    """
    normalized = points.normalized(m_max)
    if not normalized:
        raise EmptySeriesError(f"no valuation points at levels 1..{m_max}")
    return convex_hull(np.array(normalized, dtype=float))


def dim_via_valuations(series: MonomialSeries, flag: ValuationFlag) -> int:
    """Dimension of a monomial subspace via distinct valuation count.

    Distinct monomials have distinct valuations, so this equals the size of
    the support; both counts are computed and compared.
    """
    values = {flag.apply(m) for m in series.support}
    assert len(values) == len(series.support)
    return len(values)

"""Convex-geometry kernel.

Polytopes kept in dual (vertex / halfspace) form, grid-sampled convex
functions with explicit recession slopes, discrete Legendre conjugation,
slope-constrained greatest convex minorants, quadrature of clipped concave
integrands over convex regions, and the sliced-interior predicate used by
the strict volume-drop argument.

Conventions
-----------
* Halfspaces are pairs ``(normal, offset)`` meaning ``normal . x <= offset``.
* Grids are uniform along each axis.  Discrete convexity means all second
  differences along grid lines (axes, and both diagonals in 2-d) are
  ``>= -1e-9``.
* Conjugation is computed by exact maximization over the sample grid; a
  local quadratic refinement can be enabled for smooth inputs.  In 1-d the
  maximizer comes from a near-linear slope search (Lucet's linear-time
  Legendre transform) that returns the full scan's index on every input,
  so values are those of the scan bit for bit; the two 2-d stages scan.

All values are immutable after construction and safe to share across
threads; nothing here mutates shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq, linprog  # noqa: F401  (brentq: perfbench/spans.py counts through it)
from scipy.integrate import quad
from scipy.spatial import ConvexHull as _SciHull

from .errors import InfeasibleError, InputError, UnboundedSupremumError

GEOM_TOL = 1e-9


# ---------------------------------------------------------------------------
# polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polytope:
    """Convex polytope with consistent vertex and halfspace descriptions.

    Dimension-deficient hulls are kept with an explicit affine span
    (``span_point`` + orthonormal ``span_basis`` rows) and have zero volume.
    """

    dim: int
    vertices: np.ndarray                 # (k, dim)
    normals: np.ndarray                  # (m, dim), normal . x <= offset
    offsets: np.ndarray                  # (m,)
    span_point: np.ndarray               # point on the affine hull
    span_basis: np.ndarray               # (r, dim) orthonormal rows

    @property
    def affine_rank(self) -> int:
        return self.span_basis.shape[0]

    def is_full_dimensional(self) -> bool:
        return self.affine_rank == self.dim

    def contains(self, points, tol: float = GEOM_TOL):
        """Vectorized membership test (within ``tol``)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ok = np.ones(len(pts), dtype=bool)
        if self.affine_rank < self.dim:
            diff = pts - self.span_point
            proj = diff @ self.span_basis.T @ self.span_basis
            ok &= np.linalg.norm(diff - proj, axis=1) <= 10 * tol
        if len(self.normals):
            ok &= np.all(pts @ self.normals.T <= self.offsets + tol, axis=1)
        return ok if np.ndim(points) > 1 else bool(ok[0])

    def volume(self) -> float:
        if self.affine_rank < self.dim or len(self.vertices) <= self.dim:
            return 0.0
        if self.dim == 1:
            v = self.vertices[:, 0]
            return float(v.max() - v.min())
        return float(_SciHull(self.vertices).volume)

    def interior_point(self, tol: float = GEOM_TOL):
        """Chebyshev center ``(x, r)``; ``r <= tol`` means no interior."""
        if self.affine_rank < self.dim or not len(self.normals):
            return np.array(self.span_point), 0.0
        return _chebyshev(self.normals, self.offsets)

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def check_consistency(self, tol: float = GEOM_TOL) -> bool:
        """Vertices satisfy all halfspaces and re-hulling is idempotent."""
        if len(self.normals):
            sat = self.vertices @ self.normals.T <= self.offsets + tol
            if not np.all(sat):
                return False
        redo = convex_hull(self.vertices)
        return vertex_sets_equal(self, redo, tol)


def _canonical_vertices(verts: np.ndarray) -> np.ndarray:
    order = np.lexsort(verts.T[::-1])
    return np.ascontiguousarray(verts[order])


def vertex_sets_equal(p: Polytope, q: Polytope, tol: float = 1e-7) -> bool:
    a, b = p.vertices, q.vertices
    if a.shape != b.shape:
        return False
    return bool(np.allclose(a, b, atol=tol))


def _chebyshev(normals, offsets):
    norms = np.linalg.norm(normals, axis=1)
    a_ub = np.hstack([normals, norms[:, None]])
    c = np.zeros(normals.shape[1] + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=offsets, bounds=[(None, None)] * normals.shape[1] + [(0, None)],
                  method="highs")
    if not res.success:
        return np.zeros(normals.shape[1]), 0.0
    return res.x[:-1], float(res.x[-1])


def convex_hull(points: Sequence) -> Polytope:
    """Smallest convex polytope containing ``points``.

    Idempotent on its own vertex set.  Dimension-deficient inputs produce a
    degenerate polytope carrying its affine span.
    """
    try:
        pts = np.asarray(points, dtype=float)
    except (ValueError, TypeError) as exc:
        raise InputError(f"points of unequal dimension: {exc}") from None
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.size == 0:
        raise InputError("need at least one point of consistent dimension")
    dim = pts.shape[1]

    center = pts.mean(axis=0)
    shifted = pts - center
    if len(pts) == 1:
        rank, basis = 0, np.zeros((0, dim))
    else:
        _, sv, vt = np.linalg.svd(shifted, full_matrices=False)
        rank = int(np.sum(sv > GEOM_TOL * max(1.0, sv[0] if len(sv) else 1.0)))
        basis = vt[:rank]

    if rank == 0:
        verts = pts[:1].copy()
        normals = np.zeros((0, dim))
        offsets = np.zeros(0)
    elif rank == 1:
        coord = shifted @ basis[0]
        verts = np.vstack([center + coord.min() * basis[0],
                           center + coord.max() * basis[0]])
        if dim == 1:
            normals = np.array([[1.0], [-1.0]])
            offsets = np.array([verts[:, 0].max(), -verts[:, 0].min()])
        else:
            normals = np.vstack([basis[0], -basis[0]])
            offsets = np.array([coord.max() + basis[0] @ center,
                                coord.min() * -1 - basis[0] @ center])
    else:
        reduced = shifted @ basis.T
        hull = _SciHull(reduced)
        verts = pts[hull.vertices] if rank == dim else (reduced[hull.vertices] @ basis + center)
        eq = hull.equations  # rows [a, b] with a.x + b <= 0 in reduced coords
        a_red, b_red = eq[:, :-1], eq[:, -1]
        normals = a_red @ basis
        offsets = -b_red + normals @ center
        normals, offsets = _dedupe_halfspaces(normals, offsets)
        # qhull can keep a point lying on one facet; a vertex is tight on ``rank`` facets
        tight = np.abs(verts @ normals.T - offsets) <= GEOM_TOL * (1.0 + np.abs(offsets))
        verts = verts[tight.sum(axis=1) >= rank]

    verts = _canonical_vertices(np.asarray(verts, dtype=float))
    return Polytope(dim=dim, vertices=verts, normals=normals, offsets=offsets,
                    span_point=center, span_basis=basis)


def _dedupe_halfspaces(normals, offsets, tol=1e-9):
    scale = np.linalg.norm(normals, axis=1)
    scale[scale == 0] = 1.0
    rows = np.hstack([normals / scale[:, None], (offsets / scale)[:, None]])
    rounded = np.round(rows / tol) * tol
    _, idx = np.unique(rounded, axis=0, return_index=True)
    idx = np.sort(idx)
    return normals[idx], offsets[idx]


def polytope_from_halfspaces(normals, offsets, interior_hint=None) -> Polytope:
    """Polytope from ``normal . x <= offset`` rows (2-d and 1-d only)."""
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    dim = normals.shape[1]
    if dim == 1:
        hi = min((b / a[0] for a, b in zip(normals, offsets) if a[0] > GEOM_TOL), default=np.inf)
        lo = max((b / a[0] for a, b in zip(normals, offsets) if a[0] < -GEOM_TOL), default=-np.inf)
        if not np.isfinite(lo) or not np.isfinite(hi) or lo > hi + GEOM_TOL:
            raise InputError("halfspaces do not bound a nonempty interval")
        return convex_hull([[lo], [max(hi, lo)]])
    if dim != 2:
        raise InputError("halfspace intersection implemented for dim <= 2")
    cand = []
    m = len(normals)
    for i in range(m):
        for j in range(i + 1, m):
            a = np.vstack([normals[i], normals[j]])
            if abs(np.linalg.det(a)) < 1e-12:
                continue
            x = np.linalg.solve(a, [offsets[i], offsets[j]])
            cand.append(x)
    cand = [x for x in cand if np.all(normals @ x <= offsets + 1e-7)]
    if not cand:
        raise InputError("halfspaces bound an empty region")
    return convex_hull(np.array(cand))


def shifted_simplex(coeffs: Sequence[float]) -> Polytope:
    """Body of a toric divisor: ``{x_i >= -c_i (i>=1), sum x_i <= c_0}``."""
    c = np.asarray(coeffs, dtype=float)
    d = len(c) - 1
    width = float(c.sum())
    if width < -GEOM_TOL:
        raise InputError("empty body: negative total degree")
    base = -c[1:]
    verts = [base]
    for i in range(d):
        v = base.copy()
        v[i] += width
        verts.append(v)
    return convex_hull(np.array(verts))


# ---------------------------------------------------------------------------
# grid convex functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridConvexFunction:
    """Convex function sampled on a uniform axis grid.

    ``recession`` holds per-axis slope bounds ``(lo_i, hi_i)`` at the domain
    boundary; they bound the conjugate's domain and are supplied explicitly,
    never estimated from the samples.  ``mask`` restricts a box grid to a
    simplex-like domain (2-d conjugates).
    """

    axes: tuple
    values: np.ndarray
    recession: tuple
    mask: Optional[np.ndarray] = None

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def spacing(self, axis: int = 0) -> float:
        ax = self.axes[axis]
        return float(ax[1] - ax[0]) if len(ax) > 1 else 0.0

    def __call__(self, x):
        """Piecewise-linear interpolation (1-d and 2-d box grids), batched.

        ``x`` is a point or an array of points: any shape in 1-d, ``(N, 2)``
        or a pair in 2-d (values of shape ``(N,)``).  Beyond the grid box the
        function extends convexly by its recession slopes: the value at the
        point clipped to the box plus ``lo_i min(x_i - a_i, 0) + hi_i max(x_i
        - b_i, 0)`` per axis ``[a_i, b_i]`` with slopes ``(lo_i, hi_i)``.
        """
        x = np.asarray(x, dtype=float)
        if self.ndim == 1:
            (ax,), ((lo, hi),) = self.axes, self.recession
            vals = np.interp(np.clip(x, ax[0], ax[-1]), ax, self.values)
            return vals + lo * np.minimum(x - ax[0], 0.0) + hi * np.maximum(x - ax[-1], 0.0)
        from scipy.interpolate import RegularGridInterpolator
        pts = np.atleast_2d(x)
        a, b = np.array([ax[0] for ax in self.axes]), np.array([ax[-1] for ax in self.axes])
        lo, hi = np.array(self.recession, dtype=float).T
        vals = RegularGridInterpolator(self.axes, self.values)(np.clip(pts, a, b))
        return vals + np.minimum(pts - a, 0.0) @ lo + np.maximum(pts - b, 0.0) @ hi

    def check_convex(self, tol: float = GEOM_TOL) -> bool:
        return discrete_convexity_defect(self.values, self.mask) >= -tol

    def edge_slopes(self, axis: int = 0):
        """(low-end, high-end) one-sided slopes along ``axis`` (1-d only)."""
        v, h = self.values, self.spacing(axis)
        if self.ndim != 1:
            raise InputError("edge_slopes is 1-d only")
        return float((v[1] - v[0]) / h), float((v[-1] - v[-2]) / h)


def discrete_convexity_defect(values: np.ndarray, mask: Optional[np.ndarray] = None) -> float:
    """Minimum second difference along every grid line (negative = defect)."""
    worst = np.inf
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        if len(v) >= 3:
            worst = min(worst, float(np.min(v[:-2] - 2 * v[1:-1] + v[2:])))
        return worst if np.isfinite(worst) else 0.0
    if v.ndim != 2:
        raise InputError("grids of dimension <= 2 only")

    def second(diffs, ok):
        if diffs.size == 0:
            return np.inf
        return float(np.min(diffs[ok])) if ok.any() else np.inf

    m = np.ones_like(v, dtype=bool) if mask is None else mask
    d0 = v[:-2, :] - 2 * v[1:-1, :] + v[2:, :]
    ok0 = m[:-2, :] & m[1:-1, :] & m[2:, :]
    d1 = v[:, :-2] - 2 * v[:, 1:-1] + v[:, 2:]
    ok1 = m[:, :-2] & m[:, 1:-1] & m[:, 2:]
    dd = v[:-2, :-2] - 2 * v[1:-1, 1:-1] + v[2:, 2:]
    okd = m[:-2, :-2] & m[1:-1, 1:-1] & m[2:, 2:]
    da = v[:-2, 2:] - 2 * v[1:-1, 1:-1] + v[2:, :-2]
    oka = m[:-2, 2:] & m[1:-1, 1:-1] & m[2:, :-2]
    for d, ok in ((d0, ok0), (d1, ok1), (dd, okd), (da, oka)):
        worst = min(worst, second(d, ok))
    return 0.0 if not np.isfinite(worst) else worst


def grid_function_from_callable(fun: Callable, lo, hi, n, recession) -> GridConvexFunction:
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    ns = np.atleast_1d(np.asarray(n, dtype=int))
    axes = tuple(np.linspace(lo[i], hi[i], ns[i]) for i in range(len(lo)))
    if len(axes) == 1:
        vals = np.asarray(fun(axes[0]), dtype=float)
    else:
        g = np.meshgrid(*axes, indexing="ij")
        vals = np.asarray(fun(*g), dtype=float)
    return GridConvexFunction(axes=axes, values=vals, recession=tuple(recession))


# ---------------------------------------------------------------------------
# Legendre conjugation
# ---------------------------------------------------------------------------

def _refine_peak(f0, f1, f2):
    """Quadratic bump above the discrete argmax, capped for safety."""
    d2 = f0 - 2.0 * f1 + f2
    with np.errstate(divide="ignore", invalid="ignore"):
        bump = np.where(d2 < -1e-300, (f0 - f2) ** 2 / (-8.0 * d2), 0.0)
    cap = np.abs(f2 - f0) / 2.0
    return np.clip(bump, 0.0, cap)


def _argmax_scan(s: np.ndarray, u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """First ``argmax_j (x s_j - u_j)`` for each ``x``, by scanning every ``j``."""
    j = np.empty(len(x), dtype=np.intp)
    chunk = max(1, int(4_000_000 // max(len(s), 1)))
    for start in range(0, len(x), chunk):
        j[start:start + chunk] = np.argmax(np.outer(x[start:start + chunk], s) - u, axis=1)
    return j


_WINDOW = 2          # candidates on each side of the slope-sorted guess


def _argmax_window(s: np.ndarray, u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The index :func:`_argmax_scan` returns, from a few candidates per ``x``.

    Linear-time conjugation after Lucet (Numer. Algorithms 16, 1997): the
    objective ``g_j = x s_j - u_j`` rises while the secant slope
    ``(u_{j+1} - u_j) / (s_{j+1} - s_j)`` is below ``x`` and falls once it
    is above, so ``x`` sorted into the running maximum of the slopes gives
    the peak.  The same float expression is evaluated on ``2 * _WINDOW + 1``
    indices around it and its first maximum taken.  A row is certified when
    every slope left of the window is below ``x``, and every one right of
    it above, by more than the rounding of ``x s_j - u_j`` can hide: then
    every value outside the window is strictly below the window's maximum,
    on any input, convex or not.  Rows that fail (ties at the recession
    endpoints, where a sampled tail is linear to rounding) are scanned.
    """
    n, width = len(s), 2 * _WINDOW + 1
    if n <= width:
        return _argmax_scan(s, u, x)
    slopes = np.diff(u) / np.diff(s)
    below = np.maximum.accumulate(slopes)               # largest slope up to k
    above = np.minimum.accumulate(slopes[::-1])[::-1]   # smallest slope from k on
    lo = np.clip(np.searchsorted(below, x) - _WINDOW, 0, n - width)
    idx = lo[:, None] + np.arange(width)
    k = np.argmax(x[:, None] * s[idx] - u[idx], axis=1)
    # a value outside lies below the window by at least (slope gap) * (step); the
    # gap must beat twice the rounding of x s_j - u_j, each at most eps (|x| max|s|
    # + max|u|) / 2, plus the slopes' own rounding, about 3 eps max|u| per step
    margin =8.0 * np.finfo(float).eps * (np.abs(x) * np.max(np.abs(s)) + np.max(np.abs(u)))
    a, b = np.maximum(lo - 1, 0), np.minimum(lo + width - 1, n - 2)   # slopes just outside
    left = (lo == 0) | ((x - below[a]) * (s[a + 1] - s[a]) > margin)
    right = (b < lo + width - 1) | ((above[b] - x) * (s[b + 1] - s[b]) > margin)
    j = lo + k
    rest = ~(left & right)
    if rest.any():
        j[rest] = _argmax_scan(s, u, x[rest])
    return j


def _peak(s: np.ndarray, u: np.ndarray, x: np.ndarray, j: np.ndarray, refine: bool):
    """``x s_j - u_j`` at the argmax ``j``, plus the capped quadratic bump if ``refine``."""
    best = x * s[j] - u[j]
    if refine:
        interior = (j > 0) & (j < len(s) - 1)
        if interior.any():
            ji, xi = j[interior], x[interior]
            best[interior] += _refine_peak(xi * s[ji - 1] - u[ji - 1], best[interior],
                                           xi * s[ji + 1] - u[ji + 1])
    return best


def _conjugate_1d(s: np.ndarray, u: np.ndarray, x: np.ndarray, refine: bool):
    """max_j (x s_j - u_j) for each x, with optional quadratic refinement."""
    return _peak(s, u, x, _argmax_window(s, u, x), refine)


def _row_peaks(s: np.ndarray, v: np.ndarray, x: float, refine: bool) -> np.ndarray:
    """For one ``x``, ``max_j (x s_j - v[k, j])`` per row ``k`` of ``v`` by a full scan.

    The first maximum and the refinement of :func:`_peak`, with the same
    float expression, so each row gets what :func:`_peak` gives it.
    """
    f = x * s - v
    j = np.argmax(f, axis=1)
    rows = np.arange(len(v))
    best = f[rows, j]
    if refine:
        interior = (j > 0) & (j < len(s) - 1)
        if interior.any():
            ri, ji = rows[interior], j[interior]
            best[interior] += _refine_peak(f[ri, ji - 1], best[interior], f[ri, ji + 1])
    return best


def _two_stage(u: GridConvexFunction, x1: np.ndarray, x2s, refine: bool) -> list:
    """2-d grid conjugate at ``(x1[i], x2s[i][k])``, one array per ``x1[i]``.

    Stage 1 conjugates each ``s2`` column in ``s1`` (convex in ``x1``,
    concave in ``s2``), all columns at once per ``x1[i]``; stage 2
    conjugates each such ``s2``-profile.  Both scan: refinement leaves the
    stage-2 profiles convex only to about its bump, where the window of
    :func:`_argmax_window` would rarely certify.  The value at a point
    depends only on that point, not on the others.
    """
    s2 = u.axes[1]
    columns = np.ascontiguousarray(u.values.T)
    partial = np.array([_row_peaks(u.axes[0], columns, x, refine) for x in x1])
    return [_peak(s2, q, x2, _argmax_scan(s2, q, x2), refine)
            for q, x2 in zip(-partial.reshape(len(x1), len(s2)), x2s)]


def conjugate_points_2d(u: GridConvexFunction, pts) -> np.ndarray:
    """Refined 2-d conjugate ``u*`` at each of the ``(N, 2)`` points ``pts``.

    The same two stages and float operations as :func:`legendre_conjugate`
    with ``refine=True``, run at exactly these points (stage 1 once per
    distinct first coordinate), so at that function's grid nodes the values
    agree bit for bit, and elsewhere nothing is interpolated.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    x1, inv = np.unique(pts[:, 0], return_inverse=True)
    rows = [np.nonzero(inv == i)[0] for i in range(len(x1))]
    out = np.empty(len(pts))
    for r, vals in zip(rows, _two_stage(u, x1, [pts[r, 1] for r in rows], True)):
        out[r] = vals
    return out


def legendre_conjugate(u: GridConvexFunction, x_domain: Polytope,
                       resolution: Optional[int] = None, refine: bool = True) -> GridConvexFunction:
    """Discrete Legendre conjugate ``u*(x) = sup_s (<x, s> - u(s))`` on ``x_domain``.

    ``x_domain`` must sit inside the per-axis recession-slope box of ``u``;
    outside it the supremum is unbounded and :class:`UnboundedSupremumError`
    is raised.  Conjugation is order-reversing and, for discretely convex
    inputs, involutive to grid accuracy.
    """
    if not u.check_convex():
        raise InputError("conjugate of a non-convex grid function")
    lo_box, hi_box = x_domain.bounding_box()
    for i, (rlo, rhi) in enumerate(u.recession):
        if lo_box[i] < rlo - 1e-9 or hi_box[i] > rhi + 1e-9:
            raise UnboundedSupremumError(
                f"axis {i}: requested x in [{lo_box[i]:.6g}, {hi_box[i]:.6g}] "
                f"outside recession slopes [{rlo:.6g}, {rhi:.6g}]")
    res = resolution or max(len(ax) for ax in u.axes)

    if u.ndim == 1:
        width = hi_box[0] - lo_box[0]
        x = np.linspace(lo_box[0], hi_box[0], res if width > 0 else 1)
        vals = _conjugate_1d(u.axes[0], u.values, x, refine)
        return GridConvexFunction(axes=(x,), values=vals,
                                  recession=((float(u.axes[0][0]), float(u.axes[0][-1])),))

    if u.ndim != 2:
        raise InputError("conjugation implemented for grids of dimension <= 2")
    s1, s2 = u.axes
    x1 = np.linspace(lo_box[0], hi_box[0], res)
    x2 = np.linspace(lo_box[1], hi_box[1], res)
    vals = np.array(_two_stage(u, x1, [x2] * len(x1), refine))
    pts = np.stack(np.meshgrid(x1, x2, indexing="ij"), axis=-1).reshape(-1, 2)
    mask = x_domain.contains(pts, tol=1e-9).reshape(len(x1), len(x2))
    rec = ((float(s1[0]), float(s1[-1])), (float(s2[0]), float(s2[-1])))
    return GridConvexFunction(axes=(x1, x2), values=vals, recession=rec, mask=mask)


def _slope_clip_minorant(s: np.ndarray, vals: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Greatest convex minorant with slopes in [lo, hi] of convex samples.

    Tangent form of the restricted-conjugate construction, exact on the
    grid: keep the samples where the secant slopes already lie in the
    window and extend by tangents of slopes lo / hi outside it.
    """
    slopes = np.diff(vals) / np.diff(s)
    ge_lo = np.nonzero(slopes >= lo - 1e-15)[0]
    le_hi = np.nonzero(slopes <= hi + 1e-15)[0]
    j_lo = int(ge_lo[0]) if len(ge_lo) else len(vals) - 1            # first kept point
    j_hi = int(le_hi[-1]) + 1 if len(le_hi) else 0                   # last kept point
    out = vals.copy()
    if j_lo <= j_hi:
        out[:j_lo] = vals[j_lo] + lo * (s[:j_lo] - s[j_lo])
        out[j_hi + 1:] = vals[j_hi] + hi * (s[j_hi + 1:] - s[j_hi])
        return out
    # the secant slopes jump across the whole window: a single corner point
    j = j_lo
    return vals[j] + np.maximum(lo * (s - s[j]), hi * (s - s[j]))


def constrained_convex_minorant(u: GridConvexFunction, slope_lo: float, slope_hi: float,
                                barrier: Optional[GridConvexFunction] = None,
                                max_iter: int = 50) -> GridConvexFunction:
    """Greatest convex ``h <= u`` with slopes in ``[slope_lo, slope_hi]`` and ``h >= barrier``.

    The slope restriction is the Legendre conjugate with its domain cut to
    the window, conjugated back; for convex grid samples that composite has
    an exact tangent form, which is what is evaluated.  The barrier is then
    intersected into the epigraph (pointwise max) and the restriction
    re-applied to a fixed point.  Raises :class:`InfeasibleError` (with a
    witness grid point) when the barrier exceeds ``u`` somewhere.
    """
    if u.ndim != 1:
        raise InputError("constrained minorant implemented for 1-d grids")
    if slope_lo > slope_hi + 1e-15:
        raise InputError(f"slope_lo={slope_lo} exceeds slope_hi={slope_hi}")
    if not u.check_convex():
        raise InputError("minorant of a non-convex grid function")
    s = u.axes[0]
    barrier_vals = None
    if barrier is not None:
        barrier_vals = np.asarray(barrier(s), dtype=float)
        gap = u.values - barrier_vals
        k = int(np.argmin(gap))
        if gap[k] < -1e-12:
            raise InfeasibleError(
                f"barrier exceeds the target at s={s[k]:.6g} by {-gap[k]:.3g}",
                witness=float(s[k]))

    rlo, rhi = u.recession[0]
    lo = max(slope_lo, rlo)
    hi = min(slope_hi, rhi)
    if lo > hi + 1e-12:
        raise InfeasibleError(
            f"slope window [{slope_lo:.6g}, {slope_hi:.6g}] misses recession range "
            f"[{rlo:.6g}, {rhi:.6g}]")

    h = _slope_clip_minorant(s, u.values, lo, hi)
    for _ in range(max_iter):
        if barrier_vals is None:
            break
        lifted = np.maximum(h, barrier_vals)
        if np.max(lifted - h) <= 1e-12:
            break
        h_new = _slope_clip_minorant(s, lifted, lo, hi)
        if np.max(np.abs(h_new - h)) <= 1e-12:
            h = h_new
            break
        h = h_new
    return GridConvexFunction(axes=(s,), values=np.minimum(h, u.values),
                              recession=((lo, hi),))


# ---------------------------------------------------------------------------
# line search
# ---------------------------------------------------------------------------

_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 90     # bound against stalled brackets; every caller's bracket reaches xtol sooner


def golden_max(fun: Callable, lo, hi, xtol: float = 1e-10):
    """Golden-section maximization of a unimodal ``fun`` on ``[lo, hi]``, elementwise.

    ``lo`` and ``hi`` are scalars or arrays of one shape; ``fun`` maps points
    of that shape to values of that shape, one bracket per element.  Returns
    ``(x, f)``, the best evaluated point and value per bracket, both
    endpoints included.  Each step evaluates ``fun`` once on all brackets; a
    bracket stops moving once it is narrower than the absolute ``xtol``, so
    every element gets exactly the result of a search on its bracket alone.
    The search ends when all brackets have stopped or after ``_GOLDEN_STEPS``
    steps, a bound against brackets that never narrow.
    Scalar brackets are searched with Python floats, which ``fun`` receives,
    so a scalar search pays no per-step numpy overhead.
    """
    if np.ndim(lo) == 0 and np.ndim(hi) == 0:
        a, b, live, any_live = float(lo), float(hi), True, bool
        pick = lambda mask, p, q: p if mask else q
    else:
        a, b = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        live, pick, any_live = np.ones(a.shape, dtype=bool), np.where, np.any
    c = b - _PHI * (b - a)
    d = a + _PHI * (b - a)
    fc, fd = fun(c), fun(d)
    best_x, best_f = pick(fc >= fd, c, d), pick(fc >= fd, fc, fd)
    for x in (a, b):
        fx = fun(x)
        best_x, best_f = pick(fx > best_f, x, best_x), pick(fx > best_f, fx, best_f)
    for _ in range(_GOLDEN_STEPS):
        right = live & (fc < fd)           # keep [c, b]: the new point lies right of d
        left = live ^ right                # keep [a, d]: the new point lies left of c
        a, b = pick(right, c, a), pick(left, d, b)
        x = pick(right, a + _PHI * (b - a), b - _PHI * (b - a))
        fx = fun(x)
        c, d, fc, fd = (pick(right, d, pick(left, x, c)), pick(right, x, pick(left, c, d)),
                        pick(right, fd, pick(left, fx, fc)), pick(right, fx, pick(left, fc, fd)))
        better = live & (fx > best_f)
        best_x, best_f = pick(better, x, best_x), pick(better, fx, best_f)
        live &= b - a >= xtol
        if not any_live(live):
            break
    return best_x, best_f


_BRENT_RTOL, _BRENT_ITER = 4 * float(np.finfo(float).eps), 100    # scipy's brentq defaults


def _div(p: float, q: float) -> float:
    """``p / q`` on Python floats with C's IEEE result, ±inf or nan, where Python raises."""
    if q != 0.0:
        return p / q
    return math.nan if p == 0.0 or p != p else math.copysign(math.inf, p) * math.copysign(1.0, q)


def _brent(xpre: float, xcur: float, fpre: float, fcur: float, xtol: float):
    """One bracket of scipy's ``brentq.c``, step for step: yields each iterate, is sent its value."""
    if math.isnan(fpre) or math.isnan(fcur):
        raise ValueError(f"The function value at an end of [{xpre}, {xcur}] is NaN")
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_ITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:       # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:                  # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            good = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
            spre, scur = (scur, stry) if good else (sbis, sbis)
        else:                      # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = yield xcur
        if math.isnan(fcur):
            raise ValueError(f"The function value at x={xcur} is NaN; solver cannot continue.")
    raise RuntimeError(f"Failed to converge after {_BRENT_ITER} iterations.")


def brent_roots(fun: Callable, brackets, xtol: float) -> list:
    """Roots of ``fun`` in each bracket ``(a, b, fun(a), fun(b))``, as a list of floats.

    Each root is ``scipy.optimize.brentq(fun, a, b, xtol=xtol)`` bit for bit (a port
    of its iteration on Python floats, errors included).  The brackets advance together:
    ``fun`` maps the array of live iterates elementwise, once per round, and no end is read.
    """
    runs = [_brent(float(a), float(b), float(fa), float(fb), xtol) for a, b, fa, fb in brackets]
    roots, live, values = [None] * len(runs), range(len(runs)), [None] * len(runs)
    while live:
        step, xs = [], []
        for k, fx in zip(live, values):      # the first send starts each run
            try:
                xs.append(runs[k].send(fx))
                step.append(k)
            except StopIteration as done:
                roots[k] = done.value
        live, values = step, (fun(np.array(xs)).tolist() if xs else [])
    return roots


# ---------------------------------------------------------------------------
# regions and quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Region:
    """Convex region: base polytope cut by extra linear inequalities.

    ``indicator``, when given, refines membership further (used for curved
    superlevel sets in 2-d); it must select a subset of the polyhedral part.
    In 1-d every region used here is an interval and the indicator agrees
    with the constraint evaluation exactly.
    """

    base: Polytope
    constraints: tuple = ()              # ((normal, offset), ...): normal . x <= offset
    indicator: Optional[Callable] = None

    def contains(self, points, tol: float = GEOM_TOL):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ok = self.base.contains(pts, tol)
        for normal, offset in self.constraints:
            ok &= pts @ np.asarray(normal, dtype=float) <= offset + tol
        if self.indicator is not None:
            ok &= np.asarray(self.indicator(pts), dtype=bool)
        return ok if np.ndim(points) > 1 else bool(ok[0])

    def all_halfspaces(self):
        rows_n = [self.base.normals] if len(self.base.normals) else []
        rows_b = [self.base.offsets] if len(self.base.normals) else []
        for normal, offset in self.constraints:
            rows_n.append(np.asarray([normal], dtype=float))
            rows_b.append(np.asarray([offset], dtype=float))
        if not rows_n:
            return np.zeros((0, self.base.dim)), np.zeros(0)
        return np.vstack(rows_n), np.concatenate(rows_b)

    def interval(self):
        """(lo, hi) of the polyhedral part, 1-d regions only."""
        if self.base.dim != 1:
            raise InputError("interval() is for 1-d regions")
        lo = float(self.base.vertices[:, 0].min())
        hi = float(self.base.vertices[:, 0].max())
        for normal, offset in self.constraints:
            a = float(np.asarray(normal).ravel()[0])
            b = float(offset)
            if a > GEOM_TOL:
                hi = min(hi, b / a)
            elif a < -GEOM_TOL:
                lo = max(lo, b / a)
            elif b < -GEOM_TOL:
                return 0.0, -1.0
        return lo, hi

    def is_empty(self, tol: float = GEOM_TOL) -> bool:
        if self.base.dim == 1:
            lo, hi = self.interval()
            return lo > hi + tol
        normals, offsets = self.all_halfspaces()
        if not len(normals):
            return False
        res = linprog(np.zeros(self.base.dim), A_ub=normals, b_ub=offsets,
                      bounds=[(None, None)] * self.base.dim, method="highs")
        return not res.success


def _positive_support(fun, lo, hi, probes):
    """Closure of ``{fun > 0}`` in ``[lo, hi]`` as ``(a, b)``, or ``None`` if empty.

    ``fun`` is concave, so its positive set is one interval: the first and
    last positive of ``probes`` equispaced probes are moved out to the roots
    toward their outer neighbours, both ends in one :func:`brent_roots` from
    the probe values.  ``fun`` maps an array of points to their values.
    """
    xs = np.linspace(lo, hi, probes)
    vs = fun(xs)
    idx = np.nonzero(vs > 0.0)[0]
    if not len(idx):
        return None
    i, j = idx[0], idx[-1]
    outer = [k for k in (i - 1, j) if 0 <= k < probes - 1]     # brackets [xs[k], xs[k + 1]]
    roots = iter(brent_roots(fun, [(xs[k], xs[k + 1], vs[k], vs[k + 1]) for k in outer], 1e-14))
    a = next(roots) if i > 0 else xs[i]
    b = next(roots) if j < probes - 1 else xs[j]
    return (a, b) if b > a else None


_GL32_NODES, _GL32_WEIGHTS = np.polynomial.legendre.leggauss(32)


def pl_positive_integral(x: np.ndarray, g: np.ndarray) -> float:
    """Exact integral of the positive part of a piecewise-linear function."""
    total = 0.0
    for x0, x1, y0, y1 in zip(x[:-1], x[1:], g[:-1], g[1:]):
        if y0 <= 0.0 and y1 <= 0.0:
            continue
        if y0 >= 0.0 and y1 >= 0.0:
            total += 0.5 * (y0 + y1) * (x1 - x0)
            continue
        xr = x0 + (x1 - x0) * y0 / (y0 - y1)
        if y0 > 0.0:
            total += 0.5 * y0 * (xr - x0)
        else:
            total += 0.5 * y1 * (x1 - xr)
    return total


def integrate_positive_part(transform, region: Region, shift: float = 0.0,
                            rel_tol: float = 1e-9) -> float:
    """Quadrature of ``max(transform - shift, 0)`` over ``region``.

    ``transform`` is a concave callable on batches of points, e.g. a concave
    transform object: in 1-d it maps an array of points to an array of
    values of the same shape, in 2-d an ``(N, 2)`` array to ``(N,)`` values;
    a single point (a float in 1-d, a pair in 2-d) gives a single value.
    Empty regions integrate to 0.  Refining the probe grid changes the
    result below quadrature tolerance because the sign changes are located
    by root-finding before integrating.
    """
    dim = region.base.dim
    if region.is_empty():
        return 0.0
    if dim == 1:
        lo, hi = region.interval()
        f = lambda x: transform(x) - shift
        iv = _positive_support(f, lo, hi, 513) if hi - lo > 1e-15 else None
        if iv is None:
            return 0.0
        return quad(f, *iv, epsabs=1e-11, epsrel=rel_tol, limit=200)[0]
    if dim != 2:
        raise InputError("quadrature implemented for regions of dimension <= 2")

    normals, offsets = region.all_halfspaces()
    poly = polytope_from_halfspaces(normals, offsets)
    x_lo = float(poly.vertices[:, 0].min())
    x_hi = float(poly.vertices[:, 0].max())

    def inner(x1):
        lo2, hi2 = -np.inf, np.inf
        for (a, b) in zip(normals, offsets):
            a2 = a[1]
            rest = b - a[0] * x1
            if a2 > GEOM_TOL:
                hi2 = min(hi2, rest / a2)
            elif a2 < -GEOM_TOL:
                lo2 = max(lo2, rest / a2)
            elif rest < -GEOM_TOL:
                return 0.0
        if not np.isfinite(lo2) or not np.isfinite(hi2) or hi2 <= lo2:
            return 0.0

        def g(y):
            return transform(np.column_stack([np.full(len(y), x1), y])) - shift

        iv = _positive_support(g, lo2, hi2, 129)
        if iv is None:
            return 0.0
        a, b = iv
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        return half * float(_GL32_WEIGHTS @ g(mid + half * _GL32_NODES))

    val, _ = quad(inner, x_lo, x_hi, epsabs=1e-10, epsrel=1e-8, limit=200)
    return float(val)


# ---------------------------------------------------------------------------
# sliced interior predicate
# ---------------------------------------------------------------------------

def sliced_interior_nonempty(c: Polytope, a: float, tol: float = GEOM_TOL):
    """Whether ``{x in C : x_1 < a}`` has nonempty interior.

    Decided by a Chebyshev-style LP over the slice; for full-dimensional C
    this equals (C has interior) AND (the slice is nonempty).  Returns the
    boolean; the witness point is available via :func:`sliced_interior_witness`.
    """
    ok, _ = sliced_interior_witness(c, a, tol)
    return ok


def sliced_interior_witness(c: Polytope, a: float, tol: float = GEOM_TOL):
    if not len(c.normals):
        return False, None
    e1 = np.zeros(c.dim)
    e1[0] = 1.0
    normals = np.vstack([c.normals, e1])
    offsets = np.concatenate([c.offsets, [a]])
    x, r = _chebyshev(normals, offsets)
    if r > tol:
        return True, x
    return False, None

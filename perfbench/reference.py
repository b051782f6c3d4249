"""Reference values computed without the library's code paths.

Everything here is mpmath at 30 significant digits, derived from the closed
forms of the canonical family:

* d = 1 canonical: the antiderivative of ``t log(a / t)`` between the
  roots of ``G`` (Newton at full precision).
* d = 1 sums of canonical parts: the volume integral is taken in the
  potential's own variable ``s``.  With ``x = u'(s)`` the
  transform is ``G(x) = (u(s) - s u'(s) + twist) / 2`` and ``dx = u''(s) ds``,
  so no Legendre transform or sup-convolution is evaluated.
* d = 2 (canonical): the integral runs over normalized simplex coordinates
  ``y``; the inner integral along ``y2`` uses the antiderivative of
  ``t log(a / t)``, the outer one is tanh-sinh quadrature split at every
  point where the integrand is not smooth.
* multiplicities: the positive region's extreme along the center's
  functional is the root of a two-group entropy slice maximum.

Records are the CLI's divisor records, so the references read the same
inputs as the program but none of its code.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 30

_EPS_REL = mp.mpf(10) ** -25


def _root(f, a, b):
    """Root of ``f`` bracketed by ``[a, b]``."""
    return mp.findroot(f, (a, b), solver="anderson", verify=False)


def _newton_root(f, df, f64, a, b):
    """Root of ``f`` with a sign change on ``[a, b]``.

    Bisection on the double-precision twin ``f64``, then Newton steps on
    ``f`` at full precision; a step that leaves the bracket falls back to a
    bracketing solver.
    """
    lo, hi = float(a), float(b)
    neg_lo = f64(lo) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (f64(mid) < 0) == neg_lo:
            lo = mid
        else:
            hi = mid
    x = mp.mpf(0.5 * (lo + hi))
    for _ in range(4):
        if not a < x < b:
            return _root(f, a, b)
        step = f(x) / df(x)
        x -= step
        if abs(step) <= _EPS_REL * abs(x):
            break
    return x if a <= x <= b else _root(f, a, b)


def _xlog64(t, a):
    return t * math.log(a / t) if t > 0 else 0.0


def _mpf_list(xs):
    return [mp.mpf(float(x)) for x in xs]


def _canonical_parts(rec):
    """(a, scale, shift) per canonical part of a closed-form record."""
    pot = rec["potential"]
    d = rec["d"]
    parts = pot["parts"] if pot["kind"] == "sum" else [pot]
    return [(_mpf_list(p["a"]), mp.mpf(float(p.get("scale", 1.0))),
             _mpf_list(p.get("shift", [0.0] * d))) for p in parts]


# ---------------------------------------------------------------------------
# d = 1
# ---------------------------------------------------------------------------

class _Potential1D:
    """A sum of canonical d = 1 potentials as a function of ``s``."""

    def __init__(self, rec):
        self.parts = _canonical_parts(rec)
        self.twist = mp.mpf(float(rec.get("twist", 0.0)))

    def u(self, s):
        return mp.fsum(sc * mp.log(a[0] + a[1] * mp.exp(s)) - sh[0] * s
                       for a, sc, sh in self.parts)

    def du(self, s):
        return mp.fsum(sc * a[1] / (a[0] * mp.exp(-s) + a[1]) - sh[0]
                       for a, sc, sh in self.parts)

    def d2u(self, s):
        out = mp.mpf(0)
        for a, sc, _ in self.parts:
            e = mp.exp(s)
            out += sc * a[0] * a[1] * e / (a[0] + a[1] * e) ** 2
        return out

    def h(self, s, level):
        """2 G(u'(s)) - 2 level: positive exactly on the positive region."""
        return self.u(s) - s * self.du(s) + self.twist - 2 * level

    def h_limit(self, side, level):
        # u - s u' tends to sum scale*log(a_0) at -inf and sum scale*log(a_1) at +inf
        k = 0 if side < 0 else 1
        return mp.fsum(sc * mp.log(a[k]) for a, sc, _ in self.parts) + self.twist - 2 * level


def _root_on_side(f, side, limit_value):
    """Root of ``f`` on (-inf, 0] (side -1) or [0, inf) (side +1).

    ``f`` increases up to 0 and decreases after it, with ``f(0) > 0``; the
    root is infinite when the limit at that end is not negative.
    """
    if limit_value >= 0:
        return mp.mpf(side) * mp.inf
    far = mp.mpf(side)
    while f(far) >= 0:
        far *= 2
    return _root(f, far, mp.mpf(0)) if side < 0 else _root(f, mp.mpf(0), far)


def _positive_s_interval(pot, level):
    f = lambda s: pot.h(s, level)
    if f(0) <= 0:
        return None
    return (_root_on_side(f, -1, pot.h_limit(-1, level)),
            _root_on_side(f, 1, pot.h_limit(1, level)))


def _vol_1d_canonical(rec, x_lo, x_hi, level):
    """scale^2 times the integral of max(E(y) - c, 0), by the antiderivative."""
    (a, scale, shift), = _canonical_parts(rec)
    c = (2 * mp.mpf(level) - mp.mpf(float(rec.get("twist", 0.0)))) / scale
    lo = mp.mpf(0) if x_lo is None else (mp.mpf(x_lo) + shift[0]) / scale
    hi = mp.mpf(1) if x_hi is None else (mp.mpf(x_hi) + shift[0]) / scale
    f = lambda y: _xlog(y, a[1]) + _xlog(1 - y, a[0]) - c
    df = lambda y: mp.log(a[1] / y) - mp.log(a[0] / (1 - y))
    f64 = lambda y: _xlog64(y, float(a[1])) + _xlog64(1 - y, float(a[0])) - float(c)
    peak = min(max(a[1] / (a[0] + a[1]), lo), hi)
    if hi <= lo or f(peak) <= 0:
        return mp.mpf(0)
    p = lo if f(lo) >= 0 else _newton_root(f, df, f64, lo, peak)
    q = hi if f(hi) >= 0 else _newton_root(f, df, f64, peak, hi)
    anti = lambda y: _anti(y, a[1]) - _anti(1 - y, a[0]) - c * y
    return scale ** 2 * (anti(q) - anti(p))


def _vol_1d(rec, x_lo=None, x_hi=None, level=0.0):
    if rec["potential"]["kind"] == "canonical":
        return _vol_1d_canonical(rec, x_lo, x_hi, level)
    if x_lo is not None or x_hi is not None:
        raise ValueError("horizontal cuts of sum potentials have no reference")
    pot = _Potential1D(rec)
    iv = _positive_s_interval(pot, mp.mpf(level))
    if iv is None:
        return mp.mpf(0)
    s_lo, s_hi = iv
    integrand = lambda s: pot.h(s, level) * pot.d2u(s)
    pts = [s_lo] + ([mp.mpf(0)] if s_lo < 0 < s_hi else []) + [s_hi]
    return mp.quad(integrand, pts)


# ---------------------------------------------------------------------------
# d = 2: canonical potentials over the normalized simplex
# ---------------------------------------------------------------------------

def _anti(t, a):
    """Antiderivative of t log(a / t): t^2/2 log(a/t) + t^2/4, zero at 0."""
    if t <= 0:
        return mp.mpf(0)
    return t * t / 2 * mp.log(a / t) + t * t / 4


def _xlog(t, a):
    return mp.mpf(0) if t <= 0 else t * mp.log(a / t)


class _Simplex2D:
    """E(y) = sum_i y_i log(a_i / y_i) - c on the normalized simplex cut by
    ``alpha . y <= beta`` rows."""

    def __init__(self, a, c, rows):
        self.a = a
        self.c = c
        self.rows = [(mp.mpf(0) - 1, mp.mpf(0), mp.mpf(0)),      # -y1 <= 0
                     (mp.mpf(0), mp.mpf(0) - 1, mp.mpf(0)),      # -y2 <= 0
                     (mp.mpf(1), mp.mpf(1), mp.mpf(1))] + rows   # y1 + y2 <= 1

    def E(self, y1, y2):
        a0, a1, a2 = self.a
        return _xlog(y1, a1) + _xlog(y2, a2) + _xlog(1 - y1 - y2, a0) - self.c

    def slice_bounds(self, y1):
        lo, hi = mp.mpf(-mp.inf), mp.mpf(mp.inf)
        for al1, al2, be in self.rows:
            rest = be - al1 * y1
            if al2 > 0:
                hi = min(hi, rest / al2)
            elif al2 < 0:
                lo = max(lo, rest / al2)
            elif rest < 0:
                return None
        return (lo, hi) if hi > lo else None

    def vertices(self):
        pts = []
        rows = self.rows
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                a1, a2, b = rows[i]
                c1, c2, e = rows[j]
                det = a1 * c2 - a2 * c1
                if det == 0:
                    continue
                y1 = (b * c2 - a2 * e) / det
                y2 = (a1 * e - b * c1) / det
                if all(r1 * y1 + r2 * y2 <= rb + _EPS_REL for r1, r2, rb in rows):
                    pts.append((y1, y2))
        return pts

    def slice_positive(self, y1):
        """[p, q] where E(y1, .) >= 0 inside the slice, or None."""
        b = self.slice_bounds(y1)
        if b is None:
            return None
        lo, hi = b
        a0, _, a2 = self.a
        w = 1 - y1
        peak = min(max(w * a2 / (a0 + a2), lo), hi)
        f = lambda y2: self.E(y1, y2)
        if f(peak) <= 0:
            return None
        # dE/dy2 = log(a2 / y2) - log(a0 / (w - y2))
        df = lambda y2: mp.log(a2 / y2) - mp.log(a0 / (w - y2))
        a64 = [float(x) for x in self.a]
        y1f, wf, cf = float(y1), float(w), float(self.c)
        base = _xlog64(y1f, a64[1]) - cf
        f64 = lambda y2: base + _xlog64(y2, a64[2]) + _xlog64(wf - y2, a64[0])
        p = lo if f(lo) >= 0 else _newton_root(f, df, f64, lo, peak)
        q = hi if f(hi) >= 0 else _newton_root(f, df, f64, peak, hi)
        return p, q

    def inner(self, y1):
        pq = self.slice_positive(y1)
        if pq is None:
            return mp.mpf(0)
        p, q = pq
        a0, a1, a2 = self.a
        w = 1 - y1
        lin = (_xlog(y1, a1) - self.c) * (q - p)
        return lin + (_anti(q, a2) - _anti(w - q, a0)) - (_anti(p, a2) - _anti(w - p, a0))

    def slice_max(self, y1):
        b = self.slice_bounds(y1)
        if b is None:
            return mp.mpf(-1)
        lo, hi = b
        a0, _, a2 = self.a
        peak = min(max((1 - y1) * a2 / (a0 + a2), lo), hi)
        return self.E(y1, peak)

    def breakpoints(self):
        """Outer-variable points where the inner integral is not smooth."""
        verts = self.vertices()
        ys = sorted({v[0] for v in verts})
        lo, hi = ys[0], ys[-1]
        pts = set(ys)
        # crossings of {E = 0} with the polygon edges, and the support ends
        for f in self._edge_functions(verts) + [self.slice_max]:
            pts.update(_concave_roots(f, lo, hi))
        return sorted(p for p in pts if lo <= p <= hi)

    def _edge_functions(self, verts):
        out = []
        for al1, al2, be in self.rows:
            on = [v for v in verts if abs(al1 * v[0] + al2 * v[1] - be) <= _EPS_REL]
            if len(on) < 2 or al2 == 0:
                continue
            y1s = sorted(v[0] for v in on)
            lo, hi = y1s[0], y1s[-1]

            def f(y1, al1=al1, al2=al2, be=be, lo=lo, hi=hi):
                if y1 < lo or y1 > hi:
                    return mp.mpf(-1)
                return self.E(y1, (be - al1 * y1) / al2)
            out.append(f)
        return out

    def integral(self):
        pts = self.breakpoints()
        if len(pts) < 2:
            return mp.mpf(0)
        # degree 4 already meets the 30-digit error estimate on regular
        # integrands; a higher one only adds nodes on the rare nearly
        # tangent cut, where the estimate stays near 1e-13
        return mp.quad(self.inner, pts, maxdegree=4)


def _concave_roots(f, lo, hi, probes=64):
    """Roots of a function that is concave where it is not -1 (outside)."""
    xs = [lo + (hi - lo) * k / probes for k in range(probes + 1)]
    vals = [f(x) for x in xs]
    out = []
    for k in range(probes):
        if (vals[k] < 0) != (vals[k + 1] < 0) and vals[k] != -1 and vals[k + 1] != -1:
            out.append(_root(f, xs[k], xs[k + 1]))
    return out


def _normalized_rows(rec, constraints):
    """Constraints ``normal . x <= offset`` in normalized coordinates."""
    (a, scale, shift), = _canonical_parts(rec)
    rows = []
    for normal, offset in constraints:
        n = _mpf_list(normal)
        rows.append((scale * n[0], scale * n[1],
                     mp.mpf(float(offset)) + n[0] * shift[0] + n[1] * shift[1]))
    return rows


def _vol_2d(rec, constraints=(), level=0.0):
    (a, scale, _), = _canonical_parts(rec)
    twist = mp.mpf(float(rec.get("twist", 0.0)))
    c = (2 * mp.mpf(level) - twist) / scale
    region = _Simplex2D(a, c, _normalized_rows(rec, constraints))
    return 3 * scale ** 3 * region.integral()


# ---------------------------------------------------------------------------
# base conditions, as the CLI's --mu flags
# ---------------------------------------------------------------------------

def _horizontal(d, coeffs, kind, index, bound):
    """Halfspace (normal, offset) cut by one horizontal condition."""
    c = coeffs
    if kind == "hyperplane":
        if index == 0:
            return [1.0] * d, c[0] - bound
        normal = [0.0] * d
        normal[index - 1] = -1.0
        return normal, c[index] - bound
    if index == 0:
        return [-1.0] * d, sum(c[1:]) - bound
    normal = [0.0] * d
    normal[index - 1] = 1.0
    return normal, c[0] + sum(c[1:]) - c[index] - bound


def parse_conditions(flags):
    out = []
    for text in flags:
        kind, index, bound = text.split(":")
        out.append((kind, int(index), float(bound)))
    return out


def volume(rec, conditions=()):
    """(d+1)! times the integral of max(G - fiber level, 0) over the cut body."""
    d = rec["d"]
    coeffs = rec["coeffs"]
    level = sum(b * math.log(i) for k, i, b in conditions if k == "fiber")
    cuts = [_horizontal(d, coeffs, k, i, b) for k, i, b in conditions if k != "fiber"]
    if d == 1:
        x_lo, x_hi = None, None
        for (n,), off in cuts:
            if n > 0:
                x_hi = off if x_hi is None else min(x_hi, off)
            else:
                x_lo = -off if x_lo is None else max(x_lo, -off)
        lo_body, hi_body = -coeffs[1], coeffs[0]
        if (x_lo is not None and x_lo >= hi_body) or (x_hi is not None and x_hi <= lo_body):
            return 0.0
        x_lo = None if x_lo is None or x_lo <= lo_body else x_lo
        x_hi = None if x_hi is None or x_hi >= hi_body else x_hi
        return float(_vol_1d(rec, x_lo, x_hi, level))
    return float(_vol_2d(rec, cuts, level))


# ---------------------------------------------------------------------------
# asymptotic multiplicities
# ---------------------------------------------------------------------------

def _subset_min(a, subset, c):
    """min of t = sum_{i in subset} y_i over {E >= c} (normalized simplex)."""
    a_in = mp.fsum(a[i] for i in subset)
    a_out = mp.fsum(a[i] for i in range(len(a)) if i not in subset)
    f = lambda t: _xlog(t, a_in) + _xlog(1 - t, a_out) - c
    peak = a_in / (a_in + a_out)
    if f(mp.mpf(0)) >= 0:
        return mp.mpf(0)
    return _root(f, mp.mpf(0), peak)


def mu(rec, kind, index, twist_delta=0.0):
    """Asymptotic multiplicity of a big closed-form divisor at a center."""
    if kind == "fiber":
        return 0.0
    d = rec["d"]
    rec = dict(rec, twist=float(rec.get("twist", 0.0)) + twist_delta)
    if rec["potential"]["kind"] == "sum":
        pot = _Potential1D(rec)
        s_lo, s_hi = _positive_s_interval(pot, mp.mpf(0))
        coeffs = _mpf_list(rec["coeffs"])
        x_lo = -coeffs[1] if s_lo == -mp.inf else pot.du(s_lo)
        x_hi = coeffs[0] if s_hi == mp.inf else pot.du(s_hi)
        left = (kind == "hyperplane") == (index == 1)
        return float(x_lo + coeffs[1] if left else coeffs[0] - x_hi)
    (a, scale, _), = _canonical_parts(rec)
    c = -mp.mpf(float(rec["twist"])) / scale
    # the center's functional is scale * sum_{i in T} y_i with y_0 = 1 - sum y
    if kind == "hyperplane":
        subset = [index]
    else:
        subset = [i for i in range(d + 1) if i != index]
    return float(scale * _subset_min(a, subset, c))

"""Span recorder for the traced run.

The recorder wraps the calls into each module's public functions from the
outside: every ``arithvol`` module namespace that binds a listed function
gets the same wrapper, so a call is recorded once whichever module makes
it (``cli`` imports names from ``divisor``, ``divisor`` from
``convexcore``).  Spans carry name, start, end, parent span and request id;
they stay in memory and are written out when the run ends.  Hot callees
(the transform's evaluation, scipy's ``brentq`` and ``quad``) are counted,
not spanned.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

import numpy as np

MODULES = ("cli", "divisor", "convexcore", "oracle", "zariski", "okounkov")

SPANNED = {
    "cli": ("main",),
    "divisor": ("divisor_from_record", "concave_transform", "vol_hat", "vol_hat_base", "mu_R",
                "positive_region", "filtration_summary", "log_sup_norm_monomial",
                "mu_monotone_continuity_profile", "multiplicity_law_suite"),
    "convexcore": ("convex_hull", "legendre_conjugate", "integrate_positive_part",
                   "pl_positive_integral", "constrained_convex_minorant"),
    "oracle": ("enumerate_sections", "log_count", "mu_Q_approx", "sup_norm_numeric"),
    "zariski": ("greatest_nef_minorant", "verify_zariski", "check_multiplicity_identity",
                "vol_rot", "nef_certificate"),
    "okounkov": ("full_series", "semigroup_points", "okounkov_body"),
}
GRID_CALL = "convexcore.GridConvexFunction.call"
SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in SPANNED.items() for f in fs) + (GRID_CALL,)


def _pair_evals(u, conj):
    """(x, s) pairs the grid conjugate maximizes over, from the array sizes."""
    if u.ndim == 1:
        return len(conj.axes[0]) * len(u.axes[0])
    (s1, s2), (x1, x2) = u.axes, conj.axes
    return len(x1) * len(s1) * len(s2) + len(x1) * len(x2) * len(s2)


def _divisor_key(dv):
    """Value identity of a divisor (sampled grids by content hash)."""
    pot = dv.potential
    u = getattr(pot, "u", None)
    if u is not None and hasattr(u, "values"):
        pot = (u.values.shape, hash(u.values.tobytes()), u.recession)
    return (dv.d, dv.coeffs, dv.twist, repr(pot))


def _points(divisor, x) -> int:
    """Points in one transform call: a scalar or pair is one, an array many."""
    return max(1, np.size(x) // divisor.d)


class Tracer:
    """Records spans and counts while installed; restores the modules on removal."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, request id]
        self.counts = Counter()
        self.request = None
        self._stack = []
        self._undo = []
        self._divisors = set()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _counter(self, name, fn, points=False):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if points:
                counts[name + ".points"] += _points(args[0].divisor, args[1])
            return fn(*args, **kwargs)
        return wrapper

    def _after_transform(self, args, out):
        self._divisors.add(_divisor_key(args[0]))

    def _after_conjugate(self, args, out):
        self.counts["convexcore.legendre_conjugate.pair_evals"] += _pair_evals(args[0], out)

    def _after_sections(self, args, out):
        self.counts["oracle.sections"] += len(out.entries)
        self.counts["oracle.exact_sections"] += sum(e.radius_sq is not None for e in out.entries)

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mods = {m: importlib.import_module(f"arithvol.{m}") for m in MODULES}
        namespaces = [importlib.import_module("arithvol")] + list(mods.values())
        after = {"divisor.concave_transform": self._after_transform,
                 "convexcore.legendre_conjugate": self._after_conjugate,
                 "oracle.enumerate_sections": self._after_sections}
        for mod, names in SPANNED.items():
            for fname in names:
                original = getattr(mods[mod], fname)
                wrapped = self._wrap(f"{mod}.{fname}", original, after.get(f"{mod}.{fname}"))
                for ns in namespaces:
                    if getattr(ns, fname, None) is original:
                        self._set(ns, fname, wrapped)
        grid_cls = mods["convexcore"].GridConvexFunction
        self._set(grid_cls, "__call__", self._wrap(GRID_CALL, grid_cls.__call__))
        transform_cls = mods["divisor"].ConcaveTransform
        for attr in ("__call__", "values_on"):
            self._set(transform_cls, attr,
                      self._counter("divisor.G", getattr(transform_cls, attr), points=True))
        for mod in ("divisor", "convexcore"):
            self._set(mods[mod], "brentq", self._counter(f"{mod}.brentq", mods[mod].brentq))
        self._set(mods["convexcore"], "quad",
                  self._counter("convexcore.quad", mods["convexcore"].quad))

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, self seconds); self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, selfs = Counter(), Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            calls[name] += 1
            selfs[name] += (end - start) - inner
        return calls, selfs

    def metrics(self) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``."""
        calls, selfs = self.self_times()
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (selfs[name], "s")
        c = self.counts
        out["divisor.G.calls"] = (c["divisor.G.calls"], "count")
        out["divisor.G.points"] = (c["divisor.G.points"], "count")
        out["divisor.G.points_per_call"] = (c["divisor.G.points"] / max(c["divisor.G.calls"], 1),
                                            "points/call")
        out["divisor.transform_builds_per_divisor"] = (
            calls["divisor.concave_transform"] / max(len(self._divisors), 1), "builds/divisor")
        out["divisor.brentq.calls"] = (c["divisor.brentq.calls"], "count")
        out["convexcore.legendre_conjugate.pair_evals"] = (
            c["convexcore.legendre_conjugate.pair_evals"], "pairs_computed")
        out["convexcore.quad.calls"] = (c["convexcore.quad.calls"], "count")
        out["convexcore.brentq.calls"] = (c["convexcore.brentq.calls"], "count")
        out["convexcore.integration_warnings"] = (c["convexcore.integration_warnings"], "count")
        out["oracle.sections"] = (c["oracle.sections"], "count")
        out["oracle.exact_radius_share"] = (
            c["oracle.exact_sections"] / max(c["oracle.sections"], 1), "fraction")
        return out

    def write(self, path: str):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start_s", "end_s", "parent", "request"],
                       "spans": [[index[n], round(a, 7), round(b, 7), p, r]
                                 for n, a, b, p, r in self.spans],
                       "counts": dict(self.counts)}, fh)

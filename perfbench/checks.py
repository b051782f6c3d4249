"""Per-request correctness checks, run outside the timed region.

Each request is checked against a reference that does not share the timed
path:

* closed-form ``vol`` / ``vol-base`` / ``mu`` / ``mu-profile``: mpmath
  values from :mod:`reference`;
* sampled requests: the same references for the canonical divisor the
  grid was sampled from;
* ``e-range`` on closed-form divisors: ``oracle.sup_norm_numeric`` at the
  extreme monomials (located with the closed form);
* ``oracle-check`` counts: byte-identical to ``goldens.json``;
* every request: its expected exit code and output files.

Tolerances come from the README contracts and the existing tests and were
fixed before any result was looked at: quadrature 1e-6, closed-form
multiplicities 1e-9, ``sup_norm_numeric`` relative 1e-6, sampled grids
1e-3 (per unit level for filtration values), Zariski volumes and
multiplicities 1e-3.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

import reference

TOL_QUADRATURE = 1e-6
TOL_MU_CLOSED = 1e-9
TOL_SUP_NORM = 1e-6
TOL_SAMPLED = 1e-3
TOL_ZARISKI = 1e-3
DIGITS_CAP = 12.0

# request classes whose values miss their tolerance at the seed commit;
# they stay in the mix and each miss is listed by request id
KNOWN_MISSES = {
    "mu.sampled.d2": "ROADMAP 3b: the 513^2 scan quantizes mu to 1/512 of the body width",
    "mu-profile.sampled.d2": "ROADMAP 3b: each profile point is a quantized mu scan",
}


def known_miss(cls: str):
    """Why requests of this class may miss at the seed commit, or None."""
    return KNOWN_MISSES.get(re.sub(r"\.n\d+$", "", cls))


@dataclass
class Outcome:
    problems: list = field(default_factory=list)   # operation failures
    misses: list = field(default_factory=list)     # values outside tolerance
    digits: list = field(default_factory=list)     # correct significant digits

    def value(self, label, got, ref, tol):
        """Compare one value; ``tol`` is relative to max(|ref|, 1)."""
        err = abs(float(got) - float(ref))
        self.digits.append(significant_digits(got, ref))
        if not err <= tol * max(1.0, abs(float(ref))):
            self.misses.append(f"{label}: got {got!r}, reference {float(ref)!r}, "
                               f"error {err:.3g} > {tol:g}")


def significant_digits(got, ref) -> float:
    """Correct digits of ``got``, capped at 12.

    Relative to max(|ref|, 1), as the tolerances are: values below 1
    (multiplicities, small volumes) count absolute digits, so a value near
    zero does not read as having none.
    """
    err = abs(float(got) - float(ref))
    if err == 0.0:
        return DIGITS_CAP
    return max(0.0, min(DIGITS_CAP, -math.log10(err / max(abs(float(ref)), 1.0))))


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_table(path):
    with open(path) as fh:
        return [line.rstrip("\n").split("\t") for line in fh if not line.startswith("#")]


def _mu_flag(req):
    kind, index, _ = req.flags[req.flags.index("--mu") + 1].split(":")
    return kind, int(index)


def _conditions(req):
    return reference.parse_conditions(
        req.flags[i + 1] for i, f in enumerate(req.flags) if f == "--mu")


_memo = {}


def _ref(fn, rec, *args, **kwargs):
    """Memoized reference value: oracle_levels reads the same divisors over and over."""
    key = (fn.__name__, json.dumps(rec, sort_keys=True), repr(args), repr(sorted(kwargs.items())))
    if key not in _memo:
        _memo[key] = fn(rec, *args, **kwargs)
    return _memo[key]


def _closed(req):
    """Closed-form record of the request and the tolerance class it gets."""
    if req.source is not None:
        return req.source, TOL_SAMPLED
    return req.record, None


# ---------------------------------------------------------------------------
# filtration values from the closed form
# ---------------------------------------------------------------------------

def admissible(rec, n):
    """Integer points of n times the body, as the CLI's e-range enumerates them."""
    c = rec["coeffs"]
    d = rec["d"]
    lows = [math.ceil(-n * c[1 + i] - 1e-9) for i in range(d)]
    if d == 1:
        return [(m,) for m in range(lows[0], math.floor(n * c[0] + 1e-9) + 1)]
    top = int(math.floor(n * sum(c) + 1e-9))
    return [m for m in itertools.product(*(range(lo, top + 1) for lo in lows))
            if sum(m) <= n * c[0] + 1e-9]


def closed_form_levels(rec, n, monomials):
    """t(m) = n G(m / n) for a canonical record, in float64."""
    pot = rec["potential"]
    a = np.asarray(pot["a"], dtype=float)
    sc = float(pot.get("scale", 1.0))
    sh = np.asarray(pot.get("shift", [0.0] * rec["d"]), dtype=float)
    y = (np.asarray(monomials, dtype=float) / n + sh) / sc
    y = np.column_stack([1.0 - y.sum(axis=1), y])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(y > 0, y * (np.log(a) - np.log(np.where(y > 0, y, 1.0))), 0.0)
    return n * (0.5 * sc * terms.sum(axis=1) + 0.5 * rec["twist"])


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def _check_volume(req, res, out, oc):
    rec, tol = _closed(req)
    ref = _ref(reference.volume, rec, _conditions(req))
    oc.value("value", res["value"], ref, tol or TOL_QUADRATURE)
    if req.record["d"] == 1 and not os.path.exists(os.path.join(out, "transform.tsv")):
        oc.problems.append("transform.tsv missing")


def _check_mu(req, res, out, oc):
    rec, tol = _closed(req)
    kind, index = _mu_flag(req)
    oc.value("value", res["value"], _ref(reference.mu, rec, kind, index), tol or TOL_MU_CLOSED)


def _check_profile(req, res, out, oc):
    rec, tol = _closed(req)
    kind, index = _mu_flag(req)
    rows = _read_table(os.path.join(out, "mu_profile.tsv"))
    grid = int(req.flags[req.flags.index("--grid") + 1])
    lo, hi = (float(t) for t in req.flags[req.flags.index("--twist-range") + 1].split(":"))
    twists = np.linspace(lo, hi, min(grid, 501))
    if len(rows) != len(twists):
        oc.problems.append(f"mu_profile.tsv has {len(rows)} rows, expected {len(twists)}")
        return
    for (_, got), lam in zip(rows, twists):
        oc.value(f"mu at twist {lam:.6g}", float(got),
                 _ref(reference.mu, rec, kind, index, twist_delta=float(lam)), tol or TOL_MU_CLOSED)
    if res.get("monotone") is not True:
        oc.problems.append("profile not reported monotone")


def _check_e_range(req, res, out, oc):
    from arithvol.divisor import divisor_from_record
    from arithvol.oracle import sup_norm_numeric

    n = int(req.flags[req.flags.index("--level") + 1])
    rec, tol = _closed(req)
    monos = admissible(rec, n)
    t = closed_form_levels(rec, n, monos)
    lo, hi = int(np.argmin(t)), int(np.argmax(t))
    if tol is not None:
        # sampled: the closed form of the source, per unit level
        oc.value("e_min", res["e_min"] / n, t[lo] / n, tol)
        oc.value("e_max", res["e_max"] / n, t[hi] / n, tol)
        return
    dv = divisor_from_record(req.record)
    for key, k in (("e_min", lo), ("e_max", hi)):
        ref = -math.log(sup_norm_numeric(dv, n, monos[k]))
        oc.value(key, res[key], ref, TOL_SUP_NORM)


def _check_body(req, res, out, oc):
    if not os.path.exists(os.path.join(out, "body_vertices.tsv")):
        oc.problems.append("body_vertices.tsv missing")
    d = req.record["d"]
    degree = round(req.record["coeffs"][0])
    oc.value("volume", res["volume"], degree ** d / math.factorial(d), TOL_MU_CLOSED)


def _check_prop_suite(req, res, out, oc):
    report = _read_json(os.path.join(out, "prop_report.json"))
    if report["failures"] != 0 or res["failures"] != 0:
        oc.problems.append(f"{report['failures']} law-suite trials failed")


def _check_zariski(req, res, out, oc):
    report = _read_json(os.path.join(out, "zariski_report.json"))
    if report["pass"] is not True:
        oc.problems.append("decomposition verification did not pass")
    vol = _ref(reference.volume, req.source)
    oc.value("vol_input", report["vol_input"], vol, TOL_ZARISKI)
    oc.value("vol_positive", report["vol_positive"], vol, TOL_ZARISKI)
    neg = report["negative"]
    oc.value("negative e1", neg["e1"], _ref(reference.mu, req.source, "hyperplane", 1), TOL_ZARISKI)
    oc.value("negative e0", neg["e0"], _ref(reference.mu, req.source, "hyperplane", 0), TOL_ZARISKI)


def _check_oracle(req, res, out, oc, goldens):
    name = req.cls.split(".", 1)[1]
    rows = _read_table(os.path.join(out, "oracle_counts.tsv"))
    levels = req.flags[req.flags.index("--levels") + 1].split(",")
    if [r[0] for r in rows] != levels:
        oc.problems.append(f"oracle_counts.tsv levels {[r[0] for r in rows]} != {levels}")
        return
    for n, count, _ in rows:
        same = goldens[name][n] == count
        oc.digits.append(DIGITS_CAP if same else 0.0)
        if not same:
            oc.misses.append(f"count at n={n}: {count} != golden {goldens[name][n]}")
    rec, tol = _closed(req)
    oc.value("value", res["value"], _ref(reference.volume, rec), tol or TOL_QUADRATURE)


_CHECKS = {"vol": _check_volume, "vol-base": _check_volume, "mu": _check_mu,
           "mu-profile": _check_profile, "e-range": _check_e_range, "body": _check_body,
           "prop-suite": _check_prop_suite, "zariski": _check_zariski}


def check(req, exit_code: int, out_dir: str, goldens: dict) -> Outcome:
    oc = Outcome()
    if exit_code != req.expect_exit:
        oc.problems.append(f"exit code {exit_code}, expected {req.expect_exit}")
        return oc
    if req.expect_exit != 0:
        return oc
    path = os.path.join(out_dir, "results.json")
    if not os.path.exists(path):
        oc.problems.append("results.json missing")
        return oc
    try:
        res = _read_json(path)
        if req.command == "oracle-check":
            _check_oracle(req, res, out_dir, oc, goldens)
        else:
            _CHECKS[req.command](req, res, out_dir, oc)
    except (OSError, KeyError, ValueError) as exc:
        oc.problems.append(f"output could not be checked: {exc!r}")
    return oc

"""Seeded request lists for the three workloads.

A workload is an endless sequence of *blocks*.  Block ``b`` of workload
``w`` at seed ``s`` is drawn from its own generator ``(s, b, w)``, so a
block's requests do not depend on how many blocks a run reaches.  Every
block holds the same mix of request classes in a fixed order; only the
divisors and flags vary with the seed.  Latency percentiles therefore see
the same class mix in every run.

The inputs never depend on the library under test: records are built
with numpy, and the closed-form references pick centers where needed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

import reference

WORKLOADS = ("closed_form", "sampled_grid", "oracle_levels")

# blocks every run executes, whatever --seconds says: two blocks give
# at least 100 requests, so that ten latency samples lie beyond p90
MIN_BLOCKS = 2

_TAGS = {"closed_form": 11, "sampled_grid": 23, "oracle_levels": 37}


@dataclass
class Request:
    id: str
    cls: str                       # request class: command/input kind
    command: str
    flags: list
    record: dict                   # divisor record handed to the program
    expect_exit: int = 0
    source: Optional[dict] = None  # closed-form record a sampled one came from
    path: str = ""                 # divisor file, set when written

    def argv(self, out_dir: str) -> list:
        return (["--command", self.command, "--divisor", self.path, "--out", out_dir]
                + list(self.flags))


# ---------------------------------------------------------------------------
# divisor records
# ---------------------------------------------------------------------------

def canonical_record(rng, d: int, margin: float, scale=(0.7, 1.5),
                     shift=0.35) -> dict:
    """Canonical-family record ``scale log(a_0 + sum a_i e^{s_i}) - <shift, s>``.

    The twist is set from ``margin = log(sum a) + twist / scale``: the
    divisor is big exactly when the margin is positive.
    """
    a = [float(x) for x in rng.uniform(0.3, 3.0, size=d + 1)]
    sc = float(rng.uniform(*scale))
    sh = [float(x) for x in rng.uniform(-shift, shift, size=d)]
    twist = sc * (margin - math.log(sum(a)))
    pot = {"kind": "canonical", "a": a, "scale": sc, "shift": sh}
    return {"d": d, "coeffs": [sc - sum(sh)] + sh, "potential": pot, "twist": twist}


def sum_record(rng, margin: float) -> dict:
    """Two-part d = 1 sum of canonical potentials.

    The parts come from a narrow family: the volume of a sum costs 6-8 s
    here and 4-10 s over the ranges of ``canonical_record``, and one such
    request is most of a block's time.
    """
    parts, coeffs = [], np.zeros(2)
    for _ in range(2):
        a = [float(x) for x in rng.uniform(0.8, 1.6, size=2)]
        sc = float(rng.uniform(0.7, 0.9))
        sh = [float(rng.uniform(-0.1, 0.1))]
        parts.append({"a": a, "scale": sc, "shift": sh})
        coeffs += np.array([sc - sum(sh)] + sh)
    top = sum(p["scale"] * math.log(sum(p["a"])) for p in parts)
    return {"d": 1, "coeffs": [float(c) for c in coeffs],
            "potential": {"kind": "sum", "parts": parts}, "twist": margin - top}


def potential_values(rec: dict, axes) -> np.ndarray:
    """Closed-form potential of a canonical record on a grid."""
    pot = rec["potential"]
    a, sc, sh = pot["a"], pot["scale"], pot["shift"]
    grids = np.meshgrid(*axes, indexing="ij")
    acc = np.full(grids[0].shape, math.log(a[0]))
    for i, g in enumerate(grids):
        acc = np.logaddexp(acc, math.log(a[i + 1]) + g)
    return sc * acc - sum(k * g for k, g in zip(sh, grids))


def sampled_record(src: dict, n: int, s_range: float) -> dict:
    """Resample a canonical record on an ``n`` (or ``n x n``) grid."""
    axis = np.linspace(-s_range, s_range, n)
    values = potential_values(src, [axis] * src["d"])
    return {"d": src["d"], "coeffs": list(src["coeffs"]),
            "potential": {"kind": "sampled", "s_min": -s_range, "s_max": s_range,
                          "values": values.tolist()},
            "twist": src["twist"]}


def _big(rng):
    return float(rng.uniform(0.15, 1.0))


def _not_big(rng):
    return float(rng.uniform(-1.0, -0.15))


def _center(rng, d: int) -> str:
    kind = "hyperplane" if rng.random() < 0.6 else "point"
    return f"{kind}:{int(rng.integers(0, d + 1))}:0"


def _base_flags(rng, d: int) -> list:
    """One horizontal cut, sometimes with a vertical fiber condition."""
    kind = "hyperplane" if rng.random() < 0.6 else "point"
    flags = ["--mu", f"{kind}:{int(rng.integers(0, d + 1))}:{rng.uniform(0.05, 0.3):.3f}"]
    if rng.random() < 0.4:
        flags += ["--mu", f"fiber:{int(rng.choice([2, 3, 5]))}:{rng.uniform(0.01, 0.1):.3f}"]
    return flags


def _positive_center(rng, rec, twist=0.0) -> str:
    """A center where the multiplicity after adding ``twist`` is at least 0.05.

    A zero multiplicity is exact on every path and short-cuts its solver; a
    positive one is where grid answers show their resolution and where every
    profile point costs the same.  Multiplicities fall as the twist grows,
    so a center positive at the top of a twist range is positive on all of it.
    """
    d = rec["d"]
    centers = [(kind, i) for kind in ("hyperplane", "point") for i in range(d + 1)]
    for k in rng.permutation(len(centers)):
        kind, i = centers[k]
        if reference.mu(rec, kind, i, twist_delta=twist) >= 0.05:
            return f"{kind}:{i}:0"
    return f"{centers[0][0]}:{centers[0][1]}:0"


def _profile_flags(rng, rec, grid: int, top=(0.1, 0.4)) -> list:
    """mu-profile flags over twists 0..hi, at a center positive on all of them."""
    hi = round(float(rng.uniform(*top)), 3)
    return ["--mu", _positive_center(rng, rec, hi), "--grid", str(grid),
            "--twist-range", f"0:{hi}"]


# ---------------------------------------------------------------------------
# closed_form: closed-form G, 2-d clipped quadrature, sum potentials
# ---------------------------------------------------------------------------

def _closed_form_block(rng) -> list:
    # 120 requests in latency bands, so that no percentile falls between two
    # classes: 47 fast ones (< 8 ms); 26 twist profiles of 2-d divisors on 15
    # twists (14-17 ms) that hold p50; 26 one-dimensional volumes (13-30 ms);
    # 16 profiles on 60 twists (40-55 ms) that hold p90; the law suite; and
    # 4 slow ones above p90 (2-d clipped quadrature, the sum potential).
    # Profiles use centers with a positive multiplicity at every twist, so
    # each point runs the same root search.
    out = []

    def add(cls, command, flags, rec, expect=0):
        out.append((cls, command, flags, rec, expect, None))

    def profile(d, grid):
        rec = canonical_record(rng, d, _big(rng))
        add(f"mu-profile.canonical.d{d}.g{grid}", "mu-profile", _profile_flags(rng, rec, grid),
            rec)

    for d in (1, 2):
        for _ in range(10):
            add(f"mu.canonical.d{d}", "mu", ["--mu", _center(rng, d)],
                canonical_record(rng, d, _big(rng)))
        add(f"mu.not-big.d{d}", "mu", ["--mu", _center(rng, d)],
            canonical_record(rng, d, _not_big(rng)), expect=3)
        for _ in range(4):
            add(f"body.canonical.d{d}", "body", ["--level", str(int(rng.integers(4, 8)))],
                canonical_record(rng, d, _big(rng), scale=(1.0, 1.4), shift=0.15))
    for _ in range(10):
        add("e-range.canonical.d1", "e-range", ["--level", str(int(rng.integers(15, 31)))],
            canonical_record(rng, 1, float(rng.uniform(-0.5, 1.0))))
    for _ in range(3):
        add("e-range.canonical.d2", "e-range", ["--level", str(int(rng.integers(6, 11)))],
            canonical_record(rng, 2, float(rng.uniform(-0.5, 1.0))))
    for _ in range(4):
        profile(1, 10)
    for _ in range(26):
        profile(2, 15)
    for _ in range(12):
        add("vol.canonical.d1", "vol", ["--grid", "201"], canonical_record(rng, 1, _big(rng)))
    for _ in range(14):
        add("vol-base.canonical.d1", "vol-base", ["--grid", "201"] + _base_flags(rng, 1),
            canonical_record(rng, 1, _big(rng)))
    for _ in range(16):
        profile(2, 60)
    add("prop-suite", "prop-suite", ["--trials", "1", "--seed", str(int(rng.integers(0, 2**31)))],
        canonical_record(rng, 1, _big(rng)))
    for _ in range(2):
        add("vol.canonical.d2", "vol", [], canonical_record(rng, 2, _big(rng)))
    add("vol-base.canonical.d2", "vol-base", _base_flags(rng, 2),
        canonical_record(rng, 2, _big(rng)))
    add("vol.sum.d1", "vol", ["--grid", "11"], sum_record(rng, float(rng.uniform(0.15, 0.4))))
    return out


# ---------------------------------------------------------------------------
# sampled_grid: grid Legendre conjugation over a range of grid sizes
# ---------------------------------------------------------------------------

GRID_1D = (501, 1001, 2001, 3001, 4001)
# 2-d grids keep the sample step at 80/256, so only the working set grows
GRID_2D = {65: 10.0, 129: 20.0, 257: 40.0}


def _sampled_block(rng) -> list:
    # 81 requests; 1-d costs grow with the grid size, so every block walks
    # the same sizes.  p50 falls inside the 16 filtration requests on
    # 2001-point grids (31 requests are cheaper, 34 dearer); p90 falls
    # inside the seven 2-d profiles, with the 2-d volumes above them.
    # 2-d volumes use sources with a margin of 1.2-1.5, where one costs
    # 0.4-1.5 s (thin positive regions cost up to 6 s); 2-d multiplicities
    # use thinner ones and a center where mu >= 0.05.
    out = []

    def add(cls, command, flags, n, d, margin=None):
        if margin is None:
            margin = _big(rng) if d == 1 else float(rng.uniform(1.2, 1.5))
        src = canonical_record(rng, d, margin, scale=(0.8, 1.3), shift=0.25)
        s_range = 40.0 if d == 1 else GRID_2D[n]
        out.append((f"{cls}.n{n}", command, list(flags), sampled_record(src, n, s_range), 0, src))
        return src

    def e_range(n, d):
        level = int(rng.integers(20, 61)) if d == 1 else int(rng.integers(5, 11))
        add(f"e-range.sampled.d{d}", "e-range", ["--level", str(level)], n, d)

    def positive(cls, command, n, profile):
        src = add(cls, command, [], n, 2, margin=float(rng.uniform(0.3, 0.6)))
        out[-1][2].extend(_profile_flags(rng, src, 2) if profile
                          else ["--mu", _positive_center(rng, src)])

    for n in GRID_1D:
        add("vol.sampled.d1", "vol", ["--grid", "101"], n, 1)
        add("vol-base.sampled.d1", "vol-base", ["--grid", "101"] + _base_flags(rng, 1), n, 1)
        for _ in range(3 if n < 2001 else 2):
            add("mu.sampled.d1", "mu", ["--mu", _center(rng, 1)], n, 1)
        for _ in range({501: 12, 1001: 9, 2001: 16}.get(n, 1)):
            e_range(n, 1)
    for n in GRID_1D[:2]:
        src = add("mu-profile.sampled.d1", "mu-profile", [], n, 1)
        out[-1][2].extend(_profile_flags(rng, src, 3))
    for n in GRID_1D[:3]:
        add("zariski.sampled.d1", "zariski", [], n, 1)
    for n in (129, 257):
        add("vol.sampled.d2", "vol", [], n, 2)
    add("vol-base.sampled.d2", "vol-base", _base_flags(rng, 2), 65, 2)
    for n in (65, 129):
        positive("mu.sampled.d2", "mu", n, profile=False)
    for n in GRID_2D:
        e_range(n, 2)
    for _ in range(7):
        positive("mu-profile.sampled.d2", "mu-profile", 65, profile=True)
    return out


# ---------------------------------------------------------------------------
# oracle_levels: four divisors read at many monomials
# ---------------------------------------------------------------------------

# fixed inputs, so that oracle counts can be compared with stored goldens
ORACLE_DIVISORS = {
    # untwisted, unit scale: the oracle uses exact Fraction radii
    "exact_d1": {"d": 1, "coeffs": [1.0, 0.0],
                 "potential": {"kind": "canonical", "a": [0.75, 1.5]}, "twist": 0.0},
    "twisted_d1": {"d": 1, "coeffs": [1.0, 0.0],
                   "potential": {"kind": "canonical", "a": [0.7, 2.2]}, "twist": 0.3},
    "canonical_d2": {"d": 2, "coeffs": [1.0, 0.0, 0.0],
                     "potential": {"kind": "canonical", "a": [1.0, 2.0, 4.0]}, "twist": 0.0},
}
SAMPLED_SOURCE = {"d": 1, "coeffs": [1.0, 0.0],
                  "potential": {"kind": "canonical", "a": [1.2, 0.9], "scale": 1.0,
                                "shift": [0.0]},
                  "twist": 0.1}
ORACLE_DIVISORS["sampled_d1"] = sampled_record(SAMPLED_SOURCE, 501, 40.0)

# oracle-check level sets, one request each per block; goldens.json
# covers every rung of each ladder
ORACLE_LEVELS = {
    "exact_d1": ("50,100", "100,200", "150,250,300", "50,150,250"),
    "twisted_d1": ("50,100", "100,200", "150,250,300", "50,150,250"),
    "canonical_d2": ("8,16", "12,20", "16,24", "8,12,20"),
    "sampled_d1": ("8,16", "12,20", "16,24", "8,12", "20,24", "12,16,24"),
}
ORACLE_LADDERS = {name: tuple(sorted({int(n) for s in sets for n in s.split(",")}))
                  for name, sets in ORACLE_LEVELS.items()}
# high e-range levels; t = n G stays inside the double range that the
# reference sup_norm_numeric (which returns the norm itself) can represent
ERANGE_LEVELS = {"exact_d1": (100, 600), "twisted_d1": (100, 600),
                 "canonical_d2": (20, 40), "sampled_d1": (100, 600)}
ERANGE_PER_BLOCK = 7


def _oracle_block(rng) -> list:
    # 50 requests on four fixed divisors; every block holds the same level
    # sets, and e-range levels are stratified over their range, so blocks
    # differ only in order, in e-range levels within a stratum and in the
    # law suite's seeds
    out = []

    def add(cls, command, flags, name):
        src = SAMPLED_SOURCE if name == "sampled_d1" else None
        out.append((cls, command, flags, ORACLE_DIVISORS[name], 0, src))

    for name in ORACLE_DIVISORS:
        for levels in ORACLE_LEVELS[name]:
            add(f"oracle-check.{name}", "oracle-check", ["--levels", levels], name)
        lo, hi = ERANGE_LEVELS[name]
        for k in range(ERANGE_PER_BLOCK):
            level = lo + int((hi - lo) * (k + rng.random()) / ERANGE_PER_BLOCK)
            add(f"e-range.{name}", "e-range", ["--level", str(level)], name)
        add("prop-suite", "prop-suite",
            ["--trials", "1", "--seed", str(int(rng.integers(0, 2**31)))], name)
    return out


_BUILDERS = {"closed_form": _closed_form_block, "sampled_grid": _sampled_block,
             "oracle_levels": _oracle_block}


def block(workload: str, seed: int, index: int) -> list:
    """The requests of one block, in the order they are sent.

    The order is shuffled, so each class is sampled across the whole block
    rather than in one burst that a transient slowdown of the machine could
    cover.
    """
    rng = np.random.default_rng([seed, index, _TAGS[workload]])
    specs = _BUILDERS[workload](rng)
    reqs = []
    for k, i in enumerate(rng.permutation(len(specs))):
        cls, command, flags, rec, expect, src = specs[i]
        rid = f"{workload}-s{seed}-b{index}-{k:02d}"
        reqs.append(Request(id=rid, cls=cls, command=command, flags=flags, record=rec,
                            expect_exit=expect, source=src))
    return reqs


def write_block(reqs: list, directory: str) -> None:
    """Write each request's divisor record; requests sharing a record share a file."""
    os.makedirs(directory, exist_ok=True)
    written = {}
    for req in reqs:
        key = id(req.record)
        if key not in written:
            path = os.path.join(directory, f"{req.id}.json")
            with open(path, "w") as fh:
                json.dump(req.record, fh)
            written[key] = path
        req.path = written[key]

"""Batch command-line front end.

One process, one command.  Input is a divisor specification file (JSON
record) plus flags; outputs are a results record, tab-separated plot-data
tables, and structured reports, all with floats fixed at 12 significant
digits so identical requests produce byte-identical files.

Exit codes: 0 success, 2 validation error, 3 infeasibility or bigness
required, 4 internal tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import oracle, zariski
from .divisor import (BaseCondition, SampledConvex, ToricArithDivisor, canonical_divisor,
                      concave_transform, divisor_from_record, divisor_record,
                      filtration_summary, mu_R, mu_monotone_continuity_profile,
                      profile_lipschitz, multiplicity_law_suite, vol_hat, vol_hat_base)
from .errors import (ArithvolError, BignessRequiredError, InfeasibleError,
                     InputError, ToleranceError)
from .okounkov import full_series, identity_flag, okounkov_body, semigroup_points

COMMANDS = ("vol", "vol-base", "body", "mu", "mu-profile", "e-range",
            "zariski", "oracle-check", "prop-suite")


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _round_floats(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(_fmt(float(obj)))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(_round_floats(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(path: str, rows, header):
    with open(path, "w") as fh:
        fh.write("# " + "\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(_fmt(v) for v in row) + "\n")


def _parse_mu(text: str) -> BaseCondition:
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"--mu expects kind:index-or-prime:value, got {text!r}")
    kind, idx, value = parts
    kind = {"hyperplane": "hyperplane", "h": "hyperplane",
            "point": "point", "pt": "point",
            "fiber": "fiber", "f": "fiber"}.get(kind)
    if kind is None:
        raise InputError(f"unknown center kind in {text!r}")
    try:
        return BaseCondition(kind=kind, index=int(idx), bound=float(value))
    except ValueError:
        raise InputError(f"--mu expects an integer index and a number, got {text!r}") from None


def _parse_list(text: str, flag: str, convert, sep: str = ",", count=None) -> list:
    """Split a flag value and convert each field; malformed values are input errors."""
    try:
        values = [convert(t) for t in text.split(sep)]
    except ValueError:
        raise InputError(f"{flag}: cannot parse {text!r}") from None
    if count is not None and len(values) != count:
        raise InputError(f"{flag} expects {count} values separated by {sep!r}, got {text!r}")
    return values


def _load_divisor(path: str) -> ToricArithDivisor:
    try:
        with open(path) as fh:
            rec = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read divisor file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"divisor file is not valid JSON: {exc}") from None
    return divisor_from_record(rec)


def _method_tag(dv: ToricArithDivisor) -> str:
    return "grid+quadrature" if isinstance(dv.potential, SampledConvex) else "closed-form+quadrature"


def _transform_table(dv: ToricArithDivisor, grid: int):
    if dv.d != 1:
        return None
    transform = concave_transform(dv)
    verts = dv.body.vertices
    xs = np.linspace(float(verts[:, 0].min()), float(verts[:, 0].max()), grid)
    return list(zip(xs, transform(xs)))


def run(args) -> int:
    if args.grid < 1:
        raise InputError(f"--grid must be at least 1, got {args.grid}")
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    conditions = [_parse_mu(s) for s in args.mu]
    dv = _load_divisor(args.divisor)
    result = {"command": args.command, "seed": args.seed, "grid": args.grid,
              "tol": args.tol, "divisor": divisor_record(dv)}

    if args.command == "vol":
        result["value"] = vol_hat(dv)
        result["method"] = _method_tag(dv)
        table = _transform_table(dv, min(args.grid, 2001))
        if table:
            _write_table(os.path.join(out_dir, "transform.tsv"), table, ("x", "G"))

    elif args.command == "vol-base":
        result["value"] = vol_hat_base(dv, conditions)
        result["method"] = _method_tag(dv)
        result["conditions"] = [[c.kind, c.index, c.bound] for c in conditions]
        table = _transform_table(dv, min(args.grid, 2001))
        if table:
            _write_table(os.path.join(out_dir, "transform.tsv"), table, ("x", "G"))

    elif args.command == "body":
        level = 6 if args.level is None else args.level
        series = full_series(dv.d, level, degree=int(round(dv.coeffs[0])))
        if conditions:
            filtered = []
            for s in series:
                keep = frozenset(
                    m for m in s.support
                    if all(c.kind == "fiber"
                           or oracle._center_mult_of_section(dv, s.level, m, c) >= s.level * c.bound - 1e-9
                           for c in conditions))
                filtered.append(type(s)(level=s.level, support=keep,
                                        divisor_coeffs=s.divisor_coeffs))
            series = filtered
        pts = semigroup_points(series, identity_flag(dv.d))
        body = okounkov_body(pts, level)
        result["method"] = "valuation-hull"
        result["level"] = level
        result["volume"] = body.volume()
        _write_table(os.path.join(out_dir, "body_vertices.tsv"),
                     [tuple(v) for v in body.vertices], tuple(f"x{i+1}" for i in range(dv.d)))

    elif args.command == "mu":
        if not conditions:
            raise InputError("the mu command needs a --mu center")
        center = conditions[0]
        result["value"] = mu_R(dv, center)
        result["method"] = _method_tag(dv)
        result["center"] = [center.kind, center.index]

    elif args.command == "mu-profile":
        if not conditions:
            raise InputError("the mu-profile command needs a --mu center")
        lo, hi = _parse_list(args.twist_range, "--twist-range", float, ":", 2)
        grid = np.linspace(lo, hi, min(args.grid, 501))
        profile = mu_monotone_continuity_profile(dv, grid, conditions[0])
        result["method"] = _method_tag(dv)
        result["lipschitz"] = profile_lipschitz(profile)
        result["monotone"] = all(m1 >= m2 - 1e-12 for (_, m1), (_, m2) in zip(profile, profile[1:]))
        _write_table(os.path.join(out_dir, "mu_profile.tsv"), profile, ("twist", "mu"))

    elif args.command == "e-range":
        level = 10 if args.level is None else args.level
        summary = filtration_summary(dv, level)
        result["method"] = _method_tag(dv)
        result["level"] = level
        result["e_min"] = summary.e_min
        result["e_max"] = summary.e_max
        result["growth_constant"] = summary.growth_constant

    elif args.command == "zariski":
        dec = zariski.greatest_nef_minorant(dv, tol=args.tol)
        verification = zariski.verify_zariski(dv, dec, tol=args.tol)
        mu_checks = zariski.check_multiplicity_identity(dv, dec)
        report = zariski.decomposition_record(dv, dec, verification, mu_checks)
        _write_json(os.path.join(out_dir, "zariski_report.json"), report)
        result["method"] = "golden-section+minorant"
        result["vol_input"] = verification["vol_input"]
        result["vol_positive"] = verification["vol_positive"]
        result["pass"] = report["pass"]
        if not report["pass"]:
            _write_json(os.path.join(out_dir, "results.json"), result)
            raise ToleranceError("decomposition verification failed")

    elif args.command == "oracle-check":
        levels = _parse_list(args.levels, "--levels", int) if args.levels else [50, 100, 200]
        target = vol_hat(dv)
        rows = []
        for n in levels:
            est = oracle.normalized_log_count(dv, n, conditions)
            rows.append((n, est, est - target))
        _write_table(os.path.join(out_dir, "oracle_counts.tsv"), rows,
                     ("n", "normalized_log_count", "gap_vs_vol"))
        result["method"] = "oracle"
        result["value"] = target
        result["final_gap"] = rows[-1][2]

    elif args.command == "prop-suite":
        rng = np.random.default_rng(args.seed)
        reports = []
        failures = 0
        for _ in range(args.trials):
            a = rng.uniform(0.2, 3.0, size=2)
            b = rng.uniform(0.2, 3.0, size=2)
            a[1] = max(a[1], 1.2 - a[0] + 0.1)   # keep both big
            b[1] = max(b[1], 1.2 - b[0] + 0.1)
            d1 = canonical_divisor(a.tolist())
            d2 = canonical_divisor(b.tolist())
            rep = multiplicity_law_suite(d1, d2, [float(rng.uniform(-1, 1))],
                                        float(rng.uniform(0.5, 3.0)),
                                        BaseCondition("hyperplane", 1, 0.0))
            failures += 0 if rep["ok"] else 1
            reports.append(rep)
        _write_json(os.path.join(out_dir, "prop_report.json"),
                    {"trials": args.trials, "failures": failures, "reports": reports})
        result["method"] = "closed-form"
        result["trials"] = args.trials
        result["failures"] = failures
        if failures:
            _write_json(os.path.join(out_dir, "results.json"), result)
            raise ToleranceError(f"{failures} suite trials failed")

    _write_json(os.path.join(out_dir, "results.json"), result)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arithvol",
        description="Arithmetic volumes, concave transforms, multiplicities and "
                    "Zariski decompositions for toric divisors.")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--divisor", required=True, help="path to a divisor record (JSON)")
    parser.add_argument("--mu", action="append", default=[],
                        metavar="kind:index-or-prime:value",
                        help="base condition (repeatable), e.g. hyperplane:1:0.5")
    parser.add_argument("--grid", type=int, default=2001)
    parser.add_argument("--tol", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=".")
    parser.add_argument("--level", type=int, default=None,
                        help="series level for body / e-range")
    parser.add_argument("--twist-range", default="0:1.5",
                        help="lo:hi twist window for mu-profile")
    parser.add_argument("--levels", default=None,
                        help="comma-separated oracle levels for oracle-check")
    parser.add_argument("--trials", type=int, default=100,
                        help="randomized trials for prop-suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return run(args)
    except (InputError,) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (BignessRequiredError, InfeasibleError) as exc:
        print(f"infeasible request: {exc}", file=sys.stderr)
        return 3
    except (ToleranceError,) as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 4
    except ArithvolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Command-line interface: commands, records, exit codes, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from arithvol.cli import main
from arithvol.divisor import divisor_from_record

LOG2 = math.log(2)


@pytest.fixture
def div22(tmp_path):
    path = tmp_path / "d22.json"
    path.write_text(json.dumps({"d": 1, "coeffs": [1.0, 0.0],
                                "potential": {"kind": "canonical", "a": [2.0, 2.0]},
                                "twist": 0.0}))
    return str(path)


@pytest.fixture
def div_qtr2(tmp_path):
    path = tmp_path / "dq.json"
    path.write_text(json.dumps({"d": 1, "coeffs": [1.0, 0.0],
                                "potential": {"kind": "canonical", "a": [0.25, 2.0]},
                                "twist": 0.0}))
    return str(path)


@pytest.fixture
def div_nonbig(tmp_path):
    path = tmp_path / "dn.json"
    path.write_text(json.dumps({"d": 1, "coeffs": [1.0, 0.0],
                                "potential": {"kind": "canonical", "a": [0.25, 0.25]},
                                "twist": 0.0}))
    return str(path)


def read_results(out_dir):
    with open(os.path.join(out_dir, "results.json")) as fh:
        return json.load(fh)


def _read(path, mode="r"):
    with open(path, mode) as fh:
        return fh.read()


class TestCommands:
    def test_vol(self, div22, tmp_path):
        out = str(tmp_path / "out")
        assert main(["--command", "vol", "--divisor", div22, "--out", out]) == 0
        res = read_results(out)
        assert res["value"] == pytest.approx(LOG2 + 0.5, abs=1e-6)
        assert res["method"] == "closed-form+quadrature"
        assert os.path.exists(os.path.join(out, "transform.tsv"))

    def test_vol_base_zero_bounds_match_vol(self, div22, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["--command", "vol", "--divisor", div22, "--out", out1])
        main(["--command", "vol-base", "--divisor", div22,
              "--mu", "hyperplane:1:0", "--mu", "fiber:3:0", "--out", out2])
        assert read_results(out1)["value"] == read_results(out2)["value"]

    def test_vol_base_half(self, div22, tmp_path):
        out = str(tmp_path / "out")
        assert main(["--command", "vol-base", "--divisor", div22,
                     "--mu", "hyperplane:1:0.5", "--out", out]) == 0
        assert read_results(out)["value"] == pytest.approx(0.5 * LOG2 + 0.25, abs=1e-6)

    def test_body(self, div22, tmp_path):
        out = str(tmp_path / "out")
        assert main(["--command", "body", "--divisor", div22, "--level", "4",
                     "--mu", "hyperplane:1:0.5", "--out", out]) == 0
        rows = [line.split("\t") for line in
                _read(os.path.join(out, "body_vertices.tsv")).splitlines()[1:]]
        xs = sorted(float(r[0]) for r in rows)
        assert xs == pytest.approx([0.5, 1.0])

    def test_mu(self, div_qtr2, tmp_path):
        out = str(tmp_path / "out")
        assert main(["--command", "mu", "--divisor", div_qtr2,
                     "--mu", "hyperplane:1:0", "--out", out]) == 0
        assert read_results(out)["value"] == pytest.approx(0.354106, abs=1e-5)

    def test_mu_profile(self, div_qtr2, tmp_path):
        out = str(tmp_path / "out")
        assert main(["--command", "mu-profile", "--divisor", div_qtr2,
                     "--mu", "hyperplane:1:0", "--grid", "21",
                     "--twist-range", "0:1.6", "--out", out]) == 0
        res = read_results(out)
        assert res["monotone"] is True
        lines = _read(os.path.join(out, "mu_profile.tsv")).splitlines()
        assert len(lines) == 22   # header + 21 rows

    def test_e_range(self, div22, tmp_path):
        out = str(tmp_path / "out")
        assert main(["--command", "e-range", "--divisor", div22, "--level", "1",
                     "--out", out]) == 0
        res = read_results(out)
        assert res["e_min"] == pytest.approx(0.5 * LOG2, abs=1e-9)
        assert res["e_max"] == pytest.approx(0.5 * LOG2, abs=1e-9)

    def test_zariski(self, div_qtr2, tmp_path):
        out = str(tmp_path / "out")
        assert main(["--command", "zariski", "--divisor", div_qtr2, "--out", out]) == 0
        with open(os.path.join(out, "zariski_report.json")) as fh:
            report = json.load(fh)
        assert report["pass"] is True
        assert abs(report["vol_positive"] - report["vol_input"]) <= 1e-3
        assert report["nef_certificate"]["sampled_necessary"] is True
        back = report["positive"]
        assert back["e1"] == pytest.approx(-0.354106, abs=1e-4)

    def test_oracle_check(self, div22, tmp_path):
        out = str(tmp_path / "out")
        assert main(["--command", "oracle-check", "--divisor", div22,
                     "--levels", "50,100", "--out", out]) == 0
        res = read_results(out)
        assert abs(res["final_gap"]) < 0.1

    def test_prop_suite(self, div22, tmp_path):
        out = str(tmp_path / "out")
        assert main(["--command", "prop-suite", "--divisor", div22,
                     "--trials", "5", "--seed", "7", "--out", out]) == 0
        with open(os.path.join(out, "prop_report.json")) as fh:
            rep = json.load(fh)
        assert rep["failures"] == 0
        assert len(rep["reports"]) == 5


class TestExitCodes:
    def test_validation_error_bad_command(self, div22):
        assert main(["--command", "bogus", "--divisor", div22]) == 2

    def test_validation_error_bad_record(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"d\": 1}")
        assert main(["--command", "vol", "--divisor", str(path)]) == 2

    def test_validation_error_bad_mu(self, div22, tmp_path):
        assert main(["--command", "vol-base", "--divisor", div22,
                     "--mu", "nope", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("mu", ["h:x:0", "h:1:abc"])
    def test_validation_error_bad_mu_numbers(self, div22, tmp_path, mu, capsys):
        assert main(["--command", "vol-base", "--divisor", div22,
                     "--mu", mu, "--out", str(tmp_path)]) == 2
        assert "validation error" in capsys.readouterr().err

    def test_validation_error_bad_levels(self, div22, tmp_path, capsys):
        assert main(["--command", "oracle-check", "--divisor", div22,
                     "--levels", "a,b", "--out", str(tmp_path)]) == 2
        assert "--levels" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["0:1:2", "0", "x:1"])
    def test_validation_error_bad_twist_range(self, div_qtr2, tmp_path, window, capsys):
        assert main(["--command", "mu-profile", "--divisor", div_qtr2,
                     "--mu", "hyperplane:1:0", "--twist-range", window,
                     "--out", str(tmp_path)]) == 2
        assert "--twist-range" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--command", "vol", "--grid", "-1"],
        ["--command", "mu-profile", "--mu", "hyperplane:1:0", "--grid", "-1"],
        ["--command", "vol", "--grid", "0"],
    ])
    def test_validation_error_bad_grid(self, div_qtr2, tmp_path, flags, capsys):
        assert main(flags + ["--divisor", div_qtr2, "--out", str(tmp_path)]) == 2
        assert "--grid" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["body", "e-range"])
    def test_validation_error_level_zero(self, div22, tmp_path, command, capsys):
        assert main(["--command", command, "--divisor", div22, "--level", "0",
                     "--out", str(tmp_path)]) == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("record", [
        {"d": 1, "coeffs": [1.0, 0.0], "twist": 0.0,
         "potential": {"kind": "sampled", "s_min": -1.0, "s_max": 1.0, "values": [1, "x", 3]}},
        {"d": 1, "coeffs": [1.0, 0.0], "twist": 0.0,
         "potential": {"kind": "sampled", "s_max": 1.0, "values": [1.0, 0.5, 1.0]}},
        {"d": 1, "coeffs": [1.0, 0.0], "twist": "abc",
         "potential": {"kind": "canonical", "a": [2.0, 2.0]}},
        {"d": 1, "coeffs": [1.0, 0.0], "twist": 0.0, "potential": {"kind": "canonical"}},
    ], ids=["sampled-value", "no-s_min", "twist", "no-a"])
    def test_validation_error_bad_record_fields(self, tmp_path, record, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        assert main(["--command", "vol", "--divisor", str(path), "--out", str(tmp_path)]) == 2
        assert "malformed divisor record" in capsys.readouterr().err

    @pytest.mark.parametrize("record", [
        {"d": 1, "coeffs": [1.0, 0.0], "twist": math.inf,
         "potential": {"kind": "canonical", "a": [2.0, 2.0]}},
        {"d": 1, "coeffs": [1.0, 0.0], "twist": math.nan,
         "potential": {"kind": "canonical", "a": [2.0, 2.0]}},
        {"d": 1, "coeffs": [1.0, 0.0], "twist": 0.0,
         "potential": {"kind": "sampled", "s_min": -1.0, "s_max": 1.0,
                       "values": [1.0, 0.5, math.inf]}},
    ], ids=["inf-twist", "nan-twist", "inf-sampled-value"])
    @pytest.mark.parametrize("command", [["vol"], ["mu", "--mu", "hyperplane:1:0"]])
    def test_validation_error_non_finite(self, tmp_path, record, command, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))          # writes Infinity / NaN literals
        out = tmp_path / "out"
        assert main(["--command", *command, "--divisor", str(path), "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / "results.json").exists()

    @pytest.mark.parametrize("command", [["e-range", "--level", "5"], ["vol"]])
    def test_validation_error_dimension_zero(self, tmp_path, command, capsys):
        # e-range raised an IndexError (exit 1) and vol returned 0.0 (exit 0)
        path = tmp_path / "d0.json"
        path.write_text(json.dumps({"d": 0, "coeffs": [1.0], "twist": 0.0,
                                    "potential": {"kind": "canonical", "a": [2.0]}}))
        out = tmp_path / "out"
        assert main(["--command", *command, "--divisor", str(path), "--out", str(out)]) == 2
        assert "relative dimension" in capsys.readouterr().err
        assert not (out / "results.json").exists()

    def test_validation_error_two_node_sampled_grid(self, tmp_path, capsys):
        # a 2x2 grid has no second difference to check convexity by; it ran
        # with exit 0, vol 39.9998510791 and an IntegrationWarning
        path = tmp_path / "grid2.json"
        path.write_text(json.dumps({"d": 2, "coeffs": [1.0, 0.0, 0.0], "twist": 0.0,
                                    "potential": {"kind": "sampled", "s_min": -40.0,
                                                  "s_max": 40.0,
                                                  "values": [[80.0, 40.0], [40.0, 80.0]]}}))
        out = tmp_path / "out"
        assert main(["--command", "vol", "--divisor", str(path), "--out", str(out)]) == 2
        assert "3 nodes" in capsys.readouterr().err
        assert not (out / "results.json").exists()

    def test_bigness_exit(self, div_nonbig, tmp_path):
        assert main(["--command", "mu", "--divisor", div_nonbig,
                     "--mu", "hyperplane:1:0", "--out", str(tmp_path)]) == 3
        assert main(["--command", "zariski", "--divisor", div_nonbig,
                     "--out", str(tmp_path)]) == 3

    def test_module_entry_point(self, div22, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "arithvol",
                               "--command", "vol", "--divisor", div22,
                               "--out", str(tmp_path / "o")],
                              capture_output=True, text=True)
        assert proc.returncode == 0


class TestDeterminismAndRoundTrip:
    def test_byte_identical_results(self, div_qtr2, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = str(tmp_path / name)
            assert main(["--command", "zariski", "--divisor", div_qtr2,
                         "--seed", "11", "--out", out]) == 0
            outs.append(out)
        for fname in ("results.json", "zariski_report.json"):
            b1 = _read(os.path.join(outs[0], fname), "rb")
            b2 = _read(os.path.join(outs[1], fname), "rb")
            assert b1 == b2

    def test_prop_suite_deterministic(self, div22, tmp_path):
        blobs = []
        for name in ("p1", "p2"):
            out = str(tmp_path / name)
            assert main(["--command", "prop-suite", "--divisor", div22,
                         "--trials", "4", "--seed", "3", "--out", out]) == 0
            blobs.append(_read(os.path.join(out, "prop_report.json"), "rb"))
        assert blobs[0] == blobs[1]

    def test_divisor_record_reparses_equal(self, div22, tmp_path):
        out = str(tmp_path / "out")
        main(["--command", "vol", "--divisor", div22, "--out", out])
        echoed = read_results(out)["divisor"]
        with open(div22) as fh:
            original = json.load(fh)
        dv1 = divisor_from_record(echoed)
        dv2 = divisor_from_record(original)
        assert dv1 == dv2


# ---------------------------------------------------------------------------
# pinned outputs: numbers at the CLI's 12 significant digits, files by hash
#
# Refactors must leave CLI outputs byte-identical; a change that moves any of
# these values changes what users get and must update them on purpose.
# ---------------------------------------------------------------------------

def _canonical_record(a, twist=0.0):
    return {"d": len(a) - 1, "coeffs": [1.0] + [0.0] * (len(a) - 1),
            "potential": {"kind": "canonical", "a": list(a)}, "twist": twist}


def _sampled_record(a, n=1001, s_range=40.0):
    """Grid sample of ``log(a_0 + sum a_i e^{s_i})`` (``n`` or ``n x n`` points), numpy alone."""
    d = len(a) - 1
    grids = np.meshgrid(*[np.linspace(-s_range, s_range, n)] * d, indexing="ij")
    values = np.full(grids[0].shape, math.log(a[0]))
    for ai, g in zip(a[1:], grids):
        values = np.logaddexp(values, math.log(ai) + g)
    return {"d": d, "coeffs": [1.0] + [0.0] * d,
            "potential": {"kind": "sampled", "s_min": -s_range, "s_max": s_range,
                          "values": values.tolist()},
            "twist": 0.0}


_SUM_RECORD = {"d": 1, "coeffs": [2.0, 0.0],
               "potential": {"kind": "sum", "parts": [
                   {"kind": "canonical", "a": [0.25, 2.0]},
                   {"kind": "canonical", "a": [2.0, 0.25]}]},
               "twist": 0.0}

PINNED_REQUESTS = {
    "canonical_d1_vol": (_canonical_record([0.25, 2.0]), ["--command", "vol"]),
    "canonical_d2_vol": (_canonical_record([0.5, 1.0, 1.5]), ["--command", "vol"]),
    "sum_vol": (_SUM_RECORD, ["--command", "vol", "--grid", "11"]),
    "sampled_vol": (_sampled_record([0.25, 2.0]), ["--command", "vol"]),
    "sampled_mu": (_sampled_record([0.25, 2.0]),
                   ["--command", "mu", "--mu", "hyperplane:1:0"]),
    "sampled_e_range": (_sampled_record([0.25, 2.0]),
                        ["--command", "e-range", "--level", "20"]),
    "zariski": (_canonical_record([0.25, 2.0]), ["--command", "zariski"]),
    "sampled_d2_vol": (_sampled_record([0.5, 1.0, 1.5], n=65, s_range=10.0),
                       ["--command", "vol"]),
    "sampled_d2_mu": (_sampled_record([0.25, 2.0, 0.25], n=65, s_range=10.0),
                      ["--command", "mu", "--mu", "hyperplane:1:0"]),
    "canonical_d2_vol_base": (_canonical_record([0.5, 1.0, 1.5]),
                              ["--command", "vol-base", "--mu", "hyperplane:1:0.1",
                               "--mu", "fiber:2:0.05"]),
    "canonical_d1_vol_base_fiber": (_canonical_record([0.25, 2.0]),
                                    ["--command", "vol-base", "--mu", "fiber:3:0.1"]),
    "sum_vol_base": (_SUM_RECORD, ["--command", "vol-base", "--grid", "11",
                                   "--mu", "hyperplane:1:0.2", "--mu", "fiber:3:0.05"]),
    "canonical_d1_mu_profile": (_canonical_record([0.25, 2.0]),
                                ["--command", "mu-profile", "--mu", "hyperplane:1:0",
                                 "--grid", "21", "--twist-range", "0:1.6"]),
}

_INPUT_KEYS = ("command", "divisor", "seed", "grid", "tol")


def pinned_outputs(name, tmp_path):
    """Run one pinned request; results.json fields as 12-digit strings, files by SHA-256."""
    record, flags = PINNED_REQUESTS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(record))
    out = tmp_path / name
    assert main(flags + ["--divisor", str(path), "--out", str(out)]) == 0
    fields = {k: (f"{v:.12g}" if isinstance(v, float) else v)
              for k, v in read_results(str(out)).items() if k not in _INPUT_KEYS}
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
               for f in ("transform.tsv", "zariski_report.json", "mu_profile.tsv")
               if (out / f).exists()}
    return fields, digests


PINNED = {
    "canonical_d1_vol": (
        {"method": "closed-form+quadrature", "value": "0.362987574374"},
        {"transform.tsv": "538ff25520c7962c9d44fe1bd55e2ed1041c30371cb88ffa27805669ace8ad60"}),
    "canonical_d2_vol": (
        {"method": "closed-form+quadrature", "value": "1.11456440977"}, {}),
    "sum_vol": (
        {"method": "closed-form+quadrature", "value": "1.84517097926"},
        {"transform.tsv": "9dbcee3ea6288bf3eb1bb23f0dee3d5600178d233683fc34633ffe555b4b419c"}),
    "sampled_vol": (
        {"method": "grid+quadrature", "value": "0.362987342567"},
        {"transform.tsv": "10a9486947ad32ceee73399b77465e107f83d46b036713df91790341dfb841cc"}),
    "sampled_mu": (
        {"method": "grid+quadrature", "value": "0.354105625487", "center": ["hyperplane", 1]},
        {}),
    "sampled_e_range": (
        {"method": "grid+quadrature", "level": 20, "e_min": "-13.8629436112",
         "e_max": "8.10283705223", "growth_constant": "1.4054650138"},
        {}),
    "zariski": (
        {"method": "golden-section+minorant", "pass": True,
         "vol_input": "0.362987574374", "vol_positive": "0.362995391962"},
        {"zariski_report.json": "2fda3f5980dff3d74f45697f22e2a014092eab3aed47158c8d7d4b70ec5f8892"}),
    "sampled_d2_vol": (
        {"method": "grid+quadrature", "value": "1.11445932991"}, {}),
    "sampled_d2_mu": (
        {"method": "grid+quadrature", "value": "0.171875", "center": ["hyperplane", 1]}, {}),
    "canonical_d2_vol_base": (
        {"method": "closed-form+quadrature", "value": "0.874310741792",
         "conditions": [["hyperplane", 1, 0.1], ["fiber", 2, 0.05]]}, {}),
    "canonical_d1_vol_base_fiber": (
        {"method": "closed-form+quadrature", "value": "0.230511717331",
         "conditions": [["fiber", 3, 0.1]]},
        {"transform.tsv": "538ff25520c7962c9d44fe1bd55e2ed1041c30371cb88ffa27805669ace8ad60"}),
    "sum_vol_base": (
        {"method": "closed-form+quadrature", "value": "1.65711123768",
         "conditions": [["hyperplane", 1, 0.2], ["fiber", 3, 0.05]]},
        {"transform.tsv": "9dbcee3ea6288bf3eb1bb23f0dee3d5600178d233683fc34633ffe555b4b419c"}),
    "canonical_d1_mu_profile": (
        {"method": "closed-form+quadrature", "lipschitz": "0.364293729537", "monotone": True},
        {"mu_profile.tsv": "77f849b944c58b8b4aca8309732fe6d6284a63fd99bd2bba47b8a0143ba0dea0"}),
}


@pytest.mark.parametrize("name", sorted(PINNED_REQUESTS))
def test_pinned_outputs(name, tmp_path):
    assert pinned_outputs(name, tmp_path) == PINNED[name]

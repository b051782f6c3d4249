"""The JSON writer: the bytes of the old ``json.dumps`` expression, written faster."""

import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from arithvol import cli
from arithvol.errors import ToleranceError


def _round_floats(obj):
    """The writer's former rounding pass, kept as the reference."""
    if isinstance(obj, float):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def reference_bytes(payload) -> bytes:
    text = json.dumps(_round_floats(payload), sort_keys=True, indent=2, allow_nan=False)
    return (text + "\n").encode()


finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),           # 5e-324 .. 1.8e308, -0.0
    st.floats(1e12, 1e16), st.floats(-1e16, -1e12),              # repr writes these fixed
    st.floats(-1e-315, 1e-315),                                   # subnormal: repr is shorter
    st.integers(-2 ** 60, 2 ** 60).map(float),                    # integral: repr adds ".0"
    st.sampled_from([0.0, -0.0, 5e-324, 1e-5, 1e12, 1e15, 9.999999999995e15, 1e16,
                     123456789012.0, 1.7976931348623157e308]))
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), finite, st.text(),
    finite.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_))
float_lists = st.lists(finite, max_size=12)      # the one-format-call path
payloads = st.recursive(
    scalars | float_lists,
    lambda kids: st.lists(kids, max_size=5) | st.lists(kids, max_size=5).map(tuple)
    | st.dictionaries(st.text(), kids, max_size=5),
    max_leaves=40)

non_finite = st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan),
                              np.float32(math.inf)])


@st.composite
def poisoned(draw):
    """A payload holding one NaN or infinity at some depth."""
    bad = draw(non_finite)
    if draw(st.booleans()):                          # inside a list of plain floats
        values = draw(float_lists)
        values.insert(draw(st.integers(0, len(values))), float(bad))
        bad = values
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            siblings = draw(st.lists(payloads, max_size=3))
            siblings.insert(draw(st.integers(0, len(siblings))), bad)
            bad = siblings if draw(st.booleans()) else tuple(siblings)
        else:
            bad = {**draw(st.dictionaries(st.text(), payloads, max_size=3)), draw(st.text()): bad}
    return bad


@settings(max_examples=300, deadline=None)
@given(payloads)
@example([2.0, -0.0, 0.5])                      # integral tokens: repr adds ".0"
@example([1.5e12, 1e15, 0.5])                   # e+12..e+15: repr writes them fixed
@example([5e-324, 2.5e-310, 0.5])               # subnormals: %.12g has more digits than repr
def test_writer_bytes_equal_reference(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        cli._write_json(path, {"value": payload})
        with open(path, "rb") as fh:
            assert fh.read() == reference_bytes({"value": payload})


@settings(max_examples=60, deadline=None)
@given(poisoned())
def test_non_finite_at_any_depth_is_a_tolerance_failure(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        try:
            cli._write_json(path, {"value": payload})
        except ToleranceError:
            pass
        else:
            raise AssertionError("a non-finite number was written")
        assert not os.path.exists(path)


@settings(max_examples=15, deadline=None)
@given(poisoned())
def test_non_finite_value_through_main(payload):
    with tempfile.TemporaryDirectory() as tmp:
        record = os.path.join(tmp, "d.json")
        with open(record, "w") as fh:
            json.dump({"d": 1, "coeffs": [1.0, 0.0], "twist": 0.0,
                       "potential": {"kind": "canonical", "a": [2.0, 2.0]}}, fh)
        out = os.path.join(tmp, "out")
        with mock.patch.object(cli, "vol_hat", lambda dv: payload):
            assert cli.main(["--command", "vol", "--divisor", record, "--grid", "3",
                             "--out", out]) == 4
        assert not os.path.exists(os.path.join(out, "results.json"))


def test_table_rows_match_per_value_format():
    rows = [(1, 2.0, -0.0), (np.float64(1e16), np.float32(0.1), 123456789012.5),
            (np.int64(7), 5e-324, 1.7976931348623157e308)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.tsv")
        cli._write_table(path, rows, ("a", "b", "c"))
        with open(path) as fh:
            text = fh.read()
    expected = "# a\tb\tc\n" + "".join(
        "\t".join(f"{float(v):.12g}" for v in row) + "\n" for row in rows)
    assert text == expected

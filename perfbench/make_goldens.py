"""Regenerate goldens.json: the oracle_levels counts of this checkout.

    python3 perfbench/make_goldens.py

Run it only at a commit whose oracle counts are trusted; the benchmark
compares every later ``oracle-check`` output with these strings byte for
byte.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from arithvol import cli  # noqa: E402

import workloads  # noqa: E402


def main():
    goldens = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, rec in workloads.ORACLE_DIVISORS.items():
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(rec, fh)
            levels = ",".join(str(n) for n in workloads.ORACLE_LADDERS[name])
            out = os.path.join(tmp, name)
            code = cli.main(["--command", "oracle-check", "--divisor", path,
                             "--levels", levels, "--out", out])
            if code != 0:
                raise SystemExit(f"oracle-check on {name} exited with {code}")
            with open(os.path.join(out, "oracle_counts.tsv")) as fh:
                rows = [line.split("\t") for line in fh if not line.startswith("#")]
            goldens[name] = {n: count for n, count, _ in rows}
    with open(os.path.join(HERE, "goldens.json"), "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

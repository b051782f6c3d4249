"""Output-identity gate: byte-identical CLI outputs on the benchmark's own requests.

    python3 tools/identity.py --record     # write tools/identity.json
    python3 tools/identity.py --check      # compare against it; exit 1 on any change

The requests are blocks 0-1 of seeds 1 and 2 of every benchmark workload,
built with ``perfbench/workloads.py`` (1,004 requests).  Each one runs
in process through ``arithvol.cli.main`` from this checkout's ``src/``, with
one BLAS thread, as the benchmark runs it.  The manifest maps each request
id to its class, its exit code and the SHA-256 of every output file.

Performance and design changes must pass ``--check`` unchanged.  A change
that moves output digits on purpose re-records the manifest, and the diff
of ``tools/identity.json`` is the list of requests it changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time
import warnings

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from arithvol import cli  # noqa: E402

MANIFEST = os.path.join(HERE, "identity.json")
SEEDS = (1, 2)
BLOCKS = (0, 1)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run_request(req, out: str) -> dict:
    with contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = cli.main(req.argv(out))
        except Exception as exc:  # a traceback is an outcome too
            code = f"uncaught {type(exc).__name__}"
    files = {}
    if os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            files[name] = _digest(os.path.join(out, name))
    return {"class": req.cls, "code": code, "files": files}


def collect() -> dict:
    """Run every request and return the manifest, keyed by request id."""
    manifest = {}
    with tempfile.TemporaryDirectory(prefix="arithvol-identity-") as work:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                for index in BLOCKS:
                    reqs = workloads.block(workload, seed, index)
                    workloads.write_block(reqs, os.path.join(work, "in", f"{workload}-{seed}"))
                    for req in reqs:
                        manifest[req.id] = _run_request(req, os.path.join(work, "out", req.id))
    return manifest


def compare(expected: dict, actual: dict) -> list:
    """Lines naming each request whose exit code or output files differ."""
    lines = []
    for rid in sorted(set(expected) | set(actual)):
        old, new = expected.get(rid), actual.get(rid)
        if old is None or new is None:
            cls = (old or new)["class"]
            lines.append(f"{rid} [{cls}]: {'missing' if new is None else 'new'} request")
            continue
        what = []
        if old["code"] != new["code"]:
            what.append(f"exit {old['code']} -> {new['code']}")
        for name in sorted(set(old["files"]) | set(new["files"])):
            if old["files"].get(name) != new["files"].get(name):
                what.append(f"{name} {'missing' if name not in new['files'] else 'changed'}")
        if what:
            lines.append(f"{rid} [{new['class']}]: " + ", ".join(what))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true", help="rewrite the manifest")
    mode.add_argument("--check", action="store_true", help="compare against the manifest")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    actual = collect()
    n_files = sum(len(v["files"]) for v in actual.values())
    summary = f"{len(actual)} requests, {n_files} files, {time.perf_counter() - start:.1f} s"
    if args.record:
        with open(MANIFEST, "w") as fh:
            json.dump(actual, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {summary} to {os.path.relpath(MANIFEST, ROOT)}")
        return 0
    with open(MANIFEST) as fh:
        expected = json.load(fh)
    changed = compare(expected, actual)
    for line in changed:
        print(line)
    print(f"{len(changed)} changed of {len(expected)} recorded requests ({summary})")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())

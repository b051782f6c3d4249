"""Benchmark runner: seeded CLI requests against the arithvol library.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 24 --trace 0

Load model: a closed loop with one client.  Each request is one in-process
``arithvol.cli.main(argv)`` call, and the next one is sent when it returns,
as in batch CLI use.  One process, no extra threads, one BLAS thread.

Set-up (``setup_s``) is the time to import arithvol with numpy and scipy
and to write the first blocks' divisor files.  It is measured in this
process and in two fresh child processes doing the same set-up, and the
median is reported.

``--trace 0`` runs whole blocks of requests (see ``workloads``) until the
next block would end after ``--seconds``, at least ``MIN_BLOCKS`` of them,
checks every output outside the timed region and prints the end-to-end
metrics.  ``--trace 1`` runs the first ``MIN_BLOCKS`` blocks with the span
recorder installed, then the same blocks again without it, and prints the
per-layer metrics and the tracing overhead; its counts repeat exactly for
a seed, whatever ``--seconds`` says.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

# one process, no extra threads: set before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, "_run")
SETUP_PROBES = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time the set-up and print it (used by the runner itself)")
    return p.parse_args(argv)


def _import_cli():
    """Import arithvol from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "arithvol", "__init__.py")):
        raise SystemExit(f"perfbench: no arithvol sources under {SRC}")
    sys.path.insert(0, SRC)
    import scipy  # noqa: F401
    import arithvol
    import arithvol.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(arithvol.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported arithvol from {arithvol.__file__}, not {SRC}")
    return arithvol.cli


class Run:
    """One benchmark process: its blocks, results and work directory."""

    def __init__(self, cli, workload, seed):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(RUN_DIR, f"{workload}-s{seed}-p{os.getpid()}")
        self.blocks = []
        with open(os.path.join(HERE, "goldens.json")) as fh:
            self.goldens = json.load(fh)

    def block(self, index):
        while len(self.blocks) <= index:
            reqs = workloads.block(self.workload, self.seed, len(self.blocks))
            workloads.write_block(reqs, os.path.join(self.work, "in"))
            self.blocks.append(reqs)
        return self.blocks[index]

    def execute(self, index, tracer=None):
        """Send one block's requests in order, then check their outputs.

        Returns (wall seconds, rows).  The tracer, if any, is installed for
        the requests only, not for the checks.
        """
        rows = []
        reqs = self.block(index)
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        for req in reqs:
            out = os.path.join(self.work, "out", req.id)
            argv = req.argv(out)
            if tracer is not None:
                tracer.request = req.id
            with contextlib.redirect_stderr(io.StringIO()), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except Exception as exc:  # a traceback is a failed request
                    code = f"uncaught {type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
            rows.append({"req": req, "code": code, "latency_s": t1 - t0, "out": out,
                         "integration_warnings": sum(
                             w.category.__name__ == "IntegrationWarning" for w in caught)})
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.remove()
        for row in rows:
            row["outcome"] = checks.check(row["req"], row["code"], row["out"], self.goldens)
        shutil.rmtree(os.path.join(self.work, "out"), ignore_errors=True)
        return wall, rows

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def _setup_samples(args, own):
    samples = [own]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _summary(rows):
    """Failed rows, rows with known misses only, and every checked value's digits."""
    failed, known = [], []
    digits = []
    for row in rows:
        oc = row["outcome"]
        digits.extend(oc.digits)
        if oc.problems or (oc.misses and not checks.known_miss(row["req"].cls)):
            failed.append(row)
        elif oc.misses:
            known.append(row)
    return failed, known, digits


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _measure(run, args, tracer):
    """Send blocks; returns the traced and the untraced (wall, rows) pairs."""
    if tracer is not None:
        # the traced pass goes first, so its counts see the requests cold;
        # the untraced pass repeats the same requests for the overhead
        traced = [run.execute(i, tracer) for i in range(workloads.MIN_BLOCKS)]
        timed = [run.execute(i) for i in range(workloads.MIN_BLOCKS)]
        return traced, timed
    timed = []
    while True:
        timed.append(run.execute(len(timed)))
        spent = sum(w for w, _ in timed)
        if len(timed) >= workloads.MIN_BLOCKS and spent * (1 + 1 / len(timed)) > args.seconds:
            return [], timed


def _rate(passes):
    return sum(len(rows) for _, rows in passes) / sum(w for w, _ in passes)


def _end_to_end(setup, timed, digits):
    """End-to-end metrics as {name: (value, unit, note)}."""
    rows = [r for _, rs in timed for r in rs]
    wall = sum(w for w, _ in timed)
    lat_ms = sorted(1000.0 * r["latency_s"] for r in rows)
    n = f"n={len(rows)}"
    return {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} set-ups: "
                    + ", ".join(f"{s:.3f}" for s in setup)),
        "requests_per_s": (len(rows) / wall, "1/s", f"{len(rows)} requests in {wall:.3f} s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms", n),
        "latency_p90_ms": (_quantile(lat_ms, 90), "ms", n),
        "accuracy_digits": (min(digits, default=0.0), "digits",
                            f"min over {len(digits)} checked values"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "this process"),
    }


def _per_layer(tracer, traced, timed):
    """Per-layer metrics as {name: (value, unit)}, tracing overhead included."""
    tracer.counts["convexcore.integration_warnings"] = sum(
        r["integration_warnings"] for _, rows in traced for r in rows)
    metrics = tracer.metrics()
    traced_rps, rps = _rate(traced), _rate(timed)
    metrics["trace.requests_per_s"] = (traced_rps, "1/s")
    metrics["trace.overhead_requests_per_s"] = (rps - traced_rps, "1/s")
    print(f"  tracing overhead: {rps:.4f} req/s untraced - {traced_rps:.4f} req/s "
          f"traced = {rps - traced_rps:.4f} req/s")
    return metrics


def main(argv):
    args = _parse(argv)
    run = Run(_import_cli(), args.workload, args.seed)
    try:
        for index in range(workloads.MIN_BLOCKS):
            run.block(index)
        own_setup = time.perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setup = _setup_samples(args, own_setup)
        tracer = Tracer() if args.trace else None
        traced, timed = _measure(run, args, tracer)
        all_rows = [r for _, rows in traced + timed for r in rows]
        failed, known, digits = _summary(all_rows)
        e2e = _end_to_end(setup, timed, digits)

        print(f"workload {args.workload}  seed {args.seed}  blocks {len(timed)}  "
              f"threads " + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
        for name, (value, unit, note) in e2e.items():
            print(f"  {name:<16} {value:14.6f} {unit:<7} ({note})")
        print(f"  {'failed_frac':<16} {(len(failed) + len(known)) / len(all_rows):14.6f} "
              f"{'fraction':<7} ({len(failed)} failed + {len(known)} known misses "
              f"of {len(all_rows)} requests)")
        for row in known:
            print(f"  known miss {row['req'].id} [{row['req'].cls}]: "
                  f"{checks.known_miss(row['req'].cls)}; {row['outcome'].misses[0]}")
        for row in failed:
            print(f"  FAILED {row['req'].id} [{row['req'].cls}]: "
                  + "; ".join(row["outcome"].problems + row["outcome"].misses))

        if tracer is None:
            metrics = {k: (v, u) for k, (v, u, _) in e2e.items()}
        else:
            metrics = _per_layer(tracer, traced, timed)
            for name, (value, unit) in metrics.items():
                print(f"  {name:<52} {value:>16.6f} {unit}")
            path = os.path.join(RUN_DIR, f"trace-{args.workload}-s{args.seed}.json")
            tracer.write(path)
            print(f"  spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        with open(os.path.join(RUN_DIR, f"requests-{args.workload}-s{args.seed}"
                               f"-t{args.trace}.json"), "w") as fh:
            json.dump([{"id": r["req"].id, "class": r["req"].cls, "code": r["code"],
                        "latency_ms": 1000.0 * r["latency_s"]} for r in all_rows], fh, indent=0)
        print(json.dumps({"correct": not failed, "attempted": len(all_rows),
                          "failed": len(failed),
                          "metrics": {k: {"value": v, "unit": u}
                                      for k, (v, u) in metrics.items()}}))
        return 0
    finally:
        run.cleanup()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition so that every repetition
pays the same first-call costs (imports, trace and schedule caches, compiled
plans, the auditor's lazy set-up).  It prints one JSON object: set-up time,
the two pass times, peak RSS, CPU time, output digests, check errors and,
for a traced repetition, the per-layer metrics.

    python3 perfbench/rep.py --workload protocol --seed 0 --t0 "$(date +%s.%N)"
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def blas_info() -> dict:
    """BLAS vendor/version from numpy's build config and its live threads."""
    import ctypes
    import glob

    import numpy

    info: dict = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = int(getter())
                return info
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="epoch time at which the parent started us")
    parser.add_argument("--scratch", default=None,
                        help="directory for the repetition's temporary files")
    parser.add_argument("--mode", choices=["untraced", "traced"],
                        default="untraced")
    parser.add_argument("--inject", default=None,
                        help="KIND:SECONDS delay added to every call of a layer")
    parser.add_argument("--spans", default=None,
                        help="write the traced repetition's spans here")
    args = parser.parse_args()

    import numpy

    from repro.core import telemetry

    import layers
    import tracer as tracing
    from workloads import WORKLOADS, apply_engine

    engine = apply_engine()
    base = args.scratch or os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    # A new empty directory per repetition: every cold pass starts from an
    # empty result store.
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    workload = WORKLOADS[args.workload](args.seed, scratch)
    traced = args.mode == "traced"
    inject = {}
    if args.inject:
        kind, _, seconds = args.inject.rpartition(":")
        inject[kind] = float(seconds)
    sink = telemetry.enable() if traced else None

    out: dict = {}
    try:
        workload.setup()
        tracer = None
        if traced or inject:
            tracer = tracing.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}",
                                    inject=inject, record=traced).install()
        out["setup_s"] = time.time() - args.t0

        def timed(name):
            root = tracer.root(name) if tracer else contextlib.nullcontext()
            cpu0 = time.process_time()
            start = time.perf_counter()
            with root:
                outcome = getattr(workload, name)()
            out[f"{name}_s"] = time.perf_counter() - start
            out[f"{name}_cpu_s"] = time.process_time() - cpu0
            return outcome

        cold = timed("cold")
        warm = timed("warm")
        out["errors"] = workload.check(cold, warm)
        out["digest"] = workload.digest(cold)
        counts = [workload.counts(outcome) for outcome in (cold, warm)]
        out["attempted"] = sum(a for a, _ in counts)
        out["failed"] = sum(f for _, f in counts)
        if traced:
            out["layers"] = layers.layer_metrics(tracer, sink.events, workload)
            out["missing_targets"] = tracer.missing
            if args.spans:
                tracer.write(args.spans)
    finally:
        workload.close()
        telemetry.disable()
        shutil.rmtree(scratch, ignore_errors=True)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    out["children_cpu_s"] = children.ru_utime + children.ru_stime
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["host"] = {"engine": engine, "blas": blas_info(),
                   "numpy": numpy.__version__,
                   "python": sys.version.split()[0]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

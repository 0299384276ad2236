"""The repository benchmark: repeated, fresh-process runs of one workload.

    python3 perfbench/run.py --workload protocol --seed 0 --seconds 20 --trace 0

Each repetition runs in a new process (``rep.py``) with BLAS and OpenMP
pinned to one thread.  Repetitions start until ``--seconds`` have passed
(at least three untraced ones, or one untraced and one traced with
``--trace 1``).  With ``--trace 0`` the end-to-end metrics are the medians
of the untraced repetitions; with ``--trace 1`` traced and untraced
repetitions alternate, the per-layer metrics are the medians of the traced
ones and ``trace.overhead_frac`` compares the two kinds.  Metric names and
units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of the
run (every repetition and the host block) is written under
``.perfbench/runs/``.  The exit code is 0 when every check passed, 1 when a
check failed and 2 when the benchmark could not run, including a traced run
in which a wrapped call site no longer exists.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Every child must finish within this many seconds of the run's start.
DEADLINE_S = 165.0
#: Threads pinned for every process the benchmark starts (inherited by the
#: remote workers), set before numpy is imported anywhere.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def spawn(workload: str, seed: int, mode: str, workdir: Path, index: int,
          deadline: float) -> dict:
    """Run one repetition in a fresh process group and parse its JSON."""
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode, "--scratch", str(workdir)]
    if mode == "traced":
        command += ["--spans", str(workdir / f"spans-rep{index}.json")]
    env = dict(os.environ, **PINNED)
    command += ["--t0", repr(time.time())]
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} repetition {index} ran past the "
                             f"{DEADLINE_S:.0f} s deadline") from None
    finally:
        # Reap the whole group: remote workers must not outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} repetition {index} exited with "
                             f"code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{workload} repetition {index} printed nothing")
    rep = json.loads(lines[-1])
    rep["mode"] = mode
    return rep


def run_reps(args, workdir: Path) -> List[dict]:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps: List[dict] = []
    while True:
        modes = [rep["mode"] for rep in reps]
        enough = (("traced" in modes and "untraced" in modes) if args.trace
                  else len(reps) >= 3)
        if enough:
            per_rep = statistics.median(rep["wall_s"] for rep in reps)
            if time.monotonic() - start + per_rep > args.seconds:
                break
        mode = "traced" if args.trace and len(reps) % 2 == 1 else "untraced"
        began = time.monotonic()
        rep = spawn(args.workload, args.seed, mode, workdir, len(reps),
                    deadline)
        rep["wall_s"] = time.monotonic() - began
        reps.append(rep)
        print(f"  rep {len(reps) - 1} ({mode}): setup {rep['setup_s']:.3f} s, "
              f"cold {rep['cold_s']:.3f} s, warm {rep['warm_s']:.3f} s, "
              f"rss {rep['peak_rss_mb']:.1f} MB", flush=True)
    return reps


def check(args, reps: List[dict]) -> List[str]:
    errors = [error for rep in reps for error in rep["errors"]]
    if len({rep["digest"] for rep in reps}) > 1:
        errors.append(f"{args.workload}: repetitions of seed {args.seed} "
                      f"produced different outputs")
    return errors


def metrics(args, bench: dict, reps: List[dict]) -> Dict[str, dict]:
    untraced = [rep for rep in reps if rep["mode"] == "untraced"]
    traced = [rep for rep in reps if rep["mode"] == "traced"]

    def median(rows: List[dict], key) -> float:
        return statistics.median(key(row) for row in rows)

    values: Dict[str, float] = {
        "setup_s": median(untraced, lambda r: r["setup_s"]),
        "peak_rss_mb": median(untraced, lambda r: r["peak_rss_mb"]),
        "cold_s": median(untraced, lambda r: r["cold_s"]),
        "warm_s": median(untraced, lambda r: r["warm_s"]),
    }
    if args.trace:
        for name in traced[0]["layers"]:
            values[name] = median(traced, lambda r: r["layers"][name])
        passes = lambda r: r["cold_s"] + r["warm_s"]  # noqa: E731
        values["trace.overhead_frac"] = (median(traced, passes)
                                         / median(untraced, passes) - 1.0)
        values["host.cpu_per_wall"] = median(
            untraced, lambda r: (r["cold_cpu_s"] + r["warm_cpu_s"]
                                 + r["children_cpu_s"]) / passes(r))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # A terminated run unwinds through spawn(), which kills the repetition's
    # process group (and with it any remote workers).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; nothing to "
              f"benchmark", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = ROOT / ".perfbench" / stamp
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}", flush=True)
    # Byte-compile up front, so that every repetition imports from a fresh
    # bytecode cache and no repetition's setup_s pays for compilation.
    for tree in (ROOT / "src", HERE):
        compileall.compile_dir(str(tree), quiet=1)
    try:
        reps = run_reps(args, workdir)
        missing = sorted({t for rep in reps
                          for t in rep.get("missing_targets", [])})
        if missing:
            raise BenchmarkError("traced call sites not found (their layers "
                                 "would read 0): " + ", ".join(missing))
        errors = check(args, reps)
        result = metrics(args, bench, reps)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    host = dict(reps[0]["host"], cpus=os.cpu_count(),
                cpus_usable=len(os.sched_getaffinity(0)),
                platform=platform.platform(), git_sha=git_sha(),
                source_digest=source_digest(), pinned=PINNED)
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host, "errors": errors,
              "repetitions": reps, "metrics": result}
    runs = ROOT / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{stamp}.json").write_text(json.dumps(record, indent=1))
    if not args.trace:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in errors:
        print(f"CHECK FAILED: {error}")
    for name, metric in result.items():
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    print("host: " + json.dumps(host, sort_keys=True))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

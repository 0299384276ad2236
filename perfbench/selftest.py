"""Self-test of the traced run: plant a known delay in one layer and find it.

    python3 perfbench/selftest.py

1. A traced ``protocol`` repetition measures ``nn.optim.step_s`` and the
   number of optimizer steps.
2. The benchmark's own ``nn.optim.step`` wrapper then adds a busy-wait of
   20% of that time, spread over the calls.
3. Repetitions run in triples (plain, delayed, plain again), so neighbours
   share the machine's load; medians are taken over seven triples.
   Traced: the share of the passes spent in ``nn.optim.step_s`` must rise by
   about the planted share, no other layer's share may rise more, and the
   unmodified reruns must not move it by more than half the planted share.
   Untraced: the passes (``cold_s + warm_s``) must rise by about the
   planted time.

Exit code 0 when every check holds.  This is not part of the pytest
collection: it takes a few minutes.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from run import PINNED

HERE = Path(__file__).resolve().parent
LAYER = "nn.optim.step"
SEED = 0
#: The planted delay as a share of the layer's measured time.
SHARE = 0.2
TRIPLES = 7


def rep(seed: int, mode: str, inject: Optional[str] = None) -> dict:
    """One protocol repetition in a fresh process, as ``run.py`` starts it."""
    command = [sys.executable, str(HERE / "rep.py"), "--workload", "protocol",
               "--seed", str(seed), "--mode", mode, "--t0", repr(time.time())]
    if inject:
        command += ["--inject", inject]
    done = subprocess.run(command, cwd=HERE.parent, capture_output=True,
                          text=True, check=True, env=dict(os.environ, **PINNED))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["passes_s"] = result["cold_s"] + result["warm_s"]
    return result


def triple(seed: int, mode: str, inject: str,
           value: Callable[[dict], Dict[str, float]]
           ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per value: (delayed minus the mean of its plain neighbours, drift)."""
    first = value(rep(seed, mode))
    delayed = value(rep(seed, mode, inject))
    again = value(rep(seed, mode))
    return ({k: delayed[k] - (first[k] + again[k]) / 2 for k in first},
            {k: again[k] - first[k] for k in first})


def main() -> int:
    first = rep(SEED, "traced")
    base, base_passes = first["layers"], first["passes_s"]
    planted = SHARE * base[f"{LAYER}_s"]
    inject = f"{LAYER}:{planted / base['nn.optim.steps']!r}"
    print(f"{LAYER}_s = {base[f'{LAYER}_s']:.4f} s over "
          f"{base['nn.optim.steps']:.0f} calls; planting {planted:.4f} s")

    # Layer times as shares of the traced passes: host speed drifts over
    # minutes and scales every layer alike, so shares compare across
    # repetitions where seconds do not.
    layers = [name for name in base if name.endswith("_s")
              and name not in ("core.evaluation.job_s", "core.distributed.setup_s")]
    traced = [triple(SEED, "traced", inject,
                     lambda r: {n: r["layers"][n] / r["passes_s"] for n in layers})
              for _ in range(TRIPLES)]
    moved = {name: statistics.median(rise[name] for rise, _ in traced)
             for name in layers}
    drift = statistics.median(d[f"{LAYER}_s"] for _, d in traced)
    top = max(moved, key=moved.get)
    expected = planted / base_passes
    print(f"traced: {LAYER}_s share of the passes rose {moved[f'{LAYER}_s']:+.2%} "
          f"(planted {expected:+.2%}); the largest rise is {top}; "
          f"unmodified reruns moved it {drift:+.2%}")

    untraced = [triple(SEED, "untraced", inject,
                       lambda r: {"passes_s": r["passes_s"]})
                for _ in range(TRIPLES)]
    rise = statistics.median(r["passes_s"] for r, _ in untraced)
    print(f"untraced passes (cold_s + warm_s): rose {rise:+.4f} s with the "
          f"delay (planted {planted:.4f} s)")

    attributed = moved[f"{LAYER}_s"]
    checks = {
        f"the trace attributes the delay to {LAYER}_s":
            top == f"{LAYER}_s"
            and 0.5 * expected <= attributed <= 1.5 * expected,
        "the protocol passes rise by about the planted time":
            0.5 * planted <= rise <= 1.5 * planted,
        "unmodified reruns show no change": abs(drift) <= 0.5 * expected,
    }
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}: {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-check of the benchmark, from the root of the repository:

    python3 bench/selfcheck.py

For every workload it makes two traced runs with SEED and one with
OTHER_SEED, then checks:

- every run is correct (the pinned answers hold under both seeds);
- the ``.calls`` counts of the two same-seed runs are identical;
- the bypass predictions, as exact counts: ``catalog.canonical_code`` is
  never called on ``tutte``, ``core.classify_edge`` never on ``census`` or
  ``binfn``;
- every traced layer is called on at least one workload.

Exits 0 when all checks hold, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
SEED = 11
OTHER_SEED = 12

BYPASSED = {
    "tutte": ["catalog.canonical_code"],
    "census": ["core.classify_edge"],
    "binfn": ["core.classify_edge"],
}


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calls(result: dict) -> dict:
    return {k[:-len(".calls")]: v["value"] for k, v in result["metrics"].items()
            if k.endswith(".calls")}


def main() -> int:
    problems = []
    used = set()
    for name in WORKLOADS:
        first, second = traced_run(name, SEED), traced_run(name, SEED)
        other = traced_run(name, OTHER_SEED)
        for label, result in (("seed", first), ("seed again", second), ("other seed", other)):
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} ({label}): {result['failed']} of "
                                f"{result['attempted']} tasks failed")
        c1, c2 = calls(first), calls(second)
        differ = {k: (c1[k], c2.get(k)) for k in c1 if c1[k] != c2.get(k)}
        if differ:
            problems.append(f"{name}: call counts differ between two runs: {differ}")
        for layer in BYPASSED.get(name, []):
            if c1[layer] != 0:
                problems.append(f"{name}: {layer} called {c1[layer]} times, predicted 0")
        used |= {k for k, v in c1.items() if v}
        print(f"{name}: checked ({sum(c1.values())} wrapped calls per traced iteration)")
    unused = sorted(set(LAYERS) - used)
    if unused:
        problems.append(f"layers never called on any workload: {unused}")
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

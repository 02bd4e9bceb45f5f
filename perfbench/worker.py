"""One workload in one fresh process; started by run.py, not by hand.

Sets up (imports, inputs from the seed, a small warm-up solve), notes the
moment the first timed item begins, then makes whole passes over the
workload's fixed item list until `--seconds` have gone by.  Before each pass
the package's process-level memo caches are emptied, so every pass does the
same work a fresh process would, and its outputs go to a fresh directory.  Checks and negative controls run outside
the timed items.  The result goes to the JSON file named by `--result`.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from stripscat import bie  # noqa: E402
from stripscat.core import ProblemConfig  # noqa: E402

import workloads  # noqa: E402


def reset_caches():
    """Empty the package's process-level memo caches (module dicts/lists named *CACHE*)."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("stripscat."):
            for attr, val in vars(mod).items():
                if "CACHE" in attr.upper() and isinstance(val, (dict, list)):
                    val.clear()


def warm_up():
    cfg = ProblemConfig(1.0, 1.0, 1.0, 1.0)
    bie.solve_antisymmetric(cfg, 8)
    bie.solve_symmetric(cfg, 8)
    reset_caches()


def digits(err):
    """-log10 of an error, capped at 16; 0 for an error that is not finite."""
    return min(16.0, -math.log10(max(err, 1e-16))) if math.isfinite(err) else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed % 2**32, work)   # numpy wants 0 <= seed
    warm_up()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    t_ready = time.monotonic()
    if args.setup_only:
        Path(args.result).write_text(json.dumps({"t_ready": t_ready}), encoding="utf-8")
        return 0

    durations, failures, passes = [], [], 0
    checks, controls = [], {}
    while passes == 0 or time.monotonic() - t_ready < args.seconds:
        reset_caches()
        shutil.rmtree(work / workloads.OUT, ignore_errors=True)
        done = {}
        for item in wl.items:
            t0 = time.perf_counter()
            try:
                out = wl.run_item(item)
                ok = True
            except Exception as exc:  # counted in `failed`; the pass goes on
                ok = False
                if passes == 0:
                    failures.append(f"{item!r}: {type(exc).__name__}: {exc}")
                    traceback.print_exc()
            dt = time.perf_counter() - t0
            durations.append((dt, ok))
            if ok:
                done[item] = out
        passes += 1
        data = wl.collect(done)
        checks = wl.evaluate(data)
        if not all(c.ok for c in checks):
            break
        if passes == 1:
            for label, bad in wl.corruptions(data):
                controls[label] = not all(c.ok for c in wl.evaluate(bad))

    result = {
        "t_ready": t_ready,
        "passes": passes,
        "durations": durations,
        "failures": failures,
        "checks": [[c.name, c.value, c.limit, c.ok] for c in checks],
        "correct": bool(checks) and all(c.ok for c in checks) and all(controls.values()),
        "controls": controls,
        "accuracy_digits": min((digits(c.value) for c in checks if c.error), default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.table()
        result["missing"] = tracer.missing
        (work / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "points"], "spans": tracer.spans}),
            encoding="utf-8")
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

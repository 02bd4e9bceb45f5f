"""stripscat benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each workload runs in one fresh worker
process (worker.py) that makes whole passes over a fixed item list for at
least `--seconds`; `SETUP_PROBES` further workers only set up, so that
`setup_s` is a median.  BLAS runs on one thread.  With
`--trace 0` the last line of standard output is the JSON result with the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics, and
the per-layer table and the spans are written under `.perfbench_out/`.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("incidence-sweep", "media-sweep", "spectra", "verify-fast")
SETUP_PROBES = 6
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def _worker(args, extra, result: Path, env, timeout):
    """Start one worker; return (spawn time, its result dict)."""
    work = OUT / "work" / args.workload
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work), "--result", str(result), *extra]
    result.unlink(missing_ok=True)
    with open(OUT / f"{args.workload}.log", "a", encoding="utf-8") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=log)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"{args.workload}: worker exceeded the deadline; see {log.name}")
    if code != 0 or not result.exists():
        raise SystemExit(f"{args.workload}: worker exited {code}; see {log.name}")
    return t_spawn, json.loads(result.read_text(encoding="utf-8"))


def run_workload(args, env, t_start):
    def left():
        return DEADLINE_S - (time.monotonic() - t_start)

    setups = []
    for _ in range(SETUP_PROBES):
        t_spawn, r = _worker(args, ["--setup-only"], OUT / f"{args.workload}-setup.json",
                             env, min(60.0, left()))
        setups.append(r["t_ready"] - t_spawn)
    t_spawn, r = _worker(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                         OUT / f"{args.workload}-result.json", env, left())
    setups.append(r["t_ready"] - t_spawn)

    untraced = OUT / f"{args.workload}-untraced.json"
    times = [dt for dt, _ in r["durations"]]
    done = [dt for dt, ok in r["durations"] if ok]
    items_per_s = len(done) / sum(times) if times else 0.0
    result = {
        "correct": bool(r["correct"]),
        "attempted": len(times),
        "failed": len(times) - len(done),
    }
    for name, value, limit, ok in r["checks"]:
        if not ok:
            print(f"CHECK FAILED {args.workload}: {name} = {value:.3e} (limit {limit:.1e})")
    for label, rejected in r["controls"].items():
        print(f"negative control {label}: {'rejected' if rejected else 'NOT REJECTED'}")
    for f in r["failures"]:
        print(f"failed item (every pass): {f}")
    print(f"{args.workload}: {r['passes']} passes, {len(times)} items, "
          f"{len(r['checks'])} checks per pass, setup samples "
          + ", ".join(f"{s:.3f}" for s in setups))

    if args.trace:
        from spans import layer_metrics
        metrics = layer_metrics(r["layers"], r["passes"], items_per_s)
        lines = [f"{'span':<36} {'calls':>9} {'points':>11} {'self_s':>10} {'total_s':>10}"]
        for name, row in sorted(r["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"{name:<36} {row['calls']:>9} {row['points']:>11} "
                         f"{row['self_s']:>10.4f} {row['total_s']:>10.4f}")
        lines.append(f"(totals over {r['passes']} passes; metrics below are per pass)")
        lines += [f"{k:<36} {v:.6g} {u}" for k, (v, u) in metrics.items()]
        if untraced.exists():
            u = json.loads(untraced.read_text(encoding="utf-8"))["items_per_s"]
            lines.append(f"tracing overhead: items_per_s {items_per_s:.4g} traced, {u:.4g} in "
                         f"the last untraced run here: {100 * (1 - items_per_s / u):+.1f} %")
        else:
            lines.append("tracing overhead: no untraced run here yet to compare with")
        (OUT / f"{args.workload}-layers.txt").write_text("\n".join(lines) + "\n",
                                                         encoding="utf-8")
        print("\n".join(lines))
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "items_per_s": (items_per_s, "1/s"),
            "item_p50_s": (statistics.median(done) if done else 0.0, "s"),
            "peak_rss_mb": (r["peak_rss_mb"], "MiB"),
            "accuracy_digits": (r["accuracy_digits"], "digits"),
        }
        for k, (v, u) in metrics.items():
            print(f"{args.workload} {k} = {v:.6g} {u}")
        untraced.write_text(json.dumps({"items_per_s": items_per_s}), encoding="utf-8")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "stripscat" / "__init__.py").is_file():
        print(f"no stripscat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # One BLAS thread, within the nproc cap: the operators are at most a few
    # hundred wide, a second thread brought no measurable speed and doubled
    # the exposure to other load on the machine.
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}),
                              env, time.monotonic())
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line of the repository benchmark.

One measured run of one workload::

    python -m bench --workload text-1m --seed 2021 --seconds 15 --trace 0

prints the metrics and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones with
``--trace 1``).  It exits non-zero when any operation failed.

Without ``--workload`` it runs every workload twice in fresh child
processes, untraced then traced, prints one table and writes every
child's full report to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from bench import ROOT, SRC

SETUP_PROBES = 9
QUICK_SECONDS = 0.5
QUICK_ROUND_TRIPS = 3


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src`` or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if not repro.__file__ or not str(repro.__file__).startswith(str(SRC)):
        sys.exit(f"bench: repro imported from {repro.__file__}, not {SRC}")


def stop_helper_processes() -> None:
    """Stop and reap multiprocessing's resource tracker.

    The process-pool encode shares its input through shared memory,
    which starts the tracker; left alone it outlives this process until
    it notices the exit."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def setup_seconds(probes: int) -> float:
    """Median wall time of ``probes`` fresh set-up processes, after one
    untimed probe that warms the native-kernel disk cache."""
    times = []
    for i in range(probes + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "bench.probe"], cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_one(args) -> int:
    from bench import workloads

    spec = declared()
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    setup_s = 0.0 if args.trace else setup_seconds(
        1 if args.quick else SETUP_PROBES)
    run = workloads.measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        min_round_trips=QUICK_ROUND_TRIPS if args.quick
        else workloads.MIN_ROUND_TRIPS,
    )
    values = (workloads.per_layer(run) if args.trace
              else workloads.end_to_end(run, setup_s))
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} are computed but "
            "not declared in BENCHMARK.json, or declared but not computed")
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    for k, m in metrics.items():
        print(f"{args.workload:<18} {k:<34} {m['value']:>14.6g} {m['unit']}")
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": run.inputs_sha256,
        "samples": {op: len(xs) for op, xs in run.seconds.items()},
        "host_slowdown": run.slowdown, "ledger_missing": run.missing,
    }
    if not args.trace:
        detail["raw"] = workloads.raw_metrics(run, setup_s)
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    from bench.workloads import WORKLOADS

    results, status = {}, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, "-m", "bench", "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--quick"] if args.quick else [])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            details = [ln[len("detail "):] for ln in lines
                       if ln.startswith("detail ")]
            if proc.returncode or not details:
                print(f"bench: {name} trace={trace} exited {proc.returncode}",
                      file=sys.stderr)
                status = 1
                continue
            doc = json.loads(details[-1])
            doc["result"] = json.loads(lines[-1])
            results.setdefault(name, {})["traced" if trace else "untraced"] = doc
    spec = declared()
    for group, mode in (("end_to_end", "untraced"), ("per_layer", "traced")):
        print(f"\n{group} ({mode} run)")
        print(f"{'metric':<34} {'unit':<9}" + "".join(
            f"{w:>18}" for w in WORKLOADS))
        for m in spec[group]:
            row = [results.get(w, {}).get(mode, {}).get("result", {})
                   .get("metrics", {}).get(m["name"], {}).get("value")
                   for w in WORKLOADS]
            print(f"{m['name']:<34} {m['unit']:<9}" + "".join(
                f"{v:>18.6g}" if v is not None else f"{'-':>18}" for v in row))
    with open(args.out, "w") as f:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "workloads": results}, f, indent=1)
        f.write("\n")
    print(f"\nresults written to {args.out}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny runs that exercise every metric")
    parser.add_argument("--out", default="bench-results.json",
                        help="results file written when running all workloads")
    args = parser.parse_args(argv)
    use_checkout_source()
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else declared()["run_seconds"]
    from bench.workloads import WORKLOADS

    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {WORKLOADS}")
    try:
        return run_one(args)
    finally:
        stop_helper_processes()


if __name__ == "__main__":
    sys.exit(main())

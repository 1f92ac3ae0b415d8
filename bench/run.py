"""Benchmark of lastfall: one workload per run, or all of them.

    python3 bench/run.py --workload fall-campaigns --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --workload all

Run from the repository root; the library is imported from ``src``.  With
``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced pass.  Every metric is printed as
``name value unit``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of the traced
pass are written to ``.bench_out/trace-<workload>-seed<n>.json``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# fewest fresh interpreters timed per run; setup_s is their median
SETUP_REPEATS = 3

# address-space cap for a workload process, about 12 times what a run maps.
# A broken certifier makes a profile close spans up to the default cap, which
# fills gigabytes within minutes; with the cap that instance fails instead.
ADDRESS_SPACE_BYTES = 2 << 30


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit (times setup_s)")
    return parser.parse_args(argv)


def time_setup(workload):
    """Seconds from starting a fresh interpreter to the workload being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"setup of {workload} exited with {proc.returncode}")
    return elapsed


def keep_going(elapsed, passes, budget):
    """Whether another pass of the mean length so far still fits the budget."""
    return elapsed + elapsed / passes <= budget


def report_problems(rounds):
    for res in rounds:
        for msg in res.problems:
            print(f"check failed: {msg}", file=sys.stderr)


def run_untraced(workloads, hostspeed, args):
    """Rounds until the budget is spent, each after one setup interpreter, so
    that setup_s samples the host over the whole run as the rounds do.  The
    budget counts the setup interpreters too.  The host-speed sampler runs
    during each round; wall_ref_s is the mean round time at the reference
    speed."""
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    rounds, setups = [], []
    elapsed = 0.0   # setup interpreters and rounds
    at_reference = []   # each round's seconds at the reference host speed
    kernel_s = []       # every host-speed sample of the run
    while True:
        t0 = time.perf_counter()
        setups.append(time_setup(args.workload))
        with hostspeed.sampling() as samples:
            rounds.append(wl.run_round(len(rounds)))
        at_reference.append(hostspeed.at_reference(rounds[-1].seconds, samples))
        kernel_s += samples
        elapsed += time.perf_counter() - t0
        if not keep_going(elapsed, len(rounds), args.seconds):
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(time_setup(args.workload))
    report_problems(rounds)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"rounds {len(rounds)}, seconds: " + " ".join(f"{r.seconds:.4f}" for r in rounds))
    print("at reference speed: " + " ".join(f"{t:.4f}" for t in at_reference))
    print(f"as measured: mean {statistics.mean(r.seconds for r in rounds):.4f} s; "
          f"host-speed kernel: {len(kernel_s)} samples, median "
          f"{statistics.median(kernel_s) * 1000:.3f} ms")
    metrics = {
        "wall_ref_s": (statistics.mean(at_reference), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_frac": ((attempted - failed) / attempted, "ratio"),
    }
    return failed == 0, attempted, failed, metrics


def run_traced(workloads, tracing, args):
    """Round 0 traced, then untraced and traced in turn while time remains,
    so that at least two traced passes over the same inputs can be compared.
    Per-layer figures come from the traced pass of median length."""
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    plain, traced = [], []

    def traced_pass():
        tracer = tracing.Tracer()
        with tracer:
            res = wl.run_round(0, tracer=tracer)
        traced.append((res, tracer))

    start = time.perf_counter()
    traced_pass()
    while True:
        plain.append(wl.run_round(0))
        traced_pass()
        if not keep_going(time.perf_counter() - start, len(plain), args.seconds):
            break
    rounds = plain + [res for res, _ in traced]
    report_problems(rounds)
    correct = all(r.failed == 0 for r in rounds)
    counts = [tr.count_metrics() for _, tr in traced]
    if any(c != counts[0] for c in counts[1:]):
        print("check failed: counts differ between traced passes over the same "
              f"inputs: {counts}", file=sys.stderr)
        correct = False
    traced.sort(key=lambda pair: pair[1].wall_s())
    res, tracer = traced[(len(traced) - 1) // 2]
    plain_wall = statistics.median(r.seconds for r in plain)
    os.makedirs(workloads.SCRATCH, exist_ok=True)
    tracer.dump(os.path.join(workloads.SCRATCH,
                             f"trace-{args.workload}-seed{args.seed}.json"))
    metrics = {}
    for name, value in tracer.summary().items():
        unit = "s" if name.endswith("_s") else ("ratio" if name.endswith("_ratio")
                                                 else "count")
        metrics[name] = (value, unit)
    metrics["cli.instances"] = (res.attempted, "count")
    metrics["trace.wall_s"] = (tracer.wall_s(), "s")
    traced_wall = statistics.median(tr.wall_s() for _, tr in traced)
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return correct, attempted, failed, metrics


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    names = ("fall-campaigns", "linear-cli")
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, m in result["metrics"].items():
            metrics[f"{name}.{key}"] = (m["value"], m["unit"])
    return correct, attempted, failed, metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lastfall", "__init__.py")):
        print(f"no lastfall sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    if args.workload == "all":
        correct, attempted, failed, metrics = run_all(args)
    else:
        import hostspeed
        import tracing
        import workloads

        if args.workload not in workloads.WORKLOADS:
            print(f"unknown workload {args.workload!r}; choose from "
                  f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
            return 2
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed).setup()
            return 0
        if args.trace:
            correct, attempted, failed, metrics = run_traced(workloads, tracing, args)
        else:
            correct, attempted, failed, metrics = run_untraced(workloads, hostspeed, args)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: seeded ALERT scenarios, timed end to end.

Run from the root of a checkout::

    python3 alertbench/run.py --workload paper-n200 --seed 1 --seconds 36 --trace 0
    python3 alertbench/run.py            # every workload at its default seed

A run of one workload executes every scenario of its set
(``scenarios.py``) once and repeats them while ``--seconds`` lasts,
each scenario in a child process forked from this one.  It checks
every scenario's simulated outputs and prints one JSON object as its
last line of output: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of one extra, traced pass with ``--trace 1``.  Metric names and units come
from ``BENCHMARK.json``.  ``README.md`` next to this file explains the
workloads, the metrics and how to read the trace file that
``--trace 1`` writes under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"

#: A scenario child that has not reported after this long is killed
#: (SIGALRM) and counted as a failed operation.  The longest scenario,
#: a traced scale-n5000 run, takes about 10 s.
CHILD_TIMEOUT_S = 60


def _load_program():
    """Import the simulator from this checkout's ``src`` (or exit 1)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no simulator sources at {SRC / 'repro'}")
    # The numeric libraries must not start worker threads in this
    # process: scenario children are forked from it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported repro from {repro.__file__}, not {SRC}")
    import scenarios
    import tracer

    return scenarios, tracer


def run_child(scenarios, tracer, cfg, traced: bool) -> dict:
    """One scenario in a forked child; returns its measurements.

    The parent has only imported the simulator, so every child starts
    from the same clean heap, without the allocator history of earlier
    scenarios, and its peak RSS is its own.  Forking skips the ~1.5 s
    of imports that a fresh interpreter would repeat per scenario.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                payload = scenarios.run_scenario(
                    cfg, tracer.Tracer() if traced else None
                )
            except Exception:
                payload = {"error": traceback.format_exc()}
            with os.fdopen(write_fd, "w") as out:
                json.dump(payload, out)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd) as inp:
            text = inp.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not text:
        return {"error": f"scenario child exited with code {code}"}
    return json.loads(text)


def _failure(sample: dict, reference: dict | None) -> str | None:
    """Why a scenario sample counts as a failed operation, if it does."""
    if "error" in sample:
        return sample["error"]
    if sample["problems"]:
        return "; ".join(sample["problems"][:3])
    if reference is not None and sample["sim"] != reference:
        return "simulated outputs differ from an earlier run of the same seed"
    return None


def _pooled_sim(sims: list[dict]) -> dict[str, float]:
    """The simulated end-to-end metrics over a run's scenarios."""
    sent = sum(s["sent"] for s in sims)
    delivered = sum(s["delivered"] for s in sims)
    return {
        "delivery_rate": delivered / sent,
        "goodput_pps": delivered / sum(s["duration_s"] for s in sims),
        "mean_latency_ms": 1000.0 * sum(s["latency_sum_s"] for s in sims) / delivered,
        "mean_hops": sum(s["hops_sum"] for s in sims) / sent,
    }


def measure(scenarios, tracer, workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the result object the benchmark prints."""
    seeds = workload.seeds(seed)
    configs = [workload.config(s) for s in seeds]
    samples: list[list[dict]] = [[] for _ in seeds]
    # Every seed once, then repeats in seed order while another
    # scenario still fits in the budget.  An untraced run repeats at
    # least one seed so its outputs are compared; a traced run gets half
    # the budget and no repeats, because its traced pass reruns every
    # seed.
    budget = seconds / 2 if trace else seconds
    start = time.perf_counter()
    n = 0
    while True:
        i = n % len(seeds)
        samples[i].append(run_child(scenarios, tracer, configs[i], traced=False))
        n += 1
        if n < len(seeds) or (n == len(seeds) and not trace):
            continue
        if (time.perf_counter() - start) * (n + 1) / n > budget:
            break
    traced = (
        [run_child(scenarios, tracer, cfg, traced=True) for cfg in configs]
        if trace
        else []
    )

    attempted = failed = 0
    errors: list[str] = []

    def check(sample: dict, reference: dict | None, seed_i: int) -> bool:
        nonlocal attempted, failed
        attempted += 1
        why = _failure(sample, reference)
        if why is not None:
            failed += 1
            errors.append(f"seed {seed_i}: {why}")
        return why is None

    # Every sample of a seed must reproduce the seed's first good
    # sample; the traced sample too, which is the tracer's self-test.
    good: list[list[dict]] = []
    for seed_i, runs in zip(seeds, samples):
        kept: list[dict] = []
        for sample in runs:
            if check(sample, kept[0]["sim"] if kept else None, seed_i):
                kept.append(sample)
        good.append(kept)
    traced_ok = [
        bool(runs) and check(t, runs[0]["sim"], seed_i)
        for seed_i, runs, t in zip(seeds, good, traced)
    ]

    metrics: dict[str, float] = {}
    usable = [runs for runs in good if runs]
    if not trace and usable:
        for key in ("wall_s", "setup_s", "loop_s", "peak_rss_mb"):
            metrics[key] = statistics.median(
                statistics.median(s[key] for s in runs) for runs in usable
            )
        metrics.update(_pooled_sim([runs[0]["sim"] for runs in usable]))
    if trace:
        rows = [
            (tracer.layer_metrics(t["trace"], t["sim"]),
             t["wall_s"] - statistics.median(s["wall_s"] for s in runs))
            for runs, t, ok in zip(good, traced, traced_ok)
            if ok
        ]
        if rows:
            for key in rows[0][0]:
                metrics[key] = statistics.fmean(row[key] for row, _ in rows)
            metrics["trace.overhead_s"] = statistics.fmean(o for _, o in rows)
        _write_trace(workload.name, seed, seeds, traced, metrics)
    for line in errors:
        print(f"{workload.name}: failed: {line}", file=sys.stderr)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _write_trace(name: str, seed: int, seeds: list[int], traced: list[dict], metrics: dict) -> None:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{name}-seed{seed}.json"
    scenarios_out = [
        {"seed": s, "wall_s": t.get("wall_s"), "trace": t.get("trace"), "error": t.get("error")}
        for s, t in zip(seeds, traced)
    ]
    path.write_text(json.dumps({"workload": name, "seed": seed, "metrics": metrics,
                                "scenarios": scenarios_out}, indent=1))
    print(f"trace written to {path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement budget (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"error: {spec_path} not found")
    spec = json.loads(spec_path.read_text())
    scenarios, tracer = _load_program()

    declared = [w["name"] for w in spec["workloads"]]
    if sorted(declared) != sorted(scenarios.WORKLOADS):
        sys.exit(f"error: BENCHMARK.json workloads {declared} != "
                 f"{sorted(scenarios.WORKLOADS)}")
    if args.workload != "all" and args.workload not in declared:
        parser.error(f"unknown workload {args.workload!r}; choose from {declared}")
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    # Children then never collect the parent's objects, so their pages
    # stay shared instead of being copied on first write.
    gc.collect()
    gc.freeze()

    all_correct = True
    for name in declared if args.workload == "all" else [args.workload]:
        workload = scenarios.WORKLOADS[name]
        seed = args.seed if args.seed is not None else workload.default_seed
        out = measure(scenarios, tracer, workload, seed, seconds, bool(args.trace))
        metrics = out["metrics"]
        if sorted(metrics) != sorted(units) and out["failed"] == 0:
            sys.exit(f"error: measured metrics {sorted(metrics)} != "
                     f"declared {sorted(units)}")
        correct = out["failed"] == 0 and out["attempted"] >= 1
        all_correct &= correct
        print(f"{name} seed={seed} scenarios={len(workload.seeds(seed))} "
              f"attempted={out['attempted']} failed={out['failed']}")
        for key, value in metrics.items():
            print(f"  {key:<26} {value:>14.6g} {units.get(key, '')}")
        print(json.dumps({
            "correct": correct,
            "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                        if k in units},
        }))
    # A single workload reports failures through "correct"; the
    # all-workloads summary also signals them in its exit code.
    return 0 if all_correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())

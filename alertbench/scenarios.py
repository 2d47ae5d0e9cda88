"""The benchmark's workloads, and what one scenario run measures.

A *scenario* is one ``run_experiment`` call on one seeded
``ExperimentConfig``.  A benchmark run of a workload executes a fixed
set of scenarios derived from its ``--seed`` (see
:meth:`Workload.seeds`), each in a fresh child process, and repeats
the set while its time budget lasts.  Why each workload exists is
written down in ``README.md`` next to this file.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass
from typing import Callable

from repro.experiments.config import ExperimentConfig, TrafficConfig
from repro.experiments.runner import RunResult, run_experiment

#: The AIMD setting frozen in ``benchmarks/bench_traffic_adaptive.py``
#: (terminal losses only, gentle growth, tight cap).  Copied, not
#: imported, so the benchmark depends on ``src/repro`` alone.
ADAPTIVE_TRAFFIC = TrafficConfig(
    model="adaptive",
    min_interval=0.05,
    max_interval=0.5,
    backoff_factor=1.25,
    recovery_step=0.5,
    react_to_mac_drops=False,
)


def paper_n200(seed: int) -> ExperimentConfig:
    """§5.2 defaults: 200 nodes, 1 km², 2 m/s RWP, 10 CBR pairs, H=5."""
    return ExperimentConfig(protocol="ALERT", seed=seed, duration=60.0)


def scale_n5000(seed: int) -> ExperimentConfig:
    """5000 nodes at the paper's density with the derived H.

    Pair *i* starts at 1 + 0.1·i s, so 100 pairs need a horizon past
    10.9 s for every pair to send.
    """
    return ExperimentConfig(
        protocol="ALERT",
        n_nodes=5000,
        field_size=1000.0 * math.sqrt(5000 / 200),
        h_override=None,
        n_pairs=100,
        seed=seed,
        duration=12.0,
    )


def congested_n60(seed: int) -> ExperimentConfig:
    """60 nodes on 400 m, derived H (=3), 25 adaptive pairs at 0.05 s."""
    return ExperimentConfig(
        protocol="ALERT",
        n_nodes=60,
        field_size=400.0,
        h_override=None,
        n_pairs=25,
        send_interval=0.05,
        traffic=ADAPTIVE_TRAFFIC,
        seed=seed,
        duration=4.0,
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``scenarios`` is how many distinct seeds one benchmark run covers:
    the simulated outcome varies from seed to seed far more than the
    host's timing noise, so a run pools several seeds to keep its
    figures steady across ``--seed`` values.
    """

    name: str
    config: Callable[[int], ExperimentConfig]
    default_seed: int
    scenarios: int

    def seeds(self, seed: int) -> list[int]:
        """The scenario seeds of a run: ``seed + 1000·j``, as ``run_many``."""
        return [seed + 1000 * j for j in range(self.scenarios)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper-n200", paper_n200, default_seed=1, scenarios=20),
        Workload("scale-n5000", scale_n5000, default_seed=101, scenarios=4),
        Workload("congested-n60", congested_n60, default_seed=9, scenarios=32),
    )
}


def sim_outputs(result: RunResult) -> dict:
    """The simulated outcome of a run: deterministic for a seed."""
    flows = result.metrics.flows()
    delivered = [f for f in flows if f.delivered]
    mac = result.network.mac
    return {
        "duration_s": result.config.duration,
        "sent": len(flows),
        "delivered": len(delivered),
        "dropped": sum(
            1 for f in flows if not f.delivered and f.dropped_reason is not None
        ),
        "unaccounted": sum(
            1 for f in flows if not f.delivered and f.dropped_reason is None
        ),
        "latency_sum_s": sum(f.latency for f in delivered),
        "hops_sum": sum(f.tx_count for f in flows),
        "events": result.engine.events_processed,
        "event_counts": dict(sorted(result.event_counts.items())),
        "mac_attempts": mac.attempts_total,
        "mac_collisions": mac.collisions_total,
        "backoff_events": result.backoff_events,
        "recovery_events": result.recovery_events,
    }


def accounting_problems(result: RunResult) -> list[str]:
    """Violations of the run's own bookkeeping; empty when it adds up."""
    problems = []
    sent = result.metrics.packets_sent
    delivered = result.metrics.packets_delivered
    if delivered > sent:
        problems.append(f"delivered {delivered} > sent {sent}")
    for f in result.metrics.flows():
        if not f.delivered:
            continue
        if not f.latency > 0:
            problems.append(f"flow {f.flow_id}: latency {f.latency!r} <= 0")
        if not f.path or f.path[-1] != f.dst:
            problems.append(f"flow {f.flow_id}: path does not end at {f.dst}")
    counted = sum(result.event_counts.values())
    if counted != result.engine.events_processed:
        problems.append(
            f"event_counts sum {counted} != events_processed "
            f"{result.engine.events_processed}"
        )
    return problems


def run_scenario(cfg: ExperimentConfig, tracer=None) -> dict:
    """Run one scenario in this process and measure it.

    Host times: ``wall_s`` from ``run_experiment`` entry to return,
    ``setup_s`` up to its ``on_setup`` hook, ``loop_s`` the rest.  A
    tracer, when given, is installed first and reported after.
    """
    if tracer is not None:
        tracer.install()
    marks: list[float] = []
    t0 = time.perf_counter()
    result = run_experiment(cfg, on_setup=lambda: marks.append(time.perf_counter()))
    t1 = time.perf_counter()
    out = {
        "wall_s": t1 - t0,
        "setup_s": marks[0] - t0,
        "loop_s": t1 - marks[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim": sim_outputs(result),
        "problems": accounting_problems(result),
    }
    if tracer is not None:
        out["trace"] = tracer.report()
    return out

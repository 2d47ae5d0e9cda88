"""CI gate: fail when ``alert_run`` regresses against the committed baseline.

Usage (what CI runs after the quick harness)::

    PYTHONPATH=src python benchmarks/check_perf_regression.py \
        --baseline BENCH_perf.json --candidate /tmp/BENCH_perf_ci.json \
        --max-regression 0.25

The committed ``BENCH_perf.json`` is a *full* profile (60 simulated
seconds) while CI runs the *quick* one (10 s), so raw means are not
directly comparable — and neither is raw per-event cost, because the
fixed per-run setup (network build, key generation, the first hello
round) amortises over 6x fewer events in a quick run.  Full profiles
therefore also record an ``alert_run_quick`` section measured at the
quick duration; the gate picks the baseline section whose
``sim_duration_s`` matches the candidate and compares **mean wall
time** over that identical workload.  When no section matches (older
baselines), it falls back to per-event cost (``mean_s /
events_processed``), which is only approximately duration-invariant.

A second gate covers the ``scale`` section written by
``benchmarks/bench_scale.py``: CI's ``--quick`` run records one N=1000
point at the same config and duration as the committed baseline's, so
loop times are directly comparable.  The gate prefers ``loop_min_s``
(minimum loop time over the point's reps — the least-interference
estimator, stable where a mean of one or two draws swings with
scheduler noise) and falls back to ``loop_mean_s`` for reports that
predate the field.  It gates ``setup_min_s`` (network build, key
generation, registration) the same way, and skips that check when
either report predates the field.  Reports that predate the scale
harness entirely skip the timing comparison instead of failing it.
The same gate fails every candidate scale point whose
``delivery_rate`` is below :data:`MIN_DELIVERY_RATE`: a timing taken
on a workload that stopped delivering measures nothing.

A third gate covers the ``traffic`` section written by
``benchmarks/bench_traffic_adaptive.py``.  Unlike the other two it is
deterministic (seeded simulation outputs, not wall time): it asserts
the closed-loop traffic invariants — backoff events fired, adaptive
offered load below CBR's, goodput within 10 % of the CBR baseline —
and additionally bounds the goodput-ratio drop against a
duration-matched baseline point when one exists.

Caveats the threshold absorbs: CI runners are not the machine the
baseline was recorded on, and a 200-node quick run is ~0.2 s of
wall-clock, so the gate catches structural regressions (an optimisation
reverted, an accidental O(n) in the event loop), not single-digit
percentages.  Skip it on known-slower PRs with the ``skip-perf-gate``
label (wired in ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Lowest delivery rate a scale point may record (``bench_scale.py``).
MIN_DELIVERY_RATE = 0.95


def _events(run: dict) -> int:
    events = run.get("events_processed")
    if not events:
        raise KeyError(
            "alert_run has no events_processed; regenerate the report "
            "with the current benchmarks/bench_perf_core.py"
        )
    return events


def pick_comparison(baseline: dict, candidate: dict) -> tuple[float, float, str]:
    """Return (baseline_cost, candidate_cost, label) for the gate.

    Prefers a baseline section recorded at the candidate's simulated
    duration (identical workload -> compare means); otherwise falls
    back to per-event cost across mismatched durations.
    """
    cand = candidate["timings"]["alert_run"]
    for key in ("alert_run_quick", "alert_run"):
        base = baseline["timings"].get(key)
        if base is None:
            continue
        if base.get("sim_duration_s") == cand.get("sim_duration_s"):
            return base["mean_s"], cand["mean_s"], f"mean_s vs {key}"
    base = baseline["timings"]["alert_run"]
    return (
        base["mean_s"] / _events(base),
        cand["mean_s"] / _events(cand),
        "per-event cost (no duration-matched baseline section)",
    )


def check(
    baseline: dict, candidate: dict, max_regression: float
) -> tuple[bool, str]:
    """Compare alert_run costs; returns (ok, human-readable summary)."""
    base, cand, label = pick_comparison(baseline, candidate)
    change = cand / base - 1.0
    summary = (
        f"alert_run [{label}]: baseline {base * 1e3:.3f} ms, "
        f"candidate {cand * 1e3:.3f} ms ({change:+.1%}; "
        f"limit +{max_regression:.0%})"
    )
    return change <= max_regression, summary


def check_scale(
    baseline: dict, candidate: dict, max_regression: float
) -> tuple[bool, str]:
    """Gate the N=1000 scale point's event-loop and setup cost.

    ``bench_scale.py --quick`` and the committed full profile both run
    the same config (seed, field, pairs) at the same simulated
    duration, so loop times are directly comparable — no amortisation
    caveat.  Prefers ``loop_min_s`` (min over reps; wall-clock noise
    only ever adds time, so the minimum is the tightest estimate of
    true cost) and falls back to ``loop_mean_s`` when either report
    predates that field.  ``setup_min_s`` is gated against the same
    limit when both reports carry it.  If either report predates the
    scale harness, the gate is skipped rather than failed so older
    baselines don't block CI.
    """
    cand_section = candidate.get("scale") or {}
    delivery_ok, delivery_summary = _check_delivery(cand_section)
    base = (baseline.get("scale") or {}).get("n1000")
    cand = cand_section.get("n1000")
    if base is None or cand is None:
        return delivery_ok, (
            "scale n1000: skipped (section missing from a report)\n"
            + delivery_summary
        )
    if base.get("sim_duration_s") == cand.get("sim_duration_s"):
        if "loop_min_s" in base and "loop_min_s" in cand:
            b, c = base["loop_min_s"], cand["loop_min_s"]
            label = "loop_min_s"
        else:
            b, c = base["loop_mean_s"], cand["loop_mean_s"]
            label = "loop_mean_s"
    else:
        b, c = base["us_per_event"], cand["us_per_event"]
        label = "us_per_event (duration mismatch)"
    ok, summary = _scale_line(label, b, c, max_regression)
    if "setup_min_s" in base and "setup_min_s" in cand:
        setup_ok, setup_summary = _scale_line(
            "setup_min_s", base["setup_min_s"], cand["setup_min_s"], max_regression
        )
        ok = ok and setup_ok
    else:
        setup_summary = (
            "scale n1000 [setup_min_s]: skipped (field missing from a report)"
        )
    return ok and delivery_ok, f"{summary}\n{setup_summary}\n{delivery_summary}"


def _check_delivery(section: dict) -> tuple[bool, str]:
    """Fail scale points of ``section`` that deliver too little."""
    rates = {
        name: point["delivery_rate"]
        for name, point in sorted(section.items())
        if isinstance(point, dict) and "delivery_rate" in point
    }
    if not rates:
        return True, "scale delivery: skipped (no point records delivery_rate)"
    low = [name for name, rate in rates.items() if not rate >= MIN_DELIVERY_RATE]
    listed = ", ".join(f"{name} {rate:.3f}" for name, rate in rates.items())
    summary = f"scale delivery: {listed} (floor {MIN_DELIVERY_RATE})"
    if low:
        return False, f"{summary} | below the floor: {', '.join(low)}"
    return True, summary


def _scale_line(
    label: str, b: float, c: float, max_regression: float
) -> tuple[bool, str]:
    change = c / b - 1.0
    summary = (
        f"scale n1000 [{label}]: baseline {b:.4g}, candidate {c:.4g} "
        f"({change:+.1%}; limit +{max_regression:.0%})"
    )
    return change <= max_regression, summary


def check_traffic(
    baseline: dict, candidate: dict, max_regression: float
) -> tuple[bool, str]:
    """Gate the closed-loop traffic point from ``bench_traffic_adaptive.py``.

    Every number in the ``traffic`` section is produced by seeded runs,
    so this gate checks the *closed-loop invariants* on exact values
    rather than wall time: backoff events fired, adaptive offered load
    sits below CBR's, and adaptive goodput stays within 10 % of the CBR
    baseline.  When the baseline report has a duration-matched point,
    the goodput ratio is additionally not allowed to drop by more than
    ``max_regression`` relative to it.  Reports that predate the traffic
    harness skip this gate instead of failing it.
    """
    cand_section = candidate.get("traffic") or {}
    cand = cand_section.get("quick_point") or cand_section.get("full_point")
    if cand is None:
        return True, "traffic: skipped (section missing from candidate)"
    ratio = cand["goodput_ratio"]
    problems = []
    if cand["adaptive"]["backoff_events"] <= 0:
        problems.append("no backoff events (feedback loop inert)")
    if cand["adaptive"]["offered_load_pps"] >= cand["cbr"]["offered_load_pps"]:
        problems.append("adaptive offered load not below CBR")
    if ratio < 0.9:
        problems.append(f"goodput ratio {ratio:.3f} < 0.9")
    base_section = baseline.get("traffic") or {}
    rel = ""
    for key in ("quick_point", "full_point"):
        base = base_section.get(key)
        if base and base.get("sim_duration_s") == cand.get("sim_duration_s"):
            change = ratio / base["goodput_ratio"] - 1.0
            rel = f", vs {key} {change:+.1%}"
            if change < -max_regression:
                problems.append(
                    f"ratio fell {-change:.1%} vs baseline {key} "
                    f"(limit {max_regression:.0%})"
                )
            break
    summary = (
        f"traffic: goodput ratio {ratio:.3f}, "
        f"{cand['adaptive']['backoff_events']} backoffs, offered "
        f"{cand['cbr']['offered_load_pps']:.1f} -> "
        f"{cand['adaptive']['offered_load_pps']:.1f} pps{rel}"
    )
    if problems:
        return False, summary + " | " + "; ".join(problems)
    return True, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--candidate", type=Path, required=True)
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="tolerated fractional slowdown (default 0.25)",
    )
    args = parser.parse_args(argv)
    baseline = json.loads(args.baseline.read_text())
    candidate = json.loads(args.candidate.read_text())
    failed = False
    for gate in (check, check_scale, check_traffic):
        ok, summary = gate(baseline, candidate, args.max_regression)
        print(summary)
        if not ok:
            failed = True
    if failed:
        print("FAIL: regression beyond the limit", file=sys.stderr)
        return 1
    print("OK")
    return 0


def _report(mean_s: float, events: int, duration: float = 60.0, **extra) -> dict:
    timings = {
        "alert_run": {
            "mean_s": mean_s,
            "events_processed": events,
            "sim_duration_s": duration,
        }
    }
    timings.update(extra)
    return {"timings": timings}


def test_gate_passes_within_limit():
    ok, summary = check(
        _report(1.0, 1000, 10.0), _report(1.17, 1000, 10.0), 0.25
    )
    assert ok and "+17.0%" in summary


def test_gate_fails_beyond_limit():
    ok, _ = check(_report(1.0, 1000, 10.0), _report(1.5, 1000, 10.0), 0.25)
    assert not ok


def test_gate_prefers_duration_matched_quick_section():
    # Full baseline with a quick section: candidate at 10 s must be
    # compared against alert_run_quick, not the 60 s run's per-event
    # cost (setup amortisation differs across durations).
    base = _report(
        1.8,
        41000,
        60.0,
        alert_run_quick={
            "mean_s": 0.30,
            "events_processed": 6800,
            "sim_duration_s": 10.0,
        },
    )
    ok, summary = check(base, _report(0.33, 6800, 10.0), 0.25)
    assert ok and "alert_run_quick" in summary
    ok, _ = check(base, _report(0.50, 6800, 10.0), 0.25)
    assert not ok


def test_gate_falls_back_to_per_event_cost():
    # No duration-matched section in the baseline: per-event fallback.
    ok, summary = check(_report(1.8, 41000, 60.0), _report(0.3, 6833, 10.0), 0.25)
    assert ok and "per-event" in summary


def _scale_report(loop_s: float, events: int = 50000, duration: float = 10.0) -> dict:
    report = _report(1.0, 1000, 10.0)
    report["scale"] = {
        "n1000": {
            "loop_mean_s": loop_s,
            "events_processed": events,
            "sim_duration_s": duration,
            "us_per_event": loop_s / events * 1e6,
        }
    }
    return report


def test_scale_gate_compares_loop_means():
    ok, summary = check_scale(_scale_report(5.0), _scale_report(5.8), 0.25)
    assert ok and "loop_mean_s" in summary
    ok, _ = check_scale(_scale_report(5.0), _scale_report(7.0), 0.25)
    assert not ok


def test_scale_gate_prefers_loop_min():
    # When both reports carry loop_min_s, the gate compares minima and
    # ignores the (noisier) means entirely.
    base = _scale_report(5.0)
    base["scale"]["n1000"]["loop_min_s"] = 4.0
    cand = _scale_report(9.0)  # mean alone would fail the gate
    cand["scale"]["n1000"]["loop_min_s"] = 4.5
    ok, summary = check_scale(base, cand, 0.25)
    assert ok and "loop_min_s" in summary
    cand["scale"]["n1000"]["loop_min_s"] = 6.0
    ok, _ = check_scale(base, cand, 0.25)
    assert not ok


def test_scale_gate_mean_fallback_on_one_sided_min():
    # Older baseline without loop_min_s: fall back to means even though
    # the candidate records a minimum.
    cand = _scale_report(5.8)
    cand["scale"]["n1000"]["loop_min_s"] = 5.5
    ok, summary = check_scale(_scale_report(5.0), cand, 0.25)
    assert ok and "loop_mean_s" in summary


def test_scale_gate_checks_setup_min():
    # Loop unchanged; setup alone decides, against the same limit.
    base = _scale_report(5.0)
    base["scale"]["n1000"]["setup_min_s"] = 0.40
    cand = _scale_report(5.0)
    cand["scale"]["n1000"]["setup_min_s"] = 0.45
    ok, summary = check_scale(base, cand, 0.25)
    assert ok and "setup_min_s]: baseline 0.4, candidate 0.45" in summary
    cand["scale"]["n1000"]["setup_min_s"] = 0.60
    ok, _ = check_scale(base, cand, 0.25)
    assert not ok


def test_scale_gate_setup_does_not_mask_loop_regression():
    base = _scale_report(5.0)
    base["scale"]["n1000"]["setup_min_s"] = 0.40
    cand = _scale_report(7.0)
    cand["scale"]["n1000"]["setup_min_s"] = 0.10
    ok, _ = check_scale(base, cand, 0.25)
    assert not ok


def test_scale_gate_skips_setup_when_one_side_lacks_it():
    # An older baseline without setup_min_s: only the loop is gated.
    cand = _scale_report(5.0)
    cand["scale"]["n1000"]["setup_min_s"] = 9.0
    ok, summary = check_scale(_scale_report(5.0), cand, 0.25)
    assert ok and "setup_min_s]: skipped" in summary
    base = _scale_report(5.0)
    base["scale"]["n1000"]["setup_min_s"] = 0.40
    ok, summary = check_scale(base, _scale_report(5.0), 0.25)
    assert ok and "setup_min_s]: skipped" in summary


def test_main_fails_on_scale_setup_regression(tmp_path):
    base_report, cand_report = _scale_report(5.0), _scale_report(5.0)
    base_report["scale"]["n1000"]["setup_min_s"] = 0.40
    cand_report["scale"]["n1000"]["setup_min_s"] = 0.80
    base = tmp_path / "base.json"
    cand = tmp_path / "cand.json"
    base.write_text(json.dumps(base_report))
    cand.write_text(json.dumps(cand_report))
    rc = main(["--baseline", str(base), "--candidate", str(cand)])
    assert rc == 1


def test_scale_gate_falls_back_on_duration_mismatch():
    base = _scale_report(30.0, events=300000, duration=60.0)
    cand = _scale_report(5.2, events=50000, duration=10.0)
    ok, summary = check_scale(base, cand, 0.25)
    assert ok and "duration mismatch" in summary


def test_scale_gate_fails_a_point_below_delivery_floor():
    base, cand = _scale_report(5.0), _scale_report(5.0)
    cand["scale"]["n1000"]["delivery_rate"] = 0.988
    ok, summary = check_scale(base, cand, 0.25)
    assert ok and "n1000 0.988 (floor 0.95)" in summary
    cand["scale"]["n2000"] = {"delivery_rate": 0.64}
    ok, summary = check_scale(base, cand, 0.25)
    assert not ok and "below the floor: n2000" in summary


def test_scale_gate_fails_nan_delivery():
    cand = _scale_report(5.0)
    cand["scale"]["n1000"]["delivery_rate"] = float("nan")
    ok, _ = check_scale(_scale_report(5.0), cand, 0.25)
    assert not ok


def test_scale_delivery_gate_runs_without_baseline_section():
    # Timing comparison skipped (old baseline), delivery still gated.
    cand = _scale_report(5.0)
    cand["scale"]["n1000"]["delivery_rate"] = 0.79
    ok, summary = check_scale(_report(1.0, 1000, 10.0), cand, 0.25)
    assert not ok and "skipped" in summary and "below the floor" in summary


def test_scale_delivery_gate_skips_points_without_the_field():
    ok, summary = check_scale(_scale_report(5.0), _scale_report(5.0), 0.25)
    assert ok and "scale delivery: skipped" in summary


def test_main_fails_on_scale_delivery(tmp_path):
    cand_report = _scale_report(5.0)
    cand_report["scale"]["n1000"]["delivery_rate"] = 0.5
    base = tmp_path / "base.json"
    cand = tmp_path / "cand.json"
    base.write_text(json.dumps(_scale_report(5.0)))
    cand.write_text(json.dumps(cand_report))
    rc = main(["--baseline", str(base), "--candidate", str(cand)])
    assert rc == 1


def test_scale_gate_skips_when_section_missing():
    ok, summary = check_scale(
        _report(1.0, 1000, 10.0), _scale_report(5.0), 0.25
    )
    assert ok and "skipped" in summary


def test_main_fails_on_scale_regression(tmp_path):
    base = tmp_path / "base.json"
    cand = tmp_path / "cand.json"
    base.write_text(json.dumps(_scale_report(5.0)))
    cand.write_text(json.dumps(_scale_report(9.0)))  # alert_run unchanged
    rc = main(["--baseline", str(base), "--candidate", str(cand)])
    assert rc == 1


def _traffic_report(
    ratio: float,
    backoffs: int = 1500,
    offered: tuple[float, float] = (455.0, 420.0),
    duration: float = 12.0,
    point: str = "quick_point",
) -> dict:
    report = _report(1.0, 1000, 10.0)
    cbr_off, ad_off = offered
    report["traffic"] = {
        point: {
            "sim_duration_s": duration,
            "goodput_ratio": ratio,
            "cbr": {"offered_load_pps": cbr_off, "goodput_pps": 380.0},
            "adaptive": {
                "offered_load_pps": ad_off,
                "goodput_pps": 380.0 * ratio,
                "backoff_events": backoffs,
            },
        }
    }
    return report


def test_traffic_gate_passes_on_healthy_point():
    ok, summary = check_traffic(
        _traffic_report(0.95), _traffic_report(0.93), 0.25
    )
    assert ok and "goodput ratio 0.930" in summary and "quick_point" in summary


def test_traffic_gate_fails_below_absolute_floor():
    ok, summary = check_traffic(
        _traffic_report(0.95), _traffic_report(0.85), 0.25
    )
    assert not ok and "< 0.9" in summary


def test_traffic_gate_fails_without_backoffs():
    ok, summary = check_traffic(
        _traffic_report(0.95), _traffic_report(0.95, backoffs=0), 0.25
    )
    assert not ok and "inert" in summary


def test_traffic_gate_fails_when_load_not_cut():
    ok, summary = check_traffic(
        _traffic_report(0.95),
        _traffic_report(0.95, offered=(455.0, 455.0)),
        0.25,
    )
    assert not ok and "not below CBR" in summary


def test_traffic_gate_skips_without_candidate_section():
    ok, summary = check_traffic(
        _traffic_report(0.95), _report(1.0, 1000, 10.0), 0.25
    )
    assert ok and "skipped" in summary


def test_traffic_gate_ignores_duration_mismatched_baseline():
    # Baseline point at a different simulated duration: absolute checks
    # only, no relative comparison in the summary.
    base = _traffic_report(0.99, duration=30.0)
    ok, summary = check_traffic(base, _traffic_report(0.92), 0.25)
    assert ok and "vs quick_point" not in summary


def test_main_fails_on_traffic_violation(tmp_path):
    base = tmp_path / "base.json"
    cand = tmp_path / "cand.json"
    base.write_text(json.dumps(_traffic_report(0.95)))
    cand.write_text(json.dumps(_traffic_report(0.95, backoffs=0)))
    rc = main(["--baseline", str(base), "--candidate", str(cand)])
    assert rc == 1


def test_gate_main_roundtrip(tmp_path):
    base = tmp_path / "base.json"
    cand = tmp_path / "cand.json"
    base.write_text(json.dumps(_report(1.0, 1000, 10.0)))
    cand.write_text(json.dumps(_report(2.0, 1000, 10.0)))
    rc = main(["--baseline", str(base), "--candidate", str(cand)])
    assert rc == 1
    cand.write_text(json.dumps(_report(1.0, 1000, 10.0)))
    rc = main(["--baseline", str(base), "--candidate", str(cand)])
    assert rc == 0


if __name__ == "__main__":
    raise SystemExit(main())

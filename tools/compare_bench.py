#!/usr/bin/env python3
"""Bench gate over wcds-bench/v1 JSON reports.

This is the only code that judges a bench report.  It compares each freshly
produced report with its committed baseline (bench/baselines/) and FAILS —
exit code 1 — on a malformed report, a pinned gauge off its pin, or a timing
regression beyond the tolerance.  ``tools/run_checks.sh perf-gate`` runs it
over every bench in that script's list, and CI's perf-gate job runs that
stage.

What is judged (everything else in the reports is ignored):

  * Well-formedness.  Both reports must be ``wcds-bench/v1`` documents:
    a non-empty ``bench`` name, sections whose tables all have headers and
    rows, ``counters``/``gauges``/``histograms`` objects with complete
    histograms (count, min, max, mean, p50, p95), and at least one timing
    metric or pinned gauge for the gate to act on.  The fresh report may
    not leave empty a metric kind that the baseline has.

  * Pinned gauges (PINNED_GAUGES, keyed by gauge-name prefix; each prefix
    belongs to one bench).  Message counts, deliverability, identity and
    zero-violation flags are functions of the seeds alone, so they are
    compared exactly on any host.  A family is pinned either to BASELINE
    (each value equals the committed baseline's) or to a constant.  The
    committed baselines carry every pinned gauge, so the baseline names
    the cells a fresh report must have.  The gate fails when a pinned value
    differs from its pin, when a pinned name of the baseline is missing
    from the fresh report (a dropped cell or family), or when a
    BASELINE-pinned name is new in the fresh report (there is nothing to
    compare it with).  The two reports must also name the same bench.

  * Timing metrics: gauges whose name matches a timing prefix
    (``a5/flat_ms/``, ``a6/recovery_ms/`` ... — see TIMING_GAUGE_PREFIXES)
    and the ``p50`` of every ``phase_ms/*`` histogram.  A fresh value
    regresses when  fresh > baseline * (1 + tolerance)  and the absolute
    slowdown exceeds ``--min-abs-ms`` (sub-millisecond phases jitter by
    multiples of themselves on shared CI runners).  A timing metric of the
    fresh report that the baseline lacks fails: it would otherwise go
    ungated until the next refresh.  One the fresh report lacks is only
    noted, so retiring a bench config needs no lockstep baseline edit.

  * Speedups: gauges whose name matches a speedup prefix (``a5/speedup/``,
    sim::Runtime against the test-only map-queue oracle timed on the same
    host in the same run — see SPEEDUP_GAUGE_PREFIXES).  Higher is better:
    a fresh value regresses when  fresh < baseline / (1 + tolerance),  the
    same relative slowdown the timing rule allows.  A ratio of two runs on
    one host is what the gate can judge on any host; the oracle's own
    milliseconds are not gated, since no change to the program moves them.
    Missing and new names are treated as for timing metrics.

``--refresh-baselines`` flips the tool from gate to maintenance mode: each
fresh report is copied over its baseline path verbatim (the full report, so
future comparisons see exactly what a rerun would produce).  A report that
is malformed, has neither timing metrics nor pinned gauges (it would disarm
the gate silently) or has a gauge off its constant pin is refused.

Usage:
  compare_bench.py --pair baseline.json fresh.json [--pair ...]
                   [--tolerance 0.25] [--min-abs-ms 1.0]
                   [--refresh-baselines]
  compare_bench.py --selftest
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import sys
import tempfile
from typing import Dict, List, Tuple

SCHEMA = "wcds-bench/v1"
HISTOGRAM_KEYS = {"count", "min", "max", "mean", "p50", "p95"}
METRIC_KINDS = ("counters", "gauges", "histograms")

TIMING_GAUGE_PREFIXES = (
    "a5/flat_ms/",
    "a6/recovery_ms/",
    "a6/crash_repair_ms/",
    "a6/recover_repair_ms/",
    "a7/serve_ms/",
    "a8/global_ms/",
    "a8/sharded_ms/",
    "a9/build_ms/",
)
PHASE_HISTOGRAM_PREFIX = "phase_ms/"
SPEEDUP_GAUGE_PREFIXES = ("a5/speedup/",)

BASELINE = "baseline"
PINNED_GAUGES: Dict[str, object] = {
    # A5: sim::Runtime equals the map-queue oracle in every (alg, delays, n)
    # cell.
    "a5/identical/": 1.0,
    # A6: Theorem 12's message bound, measured on the hardened transport,
    # and MIS-maintenance recovery under loss.
    "a6/msgs/": BASELINE,
    "a6/retransmits/": BASELINE,
    "a6/completion_time/": BASELINE,
    "a6/recovery_msgs/": BASELINE,
    "a6b/recovered/": 1.0,
    # A7: serve outcomes are pure functions of (request, index) at any
    # thread count.
    "a7/deliverability/": BASELINE,
    "a7/identical/": 1.0,
    # A8: sharded runs at 2/4/8 threads equal the serial run.
    "a8/identical/": 1.0,
    # A9: (k,m)-resilient backbones survive every crash with zero repair.
    "a9/survived/": 1.0,
    "a9/resilient_repair_events/": 0.0,
    "a9/plain_repair_events/": BASELINE,
    # T6: Section 4.2 maintenance is audit-clean after every event and step,
    # and the MIS is valid after every maintenance-protocol update.
    "t6/violations/": 0.0,
    "t6b/violations/": 0.0,
    "t6c/valid/": 1.0,
    # T6: the DynamicWcds event totals (events, demotions, promotions,
    # bridge entries touched) are functions of the seeds, so a change to
    # repair or bridge choices moves them.
    "t6/maintenance/": BASELINE,
}


def timing_metrics(report: dict) -> Dict[str, float]:
    """Extract the comparable name -> milliseconds map from one report."""
    metrics = report.get("metrics", {})
    out: Dict[str, float] = {}
    for name, value in metrics.get("gauges", {}).items():
        if name.startswith(TIMING_GAUGE_PREFIXES):
            out[name] = float(value)
    for name, hist in metrics.get("histograms", {}).items():
        if name.startswith(PHASE_HISTOGRAM_PREFIX) and "p50" in hist:
            out[name + "#p50"] = float(hist["p50"])
    return out


def speedup_metrics(report: dict) -> Dict[str, float]:
    """Extract the comparable name -> speedup map from one report."""
    gauges = report.get("metrics", {}).get("gauges", {})
    return {name: float(value) for name, value in gauges.items()
            if name.startswith(SPEEDUP_GAUGE_PREFIXES)}


def pin_of(name: str) -> object:
    """The pin of gauge `name`, or None when it is not pinned."""
    for prefix, pin in PINNED_GAUGES.items():
        if name.startswith(prefix):
            return pin
    return None


def pinned_gauges(report: dict) -> Dict[str, float]:
    """name -> value for every pinned gauge of the report."""
    return {name: float(value)
            for name, value in report["metrics"]["gauges"].items()
            if pin_of(name) is not None}


def malformed(report: dict) -> List[str]:
    """Why `report` is not a well-formed wcds-bench/v1 document (or [])."""
    if report.get("schema") != SCHEMA:
        return [f"not a {SCHEMA} document"]
    problems: List[str] = []
    if not report.get("bench"):
        problems.append("empty bench name")
    sections = report.get("sections") or []
    if not sections or not all(
        section.get("tables")
        and all(t.get("headers") and t.get("rows") for t in section["tables"])
        for section in sections
    ):
        problems.append("no sections, or a section without tables, or a "
                        "table without headers or rows")
    metrics = report.get("metrics") or {}
    if not all(isinstance(metrics.get(kind), dict) for kind in METRIC_KINDS):
        return problems + ["metrics lack counters, gauges or histograms"]
    for kind in ("counters", "gauges"):
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in metrics[kind].values()):
            problems.append(f"a non-numeric value among the {kind}")
    for name, hist in metrics["histograms"].items():
        if not HISTOGRAM_KEYS <= hist.keys():
            problems.append(f"histogram {name} lacks one of "
                            f"{', '.join(sorted(HISTOGRAM_KEYS))}")
    if not (problems or timing_metrics(report) or speedup_metrics(report)
            or pinned_gauges(report)):
        problems.append("neither timing metrics, speedups nor pinned gauges")
    return problems


def check_pins(baseline: dict, fresh: dict) -> Tuple[List[str], int]:
    """Returns (failures, pinned gauges that equal their pin)."""
    failures: List[str] = []
    matched = 0
    base_values = pinned_gauges(baseline)
    fresh_values = pinned_gauges(fresh)
    for name in sorted(set(base_values) - set(fresh_values)):
        failures.append(f"PINNED {name}: in the baseline only")
    for name, value in sorted(fresh_values.items()):
        pin = pin_of(name)
        if pin == BASELINE and name not in base_values:
            failures.append(f"PINNED {name}: in the fresh report only")
            continue
        want = base_values[name] if pin == BASELINE else float(pin)
        if value == want:
            matched += 1
        else:
            failures.append(f"PINNED {name}: {value:g}, pinned to {want:g}")
    return failures, matched


def compare(
    baseline: Dict[str, float],
    fresh: Dict[str, float],
    tolerance: float,
    min_abs_ms: float,
    speedups: bool = False,
) -> Tuple[List[str], List[str]]:
    """Returns (failures, notes); the gate fails iff failures.

    Values are milliseconds, or speedups (higher is better) when `speedups`.
    """
    regressions: List[str] = []
    notes: List[str] = []
    for name in sorted(set(baseline) | set(fresh)):
        if name not in baseline:
            regressions.append(f"UNGATED {name}: timing metric without a "
                               f"baseline value")
            continue
        if name not in fresh:
            notes.append(f"baseline metric missing from fresh run: {name}")
            continue
        base, new = baseline[name], fresh[name]
        if speedups:
            floor = base / (1.0 + tolerance)
            if new < floor:
                regressions.append(
                    f"REGRESSION {name}: speedup {base:.2f}x -> {new:.2f}x "
                    f"(floor {floor:.2f}x)")
            continue
        limit = base * (1.0 + tolerance)
        if new > limit and (new - base) > min_abs_ms:
            ratio = new / base if base > 0 else float("inf")
            regressions.append(
                f"REGRESSION {name}: {base:.3f} ms -> {new:.3f} ms "
                f"({ratio:.2f}x, limit {limit:.3f} ms)"
            )
    return regressions, notes


def judge(
    baseline_report: dict,
    fresh_report: dict,
    tolerance: float,
    min_abs_ms: float,
) -> Tuple[List[str], List[str], int, int]:
    """Returns (failures, notes, timing metrics compared, pins matched)."""
    failures = [f"MALFORMED baseline: {p}" for p in malformed(baseline_report)]
    failures += [f"MALFORMED fresh report: {p}"
                 for p in malformed(fresh_report)]
    if failures:
        return failures, [], 0, 0
    if fresh_report["bench"] != baseline_report["bench"]:
        failures.append(f"MALFORMED fresh report: bench "
                        f"{fresh_report['bench']}, the baseline's is "
                        f"{baseline_report['bench']}")
    for kind in METRIC_KINDS:
        if baseline_report["metrics"][kind] and not fresh_report["metrics"][kind]:
            failures.append(f"MALFORMED fresh report: no {kind}, which the "
                            f"baseline has")
    pin_failures, matched = check_pins(baseline_report, fresh_report)
    regressions: List[str] = []
    notes: List[str] = []
    compared = 0
    for extract, speedups in ((timing_metrics, False),
                              (speedup_metrics, True)):
        baseline, fresh = extract(baseline_report), extract(fresh_report)
        found, noted = compare(baseline, fresh, tolerance, min_abs_ms,
                               speedups)
        regressions += found
        notes += noted
        compared += len(set(baseline) & set(fresh))
    return failures + pin_failures + regressions, notes, compared, matched


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_pair(
    baseline_path: str, fresh_path: str, tolerance: float, min_abs_ms: float
) -> int:
    failures, notes, compared, matched = judge(
        load(baseline_path), load(fresh_path), tolerance, min_abs_ms)
    label = f"{baseline_path} vs {fresh_path}"
    for note in notes:
        print(f"  note: {note}")
    for failure in failures:
        print(f"  {failure}")
    if failures:
        print(f"FAIL {label}: {len(failures)} failure(s); {compared} timing "
              f"or speedup metric(s) compared, {matched} pinned gauge(s) on "
              f"their pins")
        return 1
    print(f"OK {label}: {compared} timing or speedup metric(s) within "
          f"{tolerance * 100:.0f}% of baseline, {matched} pinned gauge(s) "
          f"on their pins")
    return 0


def refresh_baseline(baseline_path: str, fresh_path: str) -> int:
    """Copies the fresh report over the baseline after validating it.

    Overwriting a baseline with a malformed or empty report would disarm
    the gate silently, and one whose gauges break a constant pin would
    commit the fault, so such reports are refused.
    """
    fresh_report = load(fresh_path)
    problems = malformed(fresh_report) or check_pins(fresh_report,
                                                     fresh_report)[0]
    if problems:
        print(f"refusing to refresh {baseline_path} from {fresh_path}: "
              f"{'; '.join(problems)}")
        return 1
    shutil.copyfile(fresh_path, baseline_path)
    pinned = len(pinned_gauges(fresh_report))
    print(f"refreshed {baseline_path} from {fresh_path} "
          f"({len(timing_metrics(fresh_report))} timing metric(s), "
          f"{pinned} pinned gauge(s))")
    return 0


def selftest() -> int:
    """Unit-test the gate logic, including the synthetic-2x-slowdown case."""

    def report(bench: str, gauges: dict, histograms: dict = None) -> dict:
        return {
            "schema": SCHEMA,
            "bench": bench,
            "sections": [{"title": "", "tables": [
                {"headers": ["n"], "rows": [["1"]]}], "notes": []}],
            "metrics": {
                "counters": {},
                "gauges": gauges,
                "histograms": {
                    name: {"count": 8, "min": p50, "max": p50, "mean": p50,
                           "p50": p50, "p95": p50}
                    for name, p50 in (histograms or {}).items()
                },
            },
        }

    base = report(
        "bench_a5_runtime",
        {
            "a5/flat_ms/alg1_sync_n512": 10.0,
            "a5/speedup/alg1_sync_n512": 2.0,  # a speedup, not a timing
            "a5/identical/alg1_sync_n512": 1.0,
        },
        {"phase_ms/build/total": 40.0, "build/nodes": 512.0},  # not phase_ms
    )

    def fresh_with(gauge_ms: float, phase_p50: float) -> dict:
        return report(
            "bench_a5_runtime",
            {"a5/flat_ms/alg1_sync_n512": gauge_ms,
             "a5/identical/alg1_sync_n512": 1.0},
            {"phase_ms/build/total": phase_p50},
        )

    cases: List[Tuple[str, bool]] = []

    def check(name: str, condition: bool) -> None:
        cases.append((name, condition))

    tol, floor = 0.25, 1.0

    def verdict(baseline: dict, fresh: dict) -> List[str]:
        return judge(baseline, fresh, tol, floor)[0]

    # A 2x slowdown on either channel must fail the gate.
    regressions, _ = compare(
        timing_metrics(base), timing_metrics(fresh_with(20.0, 40.0)), tol, floor
    )
    check("gauge 2x slowdown detected", len(regressions) == 1)
    regressions, _ = compare(
        timing_metrics(base), timing_metrics(fresh_with(10.0, 80.0)), tol, floor
    )
    check("phase p50 2x slowdown detected", len(regressions) == 1)

    # Identical and within-tolerance runs pass.
    check("identical run passes", not verdict(base, fresh_with(10.0, 40.0)))
    check("within-tolerance run passes",
          not verdict(base, fresh_with(12.4, 49.9)))

    # Just over tolerance fails; the absolute floor forgives micro-jitter.
    check("over-tolerance gauge fails",
          len(verdict(base, fresh_with(12.6, 40.0))) == 1)
    tiny_base = report("bench_a5_runtime", {"a5/flat_ms/tiny": 0.01,
                                            "a5/identical/tiny": 1.0})
    tiny_fresh = report("bench_a5_runtime", {"a5/flat_ms/tiny": 0.05,
                                             "a5/identical/tiny": 1.0})
    check("sub-ms jitter forgiven by absolute floor",
          not verdict(tiny_base, tiny_fresh))

    # Non-timing metrics never participate.  A timing metric the fresh
    # report lacks is a note; one the baseline lacks fails.
    check(
        "non-timing metrics excluded",
        set(timing_metrics(base))
        == {"a5/flat_ms/alg1_sync_n512", "phase_ms/build/total#p50"},
    )
    regressions, notes = compare(
        timing_metrics(base),
        timing_metrics(report("bench_a5_runtime",
                              {"a5/flat_ms/brand_new": 5.0})),
        tol, floor)
    check("disjoint metric sets: baseline-only noted, fresh-only fails",
          regressions == ["UNGATED a5/flat_ms/brand_new: timing metric "
                          "without a baseline value"] and len(notes) == 2)
    new_phase = fresh_with(10.0, 40.0)
    new_phase["metrics"]["histograms"]["phase_ms/sim/shard_run"] = dict(
        new_phase["metrics"]["histograms"]["phase_ms/build/total"])
    check("a fresh phase histogram the baseline lacks fails",
          verdict(base, new_phase) == [
              "UNGATED phase_ms/sim/shard_run#p50: timing metric without a "
              "baseline value"])

    # Speedups are higher-is-better ratios under the same tolerance; the
    # oracle's milliseconds (a5/map_ms/) are not gated at all.
    def speedup_run(speedup: float, map_ms: float) -> dict:
        return report("bench_a5_runtime", {
            "a5/map_ms/alg1_sync_n512": map_ms,
            "a5/speedup/alg1_sync_n512": speedup,
            "a5/identical/alg1_sync_n512": 1.0,
        })

    check("a speedup within the tolerance passes",
          not verdict(speedup_run(2.0, 20.0), speedup_run(1.61, 20.0)))
    check("a speedup drop past the tolerance fails",
          verdict(speedup_run(2.0, 20.0), speedup_run(1.59, 20.0)) == [
              "REGRESSION a5/speedup/alg1_sync_n512: speedup 2.00x -> "
              "1.59x (floor 1.60x)"])
    check("a change in map_ms alone passes",
          not verdict(speedup_run(2.0, 20.0), speedup_run(2.0, 60.0)))
    check("a speedup the baseline lacks fails",
          len(verdict(fresh_with(10.0, 40.0), base)) == 1)

    # Pinned gauges are compared exactly, against the baseline or a constant.
    counts = report("bench_a6_faults", {
        "a6/msgs/alg2_drop10": 10445.0,
        "a6/retransmits/alg2_drop10": 560.0,
        "a6/completion_time/alg2_drop10": 252.0,
        "a6/recovery_msgs/drop10": 30.0,
        "a6b/recovered/drop10": 1.0,
    })
    failed, _, _, matched = judge(counts, copy.deepcopy(counts), tol, floor)
    check("equal pins pass and are counted", not failed and matched == 5)
    off_by_one = copy.deepcopy(counts)
    off_by_one["metrics"]["gauges"]["a6/msgs/alg2_drop10"] = 10446.0
    check("a count pin off by one fails",
          len(verdict(counts, off_by_one)) == 1)
    diverged = fresh_with(10.0, 40.0)
    diverged["metrics"]["gauges"]["a5/identical/alg1_sync_n512"] = 0.0
    check("an identity gauge reading 0 fails",
          len(verdict(base, diverged)) == 1)
    no_family = copy.deepcopy(counts)
    del no_family["metrics"]["gauges"]["a6b/recovered/drop10"]
    check("a pinned family missing from the fresh report fails",
          verdict(counts, no_family) == [
              "PINNED a6b/recovered/drop10: in the baseline only"])
    renamed = dict(copy.deepcopy(counts), bench="bench_a6_renamed")
    check("a report of another bench than the baseline's fails",
          len(verdict(counts, renamed)) == 1)
    one_sided = copy.deepcopy(counts)
    one_sided["metrics"]["gauges"]["a6/msgs/alg2_drop20"] = 12533.0
    check("a baseline-pinned name in the fresh report only fails",
          len(verdict(counts, one_sided)) == 1)
    check("a baseline-pinned name in the baseline only fails",
          len(verdict(one_sided, counts)) == 1)
    maintenance = report("bench_t6_maintenance", {
        "t6/violations/n200_r0.25": 0.0,
        "t6/maintenance/events": 7732.0,
        "t6/maintenance/bridges_changed": 395245.0,
    })
    check("equal T6 maintenance totals pass",
          not verdict(maintenance, copy.deepcopy(maintenance)))
    moved = copy.deepcopy(maintenance)
    moved["metrics"]["gauges"]["t6/maintenance/bridges_changed"] = 395246.0
    check("a moved T6 maintenance total fails",
          verdict(maintenance, moved) == [
              "PINNED t6/maintenance/bridges_changed: 395246, pinned to "
              "395245"])

    # Both reports must be well-formed wcds-bench/v1 documents.
    wrong_schema = dict(fresh_with(10.0, 40.0), schema="wcds-bench/v0")
    check("a non-wcds-bench/v1 report is refused",
          verdict(base, wrong_schema) == [
              "MALFORMED fresh report: not a wcds-bench/v1 document"])
    with_counters = copy.deepcopy(base)
    with_counters["metrics"]["counters"]["sim/transmissions"] = 489
    textual = fresh_with(10.0, 40.0)
    textual["metrics"]["gauges"]["a5/flat_ms/alg1_sync_n512"] = "10.0"
    check("a non-numeric gauge is refused",
          verdict(base, textual) == [
              "MALFORMED fresh report: a non-numeric value among the gauges"])
    check("a metric kind the baseline has may not be empty",
          len(verdict(with_counters, fresh_with(10.0, 40.0))) == 1)

    # --refresh-baselines copies the fresh report verbatim and refuses
    # reports the gate could not act on.
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "baseline.json")
        fresh_path = os.path.join(tmp, "fresh.json")

        def write(path: str, doc: dict) -> None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)

        write(base_path, base)
        write(fresh_path, fresh_with(20.0, 40.0))
        check("refresh succeeds", refresh_baseline(base_path, fresh_path) == 0)
        check("refresh copies the fresh report verbatim",
              load(base_path) == fresh_with(20.0, 40.0))
        refused = os.path.join(tmp, "refused.json")
        write(refused, report("bench_a5_runtime", {"a5/map_ms/x": 2.0}))
        check("refresh refuses a report with neither timing nor pinned gauges",
              refresh_baseline(base_path, refused) == 1)
        write(refused, {"metrics": {}})
        check("refresh refuses a malformed report",
              refresh_baseline(base_path, refused) == 1)
        write(refused, diverged)
        check("refresh refuses a report that breaks a constant pin",
              refresh_baseline(base_path, refused) == 1)
        check("refused refreshes leave the baseline untouched",
              load(base_path) == fresh_with(20.0, 40.0))

    failures = [name for name, ok in cases if not ok]
    for failure in failures:
        print(f"selftest FAILED: {failure}")
    if not failures:
        print(f"selftest OK: {len(cases)} cases")
    return 1 if failures else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pair",
        nargs=2,
        action="append",
        metavar=("BASELINE", "FRESH"),
        default=[],
        help="baseline and fresh report to compare (repeatable)",
    )
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative slowdown (default 0.25)")
    parser.add_argument("--min-abs-ms", type=float, default=1.0,
                        help="ignore slowdowns smaller than this many ms")
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in unit tests and exit")
    parser.add_argument("--refresh-baselines", action="store_true",
                        help="copy each fresh report over its baseline "
                             "instead of comparing (maintenance mode)")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest()
    if not args.pair:
        parser.error("provide at least one --pair (or --selftest)")
    status = 0
    for baseline_path, fresh_path in args.pair:
        if args.refresh_baselines:
            status |= refresh_baseline(baseline_path, fresh_path)
        else:
            status |= run_pair(baseline_path, fresh_path, args.tolerance,
                               args.min_abs_ms)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""CI throughput gate.

Compares the aggregate MIPS of a bench report (BENCH_<name>.json)
against the committed reference in bench/BASELINE.json and fails on
a large regression. CI machines are slower and noisier than the
reference container, so the tolerance is deliberately generous: the
gate only trips when throughput drops by the --tolerance factor
(default 2x) — it catches "someone reintroduced a heap allocation
per instruction", not 5% jitter.

Usage:
    perf_gate.py <BENCH_report.json> [--baseline bench/BASELINE.json]
                 [--tolerance 2.0]

A report produced with --jobs N > 1 measures the sharded engine's
aggregate throughput, which is not comparable to the single-thread
reference. Such reports are gated against the baseline entry's
optional "parallel" sub-entry instead:

    {"fig5_miss_rates": {"jobs": 1, "mips": 14.5, "mips_floor": 7.0,
        "parallel": {"jobs": 4, "mips": 40.0, "mips_floor": 20.0}}}

A parallel report with no "parallel" sub-entry, or one recorded at a
different job count, is skipped with a warning (exit 0): gating 4-job
throughput against a 8-job reference would be meaningless.

A report whose top-level "sampled" flag is true (any row used
SMARTS-style sampled simulation) mixes fast-forward and detailed
instructions, so its MIPS is not comparable to either detailed
reference. Such reports are gated only against the baseline entry's
optional "sampled" sub-entry, keyed on job count like "parallel":

    {"fig5_miss_rates": {"jobs": 1, "mips": 14.5,
        "sampled": {"jobs": 1, "mips": 45.0, "mips_floor": 20.0}}}

The sampled check runs before the jobs branching, so a sampled
report never gates against a detailed baseline (and vice versa); a
missing or job-mismatched "sampled" sub-entry skips with a warning.

Exit status: 0 when the report passes (or names a new benchmark with
no baseline entry yet, with a warning), 1 on a regression or a
malformed report/baseline.

The decision logic lives in evaluate(), a pure function over the two
parsed JSON documents; tools/test_perf_gate.py pins its behaviour.
"""

import argparse
import json
import sys

REQUIRED_REPORT_FIELDS = ("bench", "mips", "simulated_instructions",
                          "wall_seconds", "attrib")


def _gate_against(name, mips, entry, tolerance, what):
    """Gate a measured MIPS value against one baseline entry.

    Shared by the single-thread and parallel paths; `what` names the
    metric in messages ("aggregate MIPS at 4 jobs" vs "MIPS").
    """
    if not isinstance(entry, dict) or "mips" not in entry:
        return 1, (f"perf gate: baseline entry for '{name}' lacks "
                   f"'mips'")
    try:
        ref = float(entry["mips"])
    except (TypeError, ValueError):
        return 1, (f"perf gate: baseline entry for '{name}' has "
                   f"non-numeric mips {entry['mips']!r}")
    if ref <= 0:
        return 1, (f"perf gate: baseline entry for '{name}' has "
                   f"non-positive mips {ref!r}")

    floor = ref / tolerance
    floor_src = f"tolerance {tolerance:g}x"
    # Optional absolute per-benchmark floor: unlike the relative
    # tolerance it does not scale with the committed reference, so
    # it survives baseline refreshes and catches a slow drift the
    # 2x band would let through.
    if "mips_floor" in entry:
        abs_floor = entry["mips_floor"]
        if isinstance(abs_floor, bool) or \
                not isinstance(abs_floor, (int, float)):
            return 1, (f"perf gate: baseline entry for '{name}' has "
                       f"non-numeric mips_floor {abs_floor!r}")
        if abs_floor <= 0:
            return 1, (f"perf gate: baseline entry for '{name}' has "
                       f"non-positive mips_floor {abs_floor!r}")
        if abs_floor > floor:
            floor = float(abs_floor)
            floor_src = "absolute mips_floor"
    verdict = "PASS" if mips >= floor else "FAIL"
    message = (f"perf gate [{verdict}]: {name} at {mips:.2f} "
               f"{what}, baseline {ref:.2f}, floor {floor:.2f} "
               f"({floor_src})")
    return (0 if mips >= floor else 1), message


def _gate_sub_entry(name, mips, entry, key, why, jobs, tolerance,
                    what):
    """Gate against a jobs-keyed sub-entry ("parallel"/"sampled").

    `why` describes the report property that routed it here ("ran at
    4 jobs", "used sampled mode"). Missing sub-entry or a job-count
    mismatch skips with a warning (exit 0); a structurally broken
    sub-entry is an error (exit 1).
    """
    if not isinstance(entry, dict) or key not in entry:
        return 0, (f"perf gate: '{name}' report {why} but the "
                   f"baseline has no '{key}' entry; skipping "
                   f"comparison (commit a {key} reference to enable "
                   f"the gate)")
    sub = entry[key]
    if not isinstance(sub, dict) or "jobs" not in sub:
        return 1, (f"perf gate: baseline '{key}' entry for "
                   f"'{name}' lacks 'jobs'")
    ref_jobs = sub["jobs"]
    if isinstance(ref_jobs, bool) or not isinstance(ref_jobs, int) \
            or ref_jobs <= 0:
        return 1, (f"perf gate: baseline '{key}' entry for "
                   f"'{name}' has invalid jobs {ref_jobs!r}")
    if ref_jobs != jobs:
        return 0, (f"perf gate: '{name}' report ran at {jobs} jobs "
                   f"but the {key} baseline was recorded at "
                   f"{ref_jobs}; skipping comparison")
    return _gate_against(name, mips, sub, tolerance, what)


def evaluate(report, baseline, tolerance=2.0):
    """Judge one bench report against the baseline table.

    Returns (exit_code, message): exit_code 0 for pass/skip, 1 for a
    regression or malformed input. Never raises on malformed data —
    every defect maps to a code-1 message naming the problem.
    """
    if not isinstance(report, dict):
        return 1, "perf gate: report is not a JSON object"
    if not isinstance(baseline, dict):
        return 1, "perf gate: baseline is not a JSON object"

    for field in REQUIRED_REPORT_FIELDS:
        if field not in report:
            return 1, (f"perf gate: report lacks required field "
                       f"'{field}'")

    if not isinstance(report["attrib"], dict):
        return 1, ("perf gate: report 'attrib' section is not a JSON "
                   "object")

    name = report["bench"]
    mips = report["mips"]
    if isinstance(mips, bool) or not isinstance(mips, (int, float)) \
            or mips <= 0:
        return 1, (f"perf gate: report has non-positive mips "
                   f"{mips!r}")

    jobs = report.get("jobs", 1)
    if isinstance(jobs, bool) or not isinstance(jobs, int) \
            or jobs <= 0:
        return 1, f"perf gate: report has invalid jobs {jobs!r}"

    sampled = report.get("sampled", False)
    if not isinstance(sampled, bool):
        return 1, (f"perf gate: report has non-boolean sampled "
                   f"{sampled!r}")

    if name not in baseline:
        return 0, (f"perf gate: new benchmark '{name}' has no "
                   f"baseline entry; skipping comparison (commit a "
                   f"reference MIPS to enable the gate)")

    entry = baseline[name]

    # Sampled-mode reports mix fast-forward and detailed
    # instructions, so their MIPS is only comparable to a sampled
    # reference — routed before the jobs branching so a sampled
    # report never gates against a detailed baseline.
    if sampled:
        code, message = _gate_sub_entry(
            name, mips, entry, "sampled", "used sampled mode", jobs,
            tolerance, f"sampled-mode MIPS at {jobs} jobs")
    elif jobs == 1:
        code, message = _gate_against(name, mips, entry, tolerance,
                                      "MIPS")
    else:
        # Parallel report: aggregate throughput over N workers is
        # only comparable to a reference recorded at the same job
        # count.
        code, message = _gate_sub_entry(
            name, mips, entry, "parallel", f"ran at {jobs} jobs",
            jobs, tolerance, f"aggregate MIPS at {jobs} jobs")
    return code, message


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="BENCH_<name>.json to check")
    parser.add_argument("--baseline", default="bench/BASELINE.json",
                        help="committed reference MIPS file")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="maximum allowed slowdown factor")
    args = parser.parse_args(argv)

    try:
        with open(args.report) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"perf gate: cannot read report {args.report}: {e}")
        return 1
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"perf gate: cannot read baseline {args.baseline}: {e}")
        return 1

    code, message = evaluate(report, baseline, args.tolerance)
    print(message)
    return code


if __name__ == "__main__":
    sys.exit(main())

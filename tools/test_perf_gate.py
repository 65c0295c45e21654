#!/usr/bin/env python3
"""Unit tests for tools/perf_gate.py.

Written pytest-style (plain test_* functions with asserts) but
self-hosting: `python3 tools/test_perf_gate.py` runs every test and
exits non-zero on the first failure, so the suite needs no third-
party test runner. CI registers it as a ctest (see
tools/CMakeLists.txt); `pytest tools/test_perf_gate.py` also works
where pytest is installed.
"""

import json
import os
import subprocess
import sys
import tempfile
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from perf_gate import evaluate, main  # noqa: E402


def good_report(name="fig5", mips=10.0):
    return {
        "bench": name,
        "mips": mips,
        "simulated_instructions": 1000000,
        "wall_seconds": 0.1,
        "attrib": {"fill": {}, "precon": {}},
    }


def baseline_with(name="fig5", mips=10.0):
    return {name: {"mips": mips}}


# --- pass/fail around the tolerance floor -----------------------

def test_pass_at_baseline():
    code, msg = evaluate(good_report(mips=10.0), baseline_with())
    assert code == 0
    assert "[PASS]" in msg


def test_pass_exactly_at_floor():
    # tolerance 2x of a 10 MIPS baseline: the floor itself passes.
    code, msg = evaluate(good_report(mips=5.0), baseline_with())
    assert code == 0, msg
    assert "[PASS]" in msg


def test_fail_below_floor():
    code, msg = evaluate(good_report(mips=4.99), baseline_with())
    assert code == 1
    assert "[FAIL]" in msg
    assert "floor 5.00" in msg


def test_custom_tolerance():
    code, _ = evaluate(good_report(mips=4.0), baseline_with(),
                       tolerance=3.0)
    assert code == 0
    code, _ = evaluate(good_report(mips=3.0), baseline_with(),
                       tolerance=3.0)
    assert code == 1


# --- absolute per-benchmark floor -------------------------------

def test_mips_floor_binds_when_above_tolerance_floor():
    # ref 10, tolerance 2x -> relative floor 5; an absolute floor of
    # 8 takes over and fails a 7 MIPS report the band would pass.
    baseline = {"fig5": {"mips": 10.0, "mips_floor": 8.0}}
    code, msg = evaluate(good_report(mips=7.0), baseline)
    assert code == 1
    assert "[FAIL]" in msg
    assert "absolute mips_floor" in msg
    code, msg = evaluate(good_report(mips=8.0), baseline)
    assert code == 0, msg


def test_mips_floor_below_tolerance_floor_is_inert():
    baseline = {"fig5": {"mips": 10.0, "mips_floor": 3.0}}
    code, msg = evaluate(good_report(mips=5.0), baseline)
    assert code == 0, msg
    assert "tolerance" in msg


def test_mips_floor_malformed_values_are_errors():
    for bad in ("fast", None, True, 0, -1):
        baseline = {"fig5": {"mips": 10.0, "mips_floor": bad}}
        code, msg = evaluate(good_report(), baseline)
        assert code == 1, f"mips_floor={bad!r} accepted: {msg}"
        assert "mips_floor" in msg


def test_entry_without_mips_floor_unchanged():
    code, msg = evaluate(good_report(mips=5.0), baseline_with())
    assert code == 0, msg
    assert "tolerance" in msg


# --- parallel (aggregate MIPS at --jobs N) gating ---------------

def parallel_report(mips=40.0, jobs=4):
    report = good_report(mips=mips)
    report["jobs"] = jobs
    return report


def parallel_baseline(mips=40.0, jobs=4, floor=None, serial=10.0):
    entry = {"mips": serial,
             "parallel": {"jobs": jobs, "mips": mips}}
    if floor is not None:
        entry["parallel"]["mips_floor"] = floor
    return {"fig5": entry}


def test_parallel_pass_and_fail_around_floor():
    baseline = parallel_baseline(mips=40.0)
    code, msg = evaluate(parallel_report(mips=40.0), baseline)
    assert code == 0, msg
    assert "aggregate MIPS at 4 jobs" in msg
    # tolerance 2x: 20 passes, below fails.
    code, msg = evaluate(parallel_report(mips=20.0), baseline)
    assert code == 0, msg
    code, msg = evaluate(parallel_report(mips=19.9), baseline)
    assert code == 1
    assert "[FAIL]" in msg


def test_parallel_report_not_gated_against_serial_entry():
    # A 4-job report at 8 MIPS would fail the serial 14.5 floor;
    # it must be judged only against the parallel sub-entry.
    baseline = parallel_baseline(mips=10.0, serial=14.5)
    code, msg = evaluate(parallel_report(mips=8.0), baseline)
    assert code == 0, msg


def test_serial_report_ignores_parallel_entry():
    baseline = parallel_baseline(mips=100.0, serial=10.0)
    report = good_report(mips=10.0)
    report["jobs"] = 1
    code, msg = evaluate(report, baseline)
    assert code == 0, msg
    assert "aggregate" not in msg


def test_parallel_absolute_floor_binds():
    baseline = parallel_baseline(mips=40.0, floor=30.0)
    code, msg = evaluate(parallel_report(mips=25.0), baseline)
    assert code == 1
    assert "absolute mips_floor" in msg
    code, msg = evaluate(parallel_report(mips=30.0), baseline)
    assert code == 0, msg


def test_parallel_without_baseline_entry_skips():
    code, msg = evaluate(parallel_report(), baseline_with())
    assert code == 0
    assert "no 'parallel' entry" in msg


def test_parallel_job_count_mismatch_skips():
    baseline = parallel_baseline(jobs=8)
    code, msg = evaluate(parallel_report(jobs=4), baseline)
    assert code == 0
    assert "recorded at 8" in msg


def test_report_without_jobs_field_is_serial():
    report = good_report(mips=10.0)
    assert "jobs" not in report
    code, msg = evaluate(report, parallel_baseline(serial=10.0))
    assert code == 0, msg
    assert "aggregate" not in msg


def test_parallel_malformed_entries_are_errors():
    for par in ({"mips": 40.0},                 # no jobs
                {"jobs": "4", "mips": 40.0},    # non-int jobs
                {"jobs": True, "mips": 40.0},   # bool jobs
                {"jobs": 0, "mips": 40.0},      # non-positive jobs
                {"jobs": 4},                    # no mips
                {"jobs": 4, "mips": "fast"},    # non-numeric mips
                {"jobs": 4, "mips": -1}):       # non-positive mips
        baseline = {"fig5": {"mips": 10.0, "parallel": par}}
        code, msg = evaluate(parallel_report(), baseline)
        assert code == 1, f"parallel={par!r} accepted: {msg}"


def test_report_malformed_jobs_values_are_errors():
    for bad in ("4", True, 0, -2, 1.5):
        report = good_report()
        report["jobs"] = bad
        code, msg = evaluate(report, baseline_with())
        assert code == 1, f"jobs={bad!r} accepted: {msg}"
        assert "jobs" in msg


# --- sampled-mode (SMARTS sampling) gating ----------------------

def sampled_report(mips=45.0, jobs=1):
    report = good_report(mips=mips)
    report["jobs"] = jobs
    report["sampled"] = True
    return report


def sampled_baseline(mips=45.0, jobs=1, floor=None, serial=10.0):
    entry = {"mips": serial,
             "sampled": {"jobs": jobs, "mips": mips}}
    if floor is not None:
        entry["sampled"]["mips_floor"] = floor
    return {"fig5": entry}


def test_sampled_pass_and_fail_around_floor():
    baseline = sampled_baseline(mips=45.0)
    code, msg = evaluate(sampled_report(mips=45.0), baseline)
    assert code == 0, msg
    assert "sampled-mode MIPS at 1 jobs" in msg
    # tolerance 2x: 22.5 passes, below fails.
    code, msg = evaluate(sampled_report(mips=22.5), baseline)
    assert code == 0, msg
    code, msg = evaluate(sampled_report(mips=22.0), baseline)
    assert code == 1
    assert "[FAIL]" in msg


def test_sampled_report_not_gated_against_detailed_entry():
    # Sampled MIPS far above the detailed reference must not
    # "pass" against it either — only the sampled sub-entry counts.
    baseline = sampled_baseline(mips=45.0, serial=10.0)
    code, msg = evaluate(sampled_report(mips=23.0), baseline)
    assert code == 0, msg
    assert "sampled-mode" in msg


def test_sampled_takes_precedence_over_parallel():
    # A sampled report at --jobs 4 keys the sampled sub-entry, not
    # the parallel one: the routing happens before jobs branching.
    entry = {"mips": 10.0,
             "parallel": {"jobs": 4, "mips": 40.0},
             "sampled": {"jobs": 4, "mips": 90.0}}
    code, msg = evaluate(sampled_report(mips=50.0, jobs=4),
                         {"fig5": entry})
    assert code == 0, msg
    assert "sampled-mode MIPS at 4 jobs" in msg
    code, msg = evaluate(sampled_report(mips=40.0, jobs=4),
                         {"fig5": entry})
    assert code == 1  # fails the 45 floor the parallel entry allows
    assert "sampled-mode" in msg


def test_detailed_report_ignores_sampled_entry():
    baseline = sampled_baseline(mips=200.0, serial=10.0)
    report = good_report(mips=10.0)
    report["sampled"] = False
    code, msg = evaluate(report, baseline)
    assert code == 0, msg
    assert "sampled" not in msg


def test_sampled_without_baseline_entry_skips():
    code, msg = evaluate(sampled_report(), baseline_with())
    assert code == 0
    assert "no 'sampled' entry" in msg
    assert "used sampled mode" in msg


def test_sampled_job_count_mismatch_skips():
    baseline = sampled_baseline(jobs=4)
    code, msg = evaluate(sampled_report(jobs=1), baseline)
    assert code == 0
    assert "recorded at 4" in msg


def test_sampled_absolute_floor_binds():
    baseline = sampled_baseline(mips=45.0, floor=30.0)
    code, msg = evaluate(sampled_report(mips=25.0), baseline)
    assert code == 1
    assert "absolute mips_floor" in msg
    code, msg = evaluate(sampled_report(mips=30.0), baseline)
    assert code == 0, msg


def test_sampled_malformed_entries_are_errors():
    for samp in ({"mips": 45.0},                # no jobs
                 {"jobs": "1", "mips": 45.0},   # non-int jobs
                 {"jobs": 0, "mips": 45.0},     # non-positive jobs
                 {"jobs": 1},                   # no mips
                 {"jobs": 1, "mips": "fast"},   # non-numeric mips
                 {"jobs": 1, "mips": 0}):       # non-positive mips
        baseline = {"fig5": {"mips": 10.0, "sampled": samp}}
        code, msg = evaluate(sampled_report(), baseline)
        assert code == 1, f"sampled={samp!r} accepted: {msg}"


def test_report_malformed_sampled_flag_is_an_error():
    for bad in ("true", 1, 0, None):
        report = good_report()
        report["sampled"] = bad
        code, msg = evaluate(report, baseline_with())
        assert code == 1, f"sampled={bad!r} accepted: {msg}"
        assert "sampled" in msg


def test_report_without_sampled_flag_is_detailed():
    report = good_report(mips=10.0)
    assert "sampled" not in report
    code, msg = evaluate(report, sampled_baseline(serial=10.0))
    assert code == 0, msg
    assert "sampled-mode" not in msg


# --- attribution section: every report carries one ---------------

def test_missing_attrib_is_an_error():
    # Every report carries "attrib"; one without it is malformed,
    # on the gated path and on the skip paths (new benchmark,
    # missing parallel sub-entry) alike.
    for report, base in ((good_report(mips=10.0), baseline_with()),
                         (good_report(name="fig9"), baseline_with()),
                         (parallel_report(), baseline_with())):
        del report["attrib"]
        code, msg = evaluate(report, base)
        assert code == 1, msg
        assert "'attrib'" in msg


def test_present_attrib_passes_without_a_note():
    code, msg = evaluate(good_report(mips=10.0), baseline_with())
    assert code == 0, msg
    assert "attrib" not in msg


def test_malformed_attrib_is_an_error():
    for bad in ([], "on", 1, True, None):
        report = good_report(mips=10.0)
        report["attrib"] = bad
        code, msg = evaluate(report, baseline_with())
        assert code == 1, f"attrib={bad!r} accepted: {msg}"
        assert "attrib" in msg


# --- new benchmark: warn and skip -------------------------------

def test_new_benchmark_skips_with_warning():
    code, msg = evaluate(good_report(name="fig9"), baseline_with())
    assert code == 0
    assert "new benchmark 'fig9'" in msg
    assert "no baseline" in msg


# --- the committed baseline -------------------------------------

def _committed_baseline():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "bench", "BASELINE.json")) as f:
        return json.load(f)


def test_committed_baseline_gates_timing_benches():
    # The fig6/fig8 grid (timing mode) is gated, not skipped as a new
    # bench.
    baseline = _committed_baseline()
    name = "fig6_fig8_speedup"
    entry = baseline[name]
    code, msg = evaluate(good_report(name=name, mips=entry["mips"]),
                         baseline)
    assert code == 0 and "[PASS]" in msg, msg
    code, msg = evaluate(
        good_report(name=name, mips=entry["mips_floor"] * 0.99),
        baseline)
    assert code == 1 and "[FAIL]" in msg, msg


def test_committed_baseline_skips_report_without_entry():
    # A real bench with no committed entry warns and passes.
    baseline = _committed_baseline()
    name = "tables_icache"
    assert name not in baseline
    code, msg = evaluate(good_report(name=name), baseline)
    assert code == 0
    assert f"new benchmark '{name}'" in msg
    assert "no baseline" in msg


# --- malformed inputs never raise -------------------------------

def test_baseline_entry_without_mips_is_an_error():
    # Regression test: this used to die with a bare KeyError.
    baseline = {"fig5": {"note": "mips got lost"}}
    code, msg = evaluate(good_report(), baseline)
    assert code == 1
    assert "lacks 'mips'" in msg


def test_baseline_entry_not_a_dict():
    code, msg = evaluate(good_report(), {"fig5": 10.0})
    assert code == 1
    assert "lacks 'mips'" in msg


def test_baseline_entry_non_numeric_mips():
    code, msg = evaluate(good_report(), {"fig5": {"mips": "fast"}})
    assert code == 1
    assert "non-numeric" in msg


def test_baseline_entry_non_positive_mips():
    code, msg = evaluate(good_report(), {"fig5": {"mips": 0}})
    assert code == 1
    assert "non-positive" in msg


def test_report_missing_fields():
    for field in ("bench", "mips", "simulated_instructions",
                  "wall_seconds", "attrib"):
        report = good_report()
        del report[field]
        code, msg = evaluate(report, baseline_with())
        assert code == 1
        assert field in msg


def test_report_bad_mips_values():
    for bad in (0, -1.0, "10", None, True):
        code, msg = evaluate(good_report(mips=bad), baseline_with())
        assert code == 1, f"mips={bad!r} accepted: {msg}"


def test_non_object_documents():
    assert evaluate([], baseline_with())[0] == 1
    assert evaluate(good_report(), [])[0] == 1


# --- CLI wrapper ------------------------------------------------

def test_main_reads_files_and_gates(tmpdir=None):
    with tempfile.TemporaryDirectory() as d:
        report_path = os.path.join(d, "BENCH_fig5.json")
        baseline_path = os.path.join(d, "BASELINE.json")
        with open(report_path, "w") as f:
            json.dump(good_report(mips=9.0), f)
        with open(baseline_path, "w") as f:
            json.dump(baseline_with(mips=10.0), f)
        assert main([report_path, "--baseline", baseline_path]) == 0
        assert main([report_path, "--baseline", baseline_path,
                     "--tolerance", "1.05"]) == 1


def test_main_unreadable_inputs():
    with tempfile.TemporaryDirectory() as d:
        missing = os.path.join(d, "nope.json")
        garbage = os.path.join(d, "garbage.json")
        with open(garbage, "w") as f:
            f.write("{not json")
        ok = os.path.join(d, "ok.json")
        with open(ok, "w") as f:
            json.dump(good_report(), f)
        assert main([missing, "--baseline", ok]) == 1
        assert main([garbage, "--baseline", ok]) == 1
        assert main([ok, "--baseline", missing]) == 1


def test_cli_process_exit_status():
    # End to end through the interpreter, as CI invokes it.
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "perf_gate.py")
    with tempfile.TemporaryDirectory() as d:
        report_path = os.path.join(d, "BENCH_fig5.json")
        baseline_path = os.path.join(d, "BASELINE.json")
        with open(report_path, "w") as f:
            json.dump(good_report(mips=1.0), f)
        with open(baseline_path, "w") as f:
            json.dump(baseline_with(mips=10.0), f)
        proc = subprocess.run(
            [sys.executable, script, report_path,
             "--baseline", baseline_path],
            capture_output=True, text=True)
        assert proc.returncode == 1, proc.stdout
        assert "[FAIL]" in proc.stdout


def _run_all():
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    print(f"{len(tests) - failed}/{len(tests)} perf_gate tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_run_all())

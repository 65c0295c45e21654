# Regression check for micro_hotpath's default report: run with only
# --benchmark_out_format=json (no --benchmark_out), the binary must
# still write BENCH_micro_hotpath.json into TPRE_BENCH_DIR. The
# out-flag detection must not prefix-match --benchmark_out_format.
#
# Usage (registered as a ctest in bench/CMakeLists.txt):
#   cmake -DMICRO=<micro_hotpath> -DOUT_DIR=<dir> \
#         -P check_default_report.cmake

if (NOT MICRO OR NOT OUT_DIR)
    message(FATAL_ERROR
            "usage: cmake -DMICRO=<micro_hotpath> -DOUT_DIR=<dir> "
            "-P check_default_report.cmake")
endif ()

# Start from an empty directory so a stale report cannot pass.
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(ENV{TPRE_BENCH_DIR} "${OUT_DIR}")

# One cheap benchmark keeps the check fast.
execute_process(
    COMMAND "${MICRO}" --benchmark_out_format=json
            --benchmark_filter=BM_TraceCacheProbe
            --benchmark_min_time=0.01
    RESULT_VARIABLE status
    OUTPUT_QUIET)
if (NOT status EQUAL 0)
    message(FATAL_ERROR "${MICRO} exited with status ${status}")
endif ()

set(report "${OUT_DIR}/BENCH_micro_hotpath.json")
if (NOT EXISTS "${report}")
    message(FATAL_ERROR "default report ${report} was not written")
endif ()
file(READ "${report}" text)
if (NOT text MATCHES "\"benchmarks\"")
    message(FATAL_ERROR
            "${report} is not a google-benchmark JSON report")
endif ()
message(STATUS "default report written: ${report}")

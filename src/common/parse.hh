/**
 * @file
 * Strict numeric and on/off parsing for environment variables
 * and command-line flags. The helpers reject garbage instead of
 * letting atoll-style parsing silently turn "2e8" into 2 or "fast"
 * into 0, which later surfaces as a misleading failure far from the
 * bad input.
 */

#ifndef TPRE_COMMON_PARSE_HH
#define TPRE_COMMON_PARSE_HH

#include <cstdint>

namespace tpre
{

/**
 * Parse @p text as a strictly positive decimal integer. Calls
 * fatal() naming @p what and the offending value on non-numeric
 * input, trailing garbage, overflow, or values <= 0.
 *
 * Strict means strict: the value must consist of decimal digits
 * only. Leading whitespace and an explicit '+' sign — which
 * strtoll-family parsers silently accept, so TPRE_INSTS=" 5" used
 * to parse — are rejected like any other garbage.
 */
std::int64_t parsePositiveInt(const char *text, const char *what);

/**
 * Parse @p text like parsePositiveInt and additionally require the
 * value to be at most @p max. The caller names the bound that makes
 * narrowing safe (e.g. UINT_MAX before a static_cast<unsigned>):
 * without it, TPRE_HEARTBEAT_SECS=2^33 truncated to 0 instead of
 * failing. Calls fatal() naming @p what when out of range.
 */
std::uint64_t parseUnsigned(const char *text, const char *what,
                            std::uint64_t max);

/**
 * Parse a worker count for --jobs / TPRE_JOBS: a positive integer,
 * capped at 4096 to catch "--jobs 1e9"-style mistakes. Calls
 * fatal() naming @p what on bad input.
 */
unsigned parseJobs(const char *text, const char *what);

/**
 * Parse a TCP port for --telemetry-port / TPRE_TELEMETRY_PORT:
 * 0 (ephemeral) through 65535. Calls fatal() naming @p what on
 * non-numeric input, trailing garbage ("8e3"), negatives, or
 * values above 65535 — never silently truncates.
 */
int parsePort(const char *text, const char *what);

/**
 * Read the on/off environment variable @p name: @p unsetDefault
 * when it is unset, false for exactly "0", true for exactly "1".
 * Anything else — "true", "on", an empty string, " 1" — calls
 * fatal() naming the variable, so a misspelt switch fails loudly
 * instead of silently picking a side.
 */
bool parseFlag(const char *name, bool unsetDefault);

/**
 * Does @p arg name google-benchmark's output-file flag — exactly
 * "--benchmark_out" or a "--benchmark_out=..." assignment? A plain
 * prefix test also matched "--benchmark_out_format=...", so passing
 * only a format flag silently suppressed the default
 * BENCH_<name>.json report the micro-benchmark harnesses write.
 */
bool isBenchmarkOutFlag(const char *arg);

} // namespace tpre

#endif // TPRE_COMMON_PARSE_HH

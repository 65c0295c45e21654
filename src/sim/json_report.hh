/**
 * @file
 * Machine-readable bench reports. Every bench binary emits a
 * BENCH_<name>.json alongside its human-readable table so the
 * performance trajectory of the repository is tracked from CI
 * artifacts, with schema:
 *
 *   {
 *     "bench": "<binary name>",
 *     "git_ref": "<TPRE_GIT_REF | GITHUB_SHA | unknown>",
 *     "wall_seconds": <total wall-clock of the run>,
 *     "jobs": <worker threads used>,
 *     "sampled": <any row used SMARTS-style sampling?>,
 *     "simulated_instructions": <sum of row instruction counts>,
 *     "mips": <simulated_instructions / 1e6 / wall_seconds;
 *              aggregate across all jobs>,
 *     "obs": {
 *       "enabled": <tpre::obs compiled in?>,
 *       "counters": {"<name>": N, ...},
 *       "gauges": {"<name>": N, ...},
 *       "histograms": {"<name>": {"count": N, "sum": N,
 *                                 "bounds": [...],
 *                                 "buckets": [...]}, ...}
 *     },
 *     "attrib": {    <- only when attribution is active (obs
 *                       compiled in and TPRE_ATTRIB != 0): the
 *                       per-row tables summed cell-wise
 *       "fill" | "precon": {
 *         "loop_body" | "loop_exit" | "call_chain" |
 *         "straight_line": {
 *           "builds": N, "hits": N, "first_uses": N,
 *           "first_use_latency_sum": N, "evict_capacity": N,
 *           "evict_refresh": N, "evict_invalidate": N,
 *           "evict_clear": N, "evicted_unused": N,
 *           "inst_built":  {"cond_branch": N, "indirect_branch": N,
 *                           "call_return": N, "load_store": N,
 *                           "alu": N},
 *           "inst_served": {same keys}
 *         }
 *       }
 *     },
 *     "rows": [
 *       {
 *         "benchmark": "...", "mode": "fast|timing",
 *         "tc_entries": N, "pb_entries": N, "prep": bool,
 *         "workload_seed": N, "max_insts": N, "combined_kb": X,
 *         "sampled": bool, "sample_fallback": "...",
 *         "windows": N, "sampled_insts": N, "skipped_insts": N,
 *         "coverage": X, "ci95_misses_per_ki": X,
 *         "ci95_coverage": X, "ci95_icache_misses_per_ki": X,
 *         "instructions": N, "cycles": N, "ipc": X,
 *         "missesPerKi": X, "traces": N, "tc_misses": N,
 *         "pb_hits": N, "icache_supply_per_ki": X,
 *         "icache_misses_per_ki": X,
 *         "icache_miss_supply_per_ki": X,
 *         "precon_traces_constructed": N, "precon_buffer_hits": N,
 *         "provenance": {
 *           "fill":   {"builds": N, "hits": N, "first_uses": N,
 *                      "first_use_latency_sum": N,
 *                      "evict_capacity": N, "evict_refresh": N,
 *                      "evict_invalidate": N, "evict_clear": N,
 *                      "evicted_unused": N},
 *           "precon": {same keys}
 *         },
 *         "attrib": {per-row attribution table; same shape as the
 *                    top-level "attrib"; present only when
 *                    attribution is active},
 *         "wall_seconds": X, "mips": X
 *       }, ...
 *     ]
 *   }
 *
 * Only dependency-free hand-rolled serialization is used (no JSON
 * library in the image); jsonNumber is exposed for tests and the
 * other JSON writers, and jsonEscape lives in common/logging.hh.
 */

#ifndef TPRE_SIM_JSON_REPORT_HH
#define TPRE_SIM_JSON_REPORT_HH

#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/simulator.hh"

namespace tpre
{

/**
 * Render a double as a JSON number. NaN and infinities (not
 * representable in JSON) render as null.
 */
std::string jsonNumber(double value);

/**
 * The aggregated tpre::obs registry as a JSON object (the "obs"
 * section above): counters and gauges as name -> value maps,
 * histograms with their bucket layout. Empty maps (e.g. under
 * TPRE_OBS_DISABLED) still render, so consumers can rely on the
 * keys existing. Shared by the BENCH report and the flight
 * recorder, so both dumps carry the same fields.
 */
std::string renderObsJson();

/** One bench binary's machine-readable result set. */
class BenchReport
{
  public:
    /**
     * @param bench Report (and output file) name; the file is
     *              BENCH_<bench>.json.
     * @param jobs Worker threads the run was sharded over.
     */
    BenchReport(std::string bench, unsigned jobs);

    /** Append one result row (call in output order). */
    void add(const SimResult &row);

    /** Report (and output file) name. */
    const std::string &name() const { return bench_; }

    std::size_t rows() const { return rows_.size(); }

    /** Render the whole report as a JSON document. */
    std::string render(double wallSeconds) const;

    /**
     * Write BENCH_<bench>.json into TPRE_BENCH_DIR (default: the
     * current directory). Returns the path written, or an empty
     * string (with a warn()) when the file cannot be created.
     */
    std::string write(double wallSeconds) const;

  private:
    std::string bench_;
    unsigned jobs_;
    std::vector<SimResult> rows_;
};

} // namespace tpre

#endif // TPRE_SIM_JSON_REPORT_HH

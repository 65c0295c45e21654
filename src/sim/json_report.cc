#include "sim/json_report.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace tpre
{

namespace
{

const char *
gitRef()
{
    if (const char *ref = std::getenv("TPRE_GIT_REF"))
        return ref;
    if (const char *sha = std::getenv("GITHUB_SHA"))
        return sha;
    return "unknown";
}

std::string
boolWord(bool b)
{
    return b ? "true" : "false";
}

} // namespace

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[64];
    // %.17g round-trips any double; JSON requires a plain number,
    // which %g produces for finite inputs.
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
renderObsJson()
{
    const std::vector<obs::MetricRow> rows =
        obs::MetricsRegistry::instance().snapshot();

    std::string counters, gauges, histograms;
    for (const obs::MetricRow &row : rows) {
        switch (row.kind) {
          case obs::MetricKind::Counter:
            if (!counters.empty())
                counters += ", ";
            counters += "\"" + jsonEscape(row.name) + "\": " +
                        std::to_string(
                            static_cast<std::uint64_t>(row.value));
            break;
          case obs::MetricKind::Gauge:
            if (!gauges.empty())
                gauges += ", ";
            gauges += "\"" + jsonEscape(row.name) +
                      "\": " + std::to_string(row.value);
            break;
          case obs::MetricKind::Histogram: {
            if (!histograms.empty())
                histograms += ", ";
            histograms += "\"" + jsonEscape(row.name) +
                          "\": {\"count\": " +
                          std::to_string(row.hist.count) +
                          ", \"sum\": " +
                          std::to_string(row.hist.sum) +
                          ", \"bounds\": [";
            for (std::size_t i = 0; i < row.hist.bounds.size(); ++i) {
                histograms += i ? ", " : "";
                histograms += std::to_string(row.hist.bounds[i]);
            }
            histograms += "], \"buckets\": [";
            for (std::size_t i = 0; i < row.hist.buckets.size();
                 ++i) {
                histograms += i ? ", " : "";
                histograms += std::to_string(row.hist.buckets[i]);
            }
            histograms += "]}";
            break;
          }
        }
    }

    std::string out;
    out += "{\n";
    out += "    \"enabled\": " + boolWord(obs::kEnabled) + ",\n";
    out += "    \"counters\": {" + counters + "},\n";
    out += "    \"gauges\": {" + gauges + "},\n";
    out += "    \"histograms\": {" + histograms + "}\n";
    out += "  }";
    return out;
}

BenchReport::BenchReport(std::string bench, unsigned jobs)
    : bench_(std::move(bench)), jobs_(jobs)
{
}

void
BenchReport::add(const SimResult &row)
{
    rows_.push_back(row);
}

std::string
BenchReport::render(double wallSeconds) const
{
    std::uint64_t total_insts = 0;
    bool any_sampled = false;
    for (const SimResult &r : rows_) {
        total_insts += r.instructions;
        any_sampled = any_sampled || r.sampled;
    }

    // The attribution sections exist only when attribution is
    // active: a TPRE_OBS_DISABLED build or TPRE_ATTRIB=0 run emits
    // no "attrib" keys at all, and consumers (tools/attrib,
    // tools/perf_gate.py) treat absence as "not collected" rather
    // than zero.
    const bool attribActive =
        attribDefaultEnabled() && obs::kEnabled;

    std::string out;
    out += "{\n";
    out += "  \"bench\": \"" + jsonEscape(bench_) + "\",\n";
    out += "  \"git_ref\": \"" + jsonEscape(gitRef()) + "\",\n";
    out += "  \"wall_seconds\": " + jsonNumber(wallSeconds) + ",\n";
    out += "  \"jobs\": " + std::to_string(jobs_) + ",\n";
    // True when any row's counters are sampled extrapolations: the
    // aggregate mips below then measures the mixed fast-forward +
    // detailed mode and must only be gated against sampled-mode
    // baselines (tools/perf_gate.py keys on this).
    out += "  \"sampled\": " + boolWord(any_sampled) + ",\n";
    out += "  \"simulated_instructions\": " +
           std::to_string(total_insts) + ",\n";
    // Aggregate throughput: all simulated instructions over the
    // run's wall-clock. With jobs > 1 this measures the sharded
    // engine, not a single core.
    out += "  \"mips\": " +
           jsonNumber(wallSeconds > 0.0
                          ? static_cast<double>(total_insts) / 1e6 /
                                wallSeconds
                          : 0.0) +
           ",\n";
    out += "  \"obs\": " + renderObsJson() + ",\n";
    if (attribActive) {
        // Whole-report attribution: the per-row tables summed
        // cell-wise, so one decanting table covers the bench.
        AttribTable aggregate;
        for (const SimResult &r : rows_)
            aggregate.add(r.attrib);
        out += "  \"attrib\": " + renderAttribJson(aggregate) +
               ",\n";
    }
    out += "  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        const SimResult &r = rows_[i];
        const SimConfig &c = r.config;
        out += i ? ",\n    {" : "\n    {";
        out += "\"benchmark\": \"" + jsonEscape(c.benchmark) +
               "\", ";
        out += std::string("\"mode\": \"") +
               (c.mode == SimMode::Fast ? "fast" : "timing") +
               "\", ";
        out += "\"tc_entries\": " + std::to_string(c.traceCacheEntries) +
               ", ";
        out += "\"pb_entries\": " +
               std::to_string(c.preconBufferEntries) + ", ";
        out += "\"prep\": " + boolWord(c.prepEnabled) + ", ";
        out += "\"workload_seed\": " + std::to_string(c.workloadSeed) +
               ", ";
        out += "\"max_insts\": " + std::to_string(c.maxInsts) + ", ";
        // Warm-state reuse: whether this row was forked from a
        // shared warm-up checkpoint, how many instructions the
        // warm-up covered, and — for rows that requested warm but
        // fell back to a cold start — why.
        out += "\"warm\": " + boolWord(r.warm) + ", ";
        out += "\"warmup_insts\": " + std::to_string(r.warmupInsts) +
               ", ";
        out += "\"warm_fallback\": \"" +
               jsonEscape(r.warmFallback) + "\", ";
        out += "\"combined_kb\": " + jsonNumber(c.combinedKb()) +
               ", ";
        // Sampled simulation: whether the row's counters are
        // SMARTS-style extrapolations, how many measurement windows
        // contributed, the detailed/skipped split, the coverage
        // estimate, and the 95% confidence half-widths (0 when the
        // estimate is exact or unbounded). sample_fallback names why
        // a row that requested sampling ran detailed instead.
        out += "\"sampled\": " + boolWord(r.sampled) + ", ";
        out += "\"sample_fallback\": \"" +
               jsonEscape(r.sampleFallback) + "\", ";
        out += "\"windows\": " + std::to_string(r.sampleWindows) + ", ";
        out += "\"sampled_insts\": " + std::to_string(r.sampledInsts) +
               ", ";
        out += "\"skipped_insts\": " + std::to_string(r.skippedInsts) +
               ", ";
        out += "\"coverage\": " + jsonNumber(r.coverage) + ", ";
        out += "\"ci95_misses_per_ki\": " +
               jsonNumber(r.ci95MissesPerKi) + ", ";
        out += "\"ci95_coverage\": " + jsonNumber(r.ci95Coverage) +
               ", ";
        out += "\"ci95_icache_misses_per_ki\": " +
               jsonNumber(r.ci95IcacheMissesPerKi) + ", ";
        out += "\"instructions\": " + std::to_string(r.instructions) +
               ", ";
        out += "\"cycles\": " + std::to_string(r.cycles) + ", ";
        out += "\"ipc\": " + jsonNumber(r.ipc) + ", ";
        out += "\"missesPerKi\": " + jsonNumber(r.missesPerKi) +
               ", ";
        out += "\"traces\": " + std::to_string(r.traces) + ", ";
        out += "\"tc_misses\": " + std::to_string(r.tcMisses) + ", ";
        out += "\"pb_hits\": " + std::to_string(r.pbHits) + ", ";
        out += "\"icache_supply_per_ki\": " +
               jsonNumber(r.icacheSupplyPerKi) + ", ";
        out += "\"icache_misses_per_ki\": " +
               jsonNumber(r.icacheMissesPerKi) + ", ";
        out += "\"icache_miss_supply_per_ki\": " +
               jsonNumber(r.icacheMissSupplyPerKi) + ", ";
        out += "\"precon_traces_constructed\": " +
               std::to_string(r.precon.tracesConstructed) + ", ";
        out += "\"precon_buffer_hits\": " +
               std::to_string(r.precon.bufferHits) + ", ";
        out += "\"provenance\": " +
               renderProvenanceJson(r.provenance) + ", ";
        if (attribActive) {
            out += "\"attrib\": " + renderAttribJson(r.attrib) +
                   ", ";
        }
        out += "\"blocks_decoded\": " + std::to_string(r.blocksDecoded) +
               ", ";
        out += "\"block_hits\": " + std::to_string(r.blockHits) + ", ";
        out += "\"block_invalidations\": " +
               std::to_string(r.blockInvalidations) + ", ";
        out += "\"wall_seconds\": " + jsonNumber(r.wallSeconds) +
               ", ";
        out += "\"mips\": " + jsonNumber(r.mips) + "}";
    }
    out += rows_.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

std::string
BenchReport::write(double wallSeconds) const
{
    std::string dir = ".";
    if (const char *env = std::getenv("TPRE_BENCH_DIR"))
        dir = env;
    const std::string path = dir + "/BENCH_" + bench_ + ".json";
    std::ofstream out(path);
    if (!out) {
        warn("cannot write bench report to %s", path.c_str());
        return "";
    }
    out << render(wallSeconds);
    return path;
}

} // namespace tpre

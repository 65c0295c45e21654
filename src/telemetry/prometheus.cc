#include "telemetry/prometheus.hh"

#include <mutex>

namespace tpre::telemetry
{

namespace
{

/** HELP-line escaping: backslash and newline only (the spec). */
std::string
helpEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

const char *
kindWord(obs::MetricKind kind)
{
    switch (kind) {
      case obs::MetricKind::Counter: return "counter";
      case obs::MetricKind::Gauge: return "gauge";
      case obs::MetricKind::Histogram: return "histogram";
    }
    return "untyped";
}

} // namespace

std::string
promFamilyName(std::string_view name, obs::MetricKind kind)
{
    std::string out = "tpre_";
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    if (kind == obs::MetricKind::Counter)
        out += "_total";
    return out;
}

std::string
renderPrometheus(const std::vector<obs::MetricRow> &rows)
{
    std::string out;
    for (const obs::MetricRow &row : rows) {
        const std::string family =
            promFamilyName(row.name, row.kind);
        out += "# HELP " + family + " tpre::obs " +
               kindWord(row.kind) + " " + helpEscape(row.name) +
               "\n";
        out += "# TYPE " + family + " " + kindWord(row.kind) + "\n";
        switch (row.kind) {
          case obs::MetricKind::Counter:
            out += family + " " +
                   std::to_string(static_cast<std::uint64_t>(row.value)) +
                   "\n";
            break;
          case obs::MetricKind::Gauge:
            out += family + " " + std::to_string(row.value) + "\n";
            break;
          case obs::MetricKind::Histogram: {
            // The registry stores per-bucket counts with inclusive
            // upper bounds; Prometheus buckets are cumulative and
            // end with the mandatory le="+Inf" == _count.
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i < row.hist.bounds.size();
                 ++i) {
                cumulative += i < row.hist.buckets.size()
                                  ? row.hist.buckets[i]
                                  : 0;
                out += family + "_bucket{le=\"" +
                       std::to_string(row.hist.bounds[i]) + "\"} " +
                       std::to_string(cumulative) + "\n";
            }
            out += family + "_bucket{le=\"+Inf\"} " +
                   std::to_string(row.hist.count) + "\n";
            out += family + "_sum " + std::to_string(row.hist.sum) + "\n";
            out += family + "_count " + std::to_string(row.hist.count) +
                   "\n";
            break;
          }
        }
    }
    return out;
}

std::string
renderRegistryPrometheus()
{
    return renderPrometheus(
        obs::MetricsRegistry::instance().snapshot());
}

namespace
{

void
familyHeader(std::string &out, const char *family, const char *help)
{
    out += std::string("# HELP ") + family + " " + help + "\n";
    out += std::string("# TYPE ") + family + " counter\n";
}

void
originSample(std::string &out, const char *family,
             TraceOrigin origin, std::uint64_t value)
{
    out += std::string(family) + "{origin=\"" +
           traceOriginName(origin) + "\"} " + std::to_string(value) +
           "\n";
}

} // namespace

std::string
renderProvenancePrometheus(const ProvenanceTable &table)
{
    std::string out;

    const struct
    {
        const char *family;
        const char *help;
        std::uint64_t (*get)(const OriginProvenance &);
    } families[] = {
        {"tpre_provenance_builds_total",
         "Trace-cache lines inserted, by builder origin",
         [](const OriginProvenance &o) { return o.builds; }},
        {"tpre_provenance_hits_total",
         "Fetches served, by builder origin",
         [](const OriginProvenance &o) { return o.hits; }},
        {"tpre_provenance_first_uses_total",
         "Lines that served at least one fetch, by origin",
         [](const OriginProvenance &o) { return o.firstUses; }},
        {"tpre_provenance_first_use_latency_cycles_total",
         "Summed construction-to-first-use latency, by origin",
         [](const OriginProvenance &o) {
             return o.firstUseLatencySum;
         }},
        {"tpre_provenance_evicted_unused_total",
         "Evicted lines that never served a fetch, by origin",
         [](const OriginProvenance &o) { return o.evictedUnused; }},
    };
    for (const auto &f : families) {
        familyHeader(out, f.family, f.help);
        for (std::size_t i = 0; i < kNumOrigins; ++i) {
            const auto origin = static_cast<TraceOrigin>(i);
            originSample(out, f.family, origin,
                         f.get(table.of(origin)));
        }
    }

    familyHeader(out, "tpre_provenance_evictions_total",
                 "Line evictions, by builder origin and reason");
    const struct
    {
        const char *reason;
        std::uint64_t (*get)(const OriginProvenance &);
    } reasons[] = {
        {"capacity",
         [](const OriginProvenance &o) { return o.evictCapacity; }},
        {"refresh",
         [](const OriginProvenance &o) { return o.evictRefresh; }},
        {"invalidate",
         [](const OriginProvenance &o) {
             return o.evictInvalidate;
         }},
        {"clear",
         [](const OriginProvenance &o) { return o.evictClear; }},
    };
    for (std::size_t i = 0; i < kNumOrigins; ++i) {
        const auto origin = static_cast<TraceOrigin>(i);
        for (const auto &r : reasons) {
            out += std::string("tpre_provenance_evictions_total") +
                   "{origin=\"" + traceOriginName(origin) +
                   "\",reason=\"" + r.reason + "\"} " +
                   std::to_string(r.get(table.of(origin))) + "\n";
        }
    }
    return out;
}

std::string
renderAttribPrometheus(const AttribTable &table)
{
    std::string out;

    const struct
    {
        const char *family;
        const char *help;
        std::uint64_t (*get)(const AttribCell &);
    } families[] = {
        {"tpre_attrib_builds_total",
         "Trace builds, by origin and loop-structure class",
         [](const AttribCell &c) { return c.builds; }},
        {"tpre_attrib_hits_total",
         "Trace-cache hits, by origin and loop-structure class",
         [](const AttribCell &c) { return c.hits; }},
        {"tpre_attrib_first_uses_total",
         "First uses, by origin and loop-structure class",
         [](const AttribCell &c) { return c.firstUses; }},
        {"tpre_attrib_first_use_latency_cycles_total",
         "Summed first-use latency, by origin and loop class",
         [](const AttribCell &c) { return c.firstUseLatencySum; }},
        {"tpre_attrib_evictions_total",
         "Evictions (all reasons), by origin and loop class",
         [](const AttribCell &c) { return c.evictions(); }},
        {"tpre_attrib_evicted_unused_total",
         "Unused evictions, by origin and loop class",
         [](const AttribCell &c) { return c.evictedUnused; }},
    };
    for (const auto &f : families) {
        familyHeader(out, f.family, f.help);
        for (std::size_t i = 0; i < kNumOrigins; ++i) {
            const auto origin = static_cast<TraceOrigin>(i);
            for (std::size_t c = 0; c < kNumLoopClasses; ++c) {
                const auto cls = static_cast<LoopClass>(c);
                out += std::string(f.family) + "{origin=\"" +
                       traceOriginName(origin) + "\",loop_class=\"" +
                       loopClassName(cls) + "\"} " +
                       std::to_string(f.get(table.of(origin, cls))) +
                       "\n";
            }
        }
    }

    const struct
    {
        const char *family;
        const char *help;
        const std::array<std::uint64_t, kNumInstKinds> &(*get)(
            const AttribCell &);
    } kindFamilies[] = {
        {"tpre_attrib_inst_built_total",
         "Instructions inserted, by origin, loop class and type",
         [](const AttribCell &c)
             -> const std::array<std::uint64_t, kNumInstKinds> & {
             return c.instBuilt;
         }},
        {"tpre_attrib_inst_served_total",
         "Instructions served, by origin, loop class and type",
         [](const AttribCell &c)
             -> const std::array<std::uint64_t, kNumInstKinds> & {
             return c.instServed;
         }},
    };
    for (const auto &f : kindFamilies) {
        familyHeader(out, f.family, f.help);
        for (std::size_t i = 0; i < kNumOrigins; ++i) {
            const auto origin = static_cast<TraceOrigin>(i);
            for (std::size_t c = 0; c < kNumLoopClasses; ++c) {
                const auto cls = static_cast<LoopClass>(c);
                const auto &counts = f.get(table.of(origin, cls));
                for (std::size_t k = 0; k < kNumInstKinds; ++k) {
                    out += std::string(f.family) + "{origin=\"" +
                           traceOriginName(origin) +
                           "\",loop_class=\"" + loopClassName(cls) +
                           "\",inst_type=\"" +
                           instKindName(
                               static_cast<InstKind>(k)) +
                           "\"} " + std::to_string(counts[k]) + "\n";
                }
            }
        }
    }
    return out;
}

namespace
{

/**
 * Process-wide ledger aggregate behind the /metrics scrape: every
 * finished Simulator run folds its tables in (the parallel sweep
 * publishes from worker threads, hence the mutex).
 */
struct PublishedLedgers
{
    std::mutex mutex;
    ProvenanceTable prov;
    AttribTable attrib;
};

PublishedLedgers &
publishedLedgers()
{
    static PublishedLedgers ledgers;
    return ledgers;
}

} // namespace

void
publishRunLedgers(const ProvenanceTable &prov,
                  const AttribTable &attrib)
{
    PublishedLedgers &pub = publishedLedgers();
    const std::lock_guard<std::mutex> lock(pub.mutex);
    pub.prov.add(prov);
    pub.attrib.add(attrib);
}

std::string
renderPublishedLedgers()
{
    PublishedLedgers &pub = publishedLedgers();
    const std::lock_guard<std::mutex> lock(pub.mutex);
    return renderProvenancePrometheus(pub.prov) +
           renderAttribPrometheus(pub.attrib);
}

void
resetPublishedLedgers()
{
    PublishedLedgers &pub = publishedLedgers();
    const std::lock_guard<std::mutex> lock(pub.mutex);
    pub.prov = ProvenanceTable();
    pub.attrib = AttribTable();
}

} // namespace tpre::telemetry

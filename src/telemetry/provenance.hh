/**
 * @file
 * Trace-provenance records (DESIGN.md section 12): who built each
 * trace-cache line — the preconstruction engine or the demand-path
 * fill unit — and what became of it. Every Trace carries its
 * origin and construction cycle; the TraceCache aggregates the
 * per-line outcomes (hits, first-use latency, eviction reason)
 * into a per-origin ProvenanceTable. That table is the paper's
 * Section 5 "useful preconstruction" question made a first-class
 * statistic: of the traces the engine built, how many were ever
 * fetched, how long after construction, and how many died unused.
 *
 * The types live in namespace tpre (not tpre::telemetry) because
 * the trace layer embeds them; the telemetry subsystem renders and
 * reconciles them. Bookkeeping is plain integer arithmetic on the
 * owning simulator's thread — no atomics, no obs macros — so the
 * table stays exact (and checkable) under TPRE_OBS_DISABLED.
 */

#ifndef TPRE_TELEMETRY_PROVENANCE_HH
#define TPRE_TELEMETRY_PROVENANCE_HH

#include <array>
#include <cstdint>
#include <string>

namespace tpre
{

/** Who assembled a trace. */
enum class TraceOrigin : std::uint8_t
{
    FillUnit = 0,  ///< demand path: segmented at commit, filled on miss
    Precon = 1,    ///< preconstruction engine, ahead of demand
};

inline constexpr std::size_t kNumOrigins = 2;

/** Stable lowercase name ("fill" / "precon") for reports. */
const char *traceOriginName(TraceOrigin origin);

/** Why a trace-cache line's lifetime ended. */
enum class EvictReason : std::uint8_t
{
    Capacity,    ///< displaced by an insert into a full set
    Refresh,     ///< overwritten in place by the same identity
    Invalidate,  ///< explicit invalidate()
    Clear,       ///< cache-wide clear()
};

/** Lifetime outcomes of the lines one origin built. */
struct OriginProvenance
{
    /** Lines inserted into the trace cache by this origin. */
    std::uint64_t builds = 0;
    /** Fetches served by this origin's lines. */
    std::uint64_t hits = 0;
    /** Lines that served at least one fetch. */
    std::uint64_t firstUses = 0;
    /** Sum over first uses of (use cycle - construction cycle). */
    std::uint64_t firstUseLatencySum = 0;
    std::uint64_t evictCapacity = 0;
    std::uint64_t evictRefresh = 0;
    std::uint64_t evictInvalidate = 0;
    std::uint64_t evictClear = 0;
    /** Evicted lines (any reason) that never served a fetch. */
    std::uint64_t evictedUnused = 0;

    std::uint64_t
    evictions() const
    {
        return evictCapacity + evictRefresh + evictInvalidate +
               evictClear;
    }

    /** Mean construction-to-first-use latency in cycles. */
    double
    meanFirstUseLatency() const
    {
        return firstUses == 0
                   ? 0.0
                   : static_cast<double>(firstUseLatencySum) /
                         static_cast<double>(firstUses);
    }
};

/** Per-origin provenance aggregate for one trace cache / run. */
struct ProvenanceTable
{
    std::array<OriginProvenance, kNumOrigins> origins;

    OriginProvenance &
    of(TraceOrigin origin)
    {
        return origins[static_cast<std::size_t>(origin)];
    }

    const OriginProvenance &
    of(TraceOrigin origin) const
    {
        return origins[static_cast<std::size_t>(origin)];
    }

    std::uint64_t totalBuilds() const;
    std::uint64_t totalHits() const;
    std::uint64_t totalEvictions() const;

    /** Accumulate another table field-wise (run aggregation). */
    void add(const ProvenanceTable &other);

    /**
     * Lines still resident: every build either was evicted (any
     * reason) or is still valid in the cache. The invariant
     * checkers pin this against TraceCache::numValid().
     */
    std::uint64_t
    resident() const
    {
        return totalBuilds() - totalEvictions();
    }
};

/**
 * The table as a JSON object keyed by origin name, e.g.
 *   {"fill": {"builds": N, "hits": N, ...}, "precon": {...}}
 * Used by the BENCH JSON rows.
 */
std::string renderProvenanceJson(const ProvenanceTable &table);

} // namespace tpre

#endif // TPRE_TELEMETRY_PROVENANCE_HH

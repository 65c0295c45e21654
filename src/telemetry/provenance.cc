#include "telemetry/provenance.hh"

namespace tpre
{

const char *
traceOriginName(TraceOrigin origin)
{
    return origin == TraceOrigin::Precon ? "precon" : "fill";
}

std::uint64_t
ProvenanceTable::totalBuilds() const
{
    std::uint64_t n = 0;
    for (const OriginProvenance &o : origins)
        n += o.builds;
    return n;
}

std::uint64_t
ProvenanceTable::totalHits() const
{
    std::uint64_t n = 0;
    for (const OriginProvenance &o : origins)
        n += o.hits;
    return n;
}

std::uint64_t
ProvenanceTable::totalEvictions() const
{
    std::uint64_t n = 0;
    for (const OriginProvenance &o : origins)
        n += o.evictions();
    return n;
}

void
OriginProvenance::add(const OriginProvenance &other)
{
    builds += other.builds;
    hits += other.hits;
    firstUses += other.firstUses;
    firstUseLatencySum += other.firstUseLatencySum;
    evictCapacity += other.evictCapacity;
    evictRefresh += other.evictRefresh;
    evictInvalidate += other.evictInvalidate;
    evictClear += other.evictClear;
    evictedUnused += other.evictedUnused;
}

void
ProvenanceTable::add(const ProvenanceTable &other)
{
    for (std::size_t i = 0; i < kNumOrigins; ++i)
        origins[i].add(other.origins[i]);
}

std::string
renderProvenanceJson(const ProvenanceTable &table)
{
    std::string out = "{";
    for (std::size_t i = 0; i < kNumOrigins; ++i) {
        const OriginProvenance &o = table.origins[i];
        if (i)
            out += ", ";
        out += "\"";
        out += traceOriginName(static_cast<TraceOrigin>(i));
        out += "\": {";
        out += "\"builds\": " + std::to_string(o.builds) + ", ";
        out += "\"hits\": " + std::to_string(o.hits) + ", ";
        out += "\"first_uses\": " + std::to_string(o.firstUses) + ", ";
        out += "\"first_use_latency_sum\": " +
               std::to_string(o.firstUseLatencySum) + ", ";
        out += "\"evict_capacity\": " + std::to_string(o.evictCapacity) +
               ", ";
        out += "\"evict_refresh\": " + std::to_string(o.evictRefresh) +
               ", ";
        out += "\"evict_invalidate\": " +
               std::to_string(o.evictInvalidate) + ", ";
        out += "\"evict_clear\": " + std::to_string(o.evictClear) + ", ";
        out += "\"evicted_unused\": " + std::to_string(o.evictedUnused) +
               "}";
    }
    out += "}";
    return out;
}

} // namespace tpre

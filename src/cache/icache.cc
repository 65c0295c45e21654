#include "cache/icache.hh"

namespace tpre
{

ICache::ICache(ICacheConfig config)
    : config_(config), tags_(config.geometry)
{
}

void
ICache::save(mem::ByteWriter &w) const
{
    tags_.save(w);
    w.put(stats_);
}

void
ICache::restore(mem::ByteReader &r)
{
    tags_.restore(r);
    stats_ = r.get<Stats>();
}

ICache::AccessResult
ICache::fetchLine(Addr addr, bool for_precon)
{
    const bool hit = tags_.access(addr);

    if (for_precon) {
        ++stats_.preconAccesses;
        if (!hit)
            ++stats_.preconMisses;
    } else {
        ++stats_.demandAccesses;
        if (!hit)
            ++stats_.demandMisses;
    }

    AccessResult res;
    res.hit = hit;
    res.latency = hit ? config_.hitLatency : config_.missLatency;
    return res;
}

void
ICache::clear()
{
    tags_.clear();
    stats_ = Stats();
}

} // namespace tpre

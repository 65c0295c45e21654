/**
 * @file
 * ICache: timing model of the level-one instruction cache (64 KB,
 * 4-way, 64 B lines, 1-cycle hit, 10-cycle L2 per Section 4.1),
 * with separate bookkeeping for demand (slow path) and
 * preconstruction accesses so Tables 1-3 can be reproduced.
 */

#ifndef TPRE_CACHE_ICACHE_HH
#define TPRE_CACHE_ICACHE_HH

#include "cache/set_assoc.hh"

namespace tpre
{

/** Instruction cache configuration; defaults match the paper. */
struct ICacheConfig
{
    CacheGeometry geometry{64 * 1024, 4, lineBytes};
    Cycle hitLatency = 1;
    /** L2 hit latency charged on a miss (L2 is perfect). */
    Cycle missLatency = 10;
};

/** Timing + stats wrapper around the I-cache tag store. */
class ICache
{
  public:
    struct AccessResult
    {
        bool hit = false;
        Cycle latency = 0;
    };

    /** Event counters; all per-simulation totals. */
    struct Stats
    {
        std::uint64_t demandAccesses = 0;
        std::uint64_t demandMisses = 0;
        std::uint64_t preconAccesses = 0;
        std::uint64_t preconMisses = 0;

        std::uint64_t totalMisses() const
        { return demandMisses + preconMisses; }
    };

    explicit ICache(ICacheConfig config = {});

    /**
     * Fetch the line containing @p addr. @p for_precon marks
     * preconstruction-engine fetches (they share the cache but are
     * counted separately).
     */
    AccessResult fetchLine(Addr addr, bool for_precon);

    /** Probe only (no allocation, no stats). */
    bool contains(Addr addr) const { return tags_.contains(addr); }

    Addr lineAddr(Addr addr) const { return tags_.lineAddr(addr); }

    const Stats &stats() const { return stats_; }
    const ICacheConfig &config() const { return config_; }

    void clear();

    /** Checkpoint/restore tags and counters. */
    void save(mem::ByteWriter &w) const;
    void restore(mem::ByteReader &r);

  private:
    ICacheConfig config_;
    SetAssocCache tags_;
    Stats stats_;
};

} // namespace tpre

#endif // TPRE_CACHE_ICACHE_HH

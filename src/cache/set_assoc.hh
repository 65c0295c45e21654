/**
 * @file
 * SetAssocCache: a generic set-associative tag store with LRU
 * replacement, tracking line presence only (no data — the
 * simulators fetch instruction bytes from the Program image). Used
 * for the instruction and data caches of Section 4.1.
 */

#ifndef TPRE_CACHE_SET_ASSOC_HH
#define TPRE_CACHE_SET_ASSOC_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"
#include "mem/checkpoint.hh"

namespace tpre
{

/** Geometry of a cache. */
struct CacheGeometry
{
    std::size_t sizeBytes = 64 * 1024;
    unsigned assoc = 4;
    unsigned lineBytes = tpre::lineBytes;

    std::size_t numLines() const { return sizeBytes / lineBytes; }
    std::size_t numSets() const { return numLines() / assoc; }
};

/** A tag-only set-associative cache with LRU replacement. */
class SetAssocCache
{
  public:
    explicit SetAssocCache(CacheGeometry geometry);

    /** Line-aligned address of the line containing @p addr. */
    Addr lineAddr(Addr addr) const
    { return addr & ~static_cast<Addr>(geometry_.lineBytes - 1); }

    /**
     * Access the line containing @p addr: on a hit the LRU state is
     * refreshed; on a miss the line is allocated (evicting LRU).
     *
     * @return true on hit.
     */
    bool access(Addr addr);

    /** Probe without allocating or touching LRU. */
    bool contains(Addr addr) const;

    /** Invalidate a line if present. */
    void invalidate(Addr addr);

    /** Drop all lines. */
    void clear();

    const CacheGeometry &geometry() const { return geometry_; }

    /** Checkpoint/restore the tag array and LRU clock. */
    void save(mem::ByteWriter &w) const;
    void restore(mem::ByteReader &r);

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;
    };

    std::size_t setOf(Addr addr) const;

    CacheGeometry geometry_;
    std::size_t numSets_;
    std::vector<Line> lines_;
    std::uint64_t useClock_ = 0;
};

} // namespace tpre

#endif // TPRE_CACHE_SET_ASSOC_HH

/**
 * @file
 * PrefetchCache: the small fully-associative instruction buffer
 * that decouples I-cache fetch from trace construction (Section
 * 3.3.1). Each of the four prefetch caches holds 256 instructions
 * (16 lines), belongs to one preconstruction region at a time, and
 * is allowed to "fill up": lines are never replaced, and when the
 * cache is full, preconstruction of its region terminates.
 */

#ifndef TPRE_CACHE_PREFETCH_CACHE_HH
#define TPRE_CACHE_PREFETCH_CACHE_HH

#include <vector>

#include "common/types.hh"
#include "mem/checkpoint.hh"

namespace tpre
{

/** A fill-up, fully-associative line buffer for one region. */
class PrefetchCache
{
  public:
    /** @param capacityInsts Capacity in instructions (paper: 256). */
    explicit PrefetchCache(unsigned capacityInsts = 256);

    Addr lineAddr(Addr addr) const
    { return addr & ~static_cast<Addr>(lineBytes - 1); }

    /**
     * Is the line containing @p addr resident? Inline: probed for
     * every preconstruction path step.
     */
    bool
    contains(Addr addr) const
    {
        const Addr line = lineAddr(addr);
        for (Addr have : lines_)
            if (have == line)
                return true;
        return false;
    }

    /**
     * Add the line containing @p addr.
     * @return false when the cache is full (region must terminate);
     *         true if the line was added or already present.
     */
    bool insertLine(Addr addr);

    bool full() const { return lines_.size() >= capacityLines_; }
    std::size_t numLines() const { return lines_.size(); }
    std::size_t numInsts() const
    { return lines_.size() * instsPerLine; }
    unsigned capacityInsts() const
    { return capacityLines_ * instsPerLine; }

    /** Empty the cache for reuse by a new region. */
    void clear() { lines_.clear(); }

    /** Checkpoint/restore the resident line set. */
    void save(mem::ByteWriter &w) const;
    void restore(mem::ByteReader &r);

  private:
    unsigned capacityLines_;
    /** Small (<= 16 entries): linear search beats hashing here. */
    std::vector<Addr> lines_;
};

} // namespace tpre

#endif // TPRE_CACHE_PREFETCH_CACHE_HH

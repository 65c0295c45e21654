/**
 * @file
 * PreconstructionBuffers: the trace-side analogue of prefetch
 * buffers (Section 3.1). Organized like the trace cache (set
 * associative, 2 ways by default, indexed by hashing start address
 * with branch outcomes), but replacement is by *region priority*:
 * newer regions displace older ones, and a trace never displaces a
 * trace of its own region — which is what bounds preconstruction
 * effort within a region.
 *
 * Section 5.1's single trace cache with some entries reserved for
 * preconstruction needs no separate store: with a fixed
 * reservation of w of its A ways, it is a trace cache of A - w
 * ways plus buffers of w ways over the same number of sets.
 */

#ifndef TPRE_PRECON_BUFFERS_HH
#define TPRE_PRECON_BUFFERS_HH

#include <functional>
#include <vector>

#include "mem/checkpoint.hh"
#include "trace/trace.hh"

namespace tpre
{

/** The preconstruction trace buffers. */
class PreconstructionBuffers
{
  public:
    PreconstructionBuffers(std::size_t numEntries, unsigned assoc = 2);

    /**
     * Probe for a trace (accessed in parallel with the trace
     * cache). The caller copies a hit into the trace cache and
     * then calls invalidate().
     */
    const Trace *lookup(const TraceId &id) const;

    bool contains(const TraceId &id) const;

    /**
     * Insert a freshly constructed trace on behalf of region
     * @p regionSeq (monotonically increasing region identifier;
     * larger = more recent = higher priority).
     *
     * @return false when refused: the only eviction candidates
     *         belong to the same or a newer region.
     */
    bool insert(const Trace &trace, std::uint64_t regionSeq);

    /** Remove a trace (after it is copied to the trace cache). */
    bool invalidate(const TraceId &id);

    void clear();

    /** Visit every valid entry (tpre::check invariant sweeps). */
    void forEachValid(
        const std::function<void(const Trace &, std::uint64_t)> &fn)
        const;

    std::size_t numEntries() const { return entries_.size(); }
    std::size_t numValid() const;
    /** Storage capacity in bytes (64 B per entry, as the paper). */
    std::size_t sizeBytes() const
    { return entries_.size() * maxTraceLen * instBytes; }

    /** Checkpoint/restore every entry and its region ownership. */
    void save(mem::ByteWriter &w) const;
    void restore(mem::ByteReader &r);

  private:
    struct Entry
    {
        bool valid = false;
        std::uint64_t regionSeq = 0;
        Trace trace;
    };

    std::size_t setOf(const TraceId &id) const;

    unsigned assoc_;
    std::size_t numSets_;
    std::vector<Entry> entries_;
};

} // namespace tpre

#endif // TPRE_PRECON_BUFFERS_HH

/**
 * @file
 * PreconstructionBuffers: the trace-side analogue of prefetch
 * buffers (Section 3.1). Organized exactly like the trace cache
 * (2-way set associative, indexed by hashing start address with
 * branch outcomes), but replacement is by *region priority*: newer
 * regions displace older ones, and a trace never displaces a trace
 * of its own region — which is what bounds preconstruction effort
 * within a region.
 */

#ifndef TPRE_PRECON_BUFFERS_HH
#define TPRE_PRECON_BUFFERS_HH

#include <functional>
#include <vector>

#include "mem/checkpoint.hh"
#include "trace/trace.hh"

namespace tpre
{

/**
 * Abstract destination for preconstructed traces. The default
 * implementation is the stand-alone PreconstructionBuffers below;
 * UnifiedTraceCache provides a way-partitioned alternative that
 * shares storage with the primary trace cache (the dynamic
 * allocation the paper suggests as future work in Section 5.1).
 */
class PreconStore
{
  public:
    virtual ~PreconStore() = default;

    /** Probe for a trace (parallel with the trace cache). */
    virtual const Trace *lookup(const TraceId &id) const = 0;

    /** Insert a trace on behalf of region @p regionSeq.
     *  @return false when refused (resource bound). */
    virtual bool insert(const Trace &trace,
                        std::uint64_t regionSeq) = 0;

    /** Remove a trace (after copying it to the trace cache). */
    virtual bool invalidate(const TraceId &id) = 0;
};

/** The preconstruction trace buffers. */
class PreconstructionBuffers : public PreconStore
{
  public:
    PreconstructionBuffers(std::size_t numEntries, unsigned assoc = 2);

    /**
     * Probe for a trace (accessed in parallel with the trace
     * cache). The caller copies a hit into the trace cache and
     * then calls invalidate().
     */
    const Trace *lookup(const TraceId &id) const override;

    bool contains(const TraceId &id) const;

    /**
     * Insert a freshly constructed trace on behalf of region
     * @p regionSeq (monotonically increasing region identifier;
     * larger = more recent = higher priority).
     *
     * @return false when refused: the only eviction candidates
     *         belong to the same or a newer region.
     */
    bool insert(const Trace &trace,
                std::uint64_t regionSeq) override;

    /** Remove a trace (after it is copied to the trace cache). */
    bool invalidate(const TraceId &id) override;

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

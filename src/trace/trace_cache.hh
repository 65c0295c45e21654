/**
 * @file
 * TraceCache: 2-way set-associative storage of traces, indexed by a
 * hash of the trace identity (start PC + branch outcomes), with LRU
 * replacement — the organization from Section 4.1. The same class
 * backs the primary trace cache; the preconstruction buffers extend
 * it with region-priority replacement (precon/buffers.hh).
 */

#ifndef TPRE_TRACE_TRACE_CACHE_HH
#define TPRE_TRACE_TRACE_CACHE_HH

#include <cstddef>
#include <vector>

#include "telemetry/attrib.hh"
#include "trace/trace.hh"

namespace tpre
{

/** A set-associative cache of traces. */
class TraceCache
{
  public:
    /**
     * @param numEntries Total trace entries (e.g. 64 .. 1024); one
     *        entry stores one 16-instruction trace (64 bytes of
     *        instruction storage, matching the paper's sizing).
     * @param assoc Set associativity (paper: 2).
     */
    TraceCache(std::size_t numEntries, unsigned assoc = 2);

    /** Look up a trace; updates LRU on hit. nullptr on miss. */
    const Trace *lookup(const TraceId &id);

    /** Probe without disturbing replacement state. */
    bool contains(const TraceId &id) const;

    /**
     * Insert a trace, evicting the set's LRU entry if needed.
     *
     * @param servedAtInsert The caller dispatches the stored image
     *        directly (preconstruction-buffer promotion on the
     *        fast path inserts-then-serves without a second
     *        lookup); the provenance ledger records the serve as a
     *        hit and the line's first use.
     *
     * @return the stored image, so hit paths that insert-then-serve
     *         (preconstruction-buffer promotion) need no second
     *         probe.
     */
    const Trace *insert(const Trace &trace,
                        bool servedAtInsert = false);

    /** Remove a trace if present; returns true when removed. */
    bool invalidate(const TraceId &id);

    /** Drop everything. */
    void clear();

    std::size_t numEntries() const { return entries_.size(); }
    unsigned assoc() const { return assoc_; }
    std::size_t numSets() const { return numSets_; }
    /** Trace storage capacity in bytes (64 B per entry). */
    std::size_t sizeBytes() const
    { return entries_.size() * maxTraceLen * instBytes; }
    /** Number of currently valid entries. */
    std::size_t numValid() const;

    /**
     * Advance the provenance clock. Simulators call this with
     * their cycle count before each lookup/insert burst so
     * first-use latencies are measured in simulated cycles; code
     * that never calls it (unit tests, the preconstruction
     * buffers' base usage) keeps a zero clock and simply records
     * zero latencies.
     */
    void
    advanceTo(Cycle now)
    {
        if (now > now_)
            now_ = now;
    }

    /**
     * The lifetime ledger of every line this cache held, counted
     * once per (origin × loop-class) cell with instruction-type
     * histograms.
     */
    const AttribTable &attrib() const { return attrib_; }

    /** The ledger summed over loop classes, per origin. */
    ProvenanceTable provenance() const { return attrib_.provenance(); }

    /** Checkpoint/restore entries, LRU state and the ledger. */
    void save(mem::ByteWriter &w) const;
    void restore(mem::ByteReader &r);

  protected:
    struct Entry
    {
        bool valid = false;
        std::uint64_t lastUse = 0;
        /** Fetches this line has served since its insert. */
        std::uint64_t hits = 0;
        Trace trace;
        /**
         * Attribution class, computed once at insert (the body is
         * immutable while resident); recomputed from the trace on
         * checkpoint restore rather than serialized.
         */
        TraceClass cls;
    };

    std::size_t setOf(const TraceId &id) const;
    Entry *findEntry(const TraceId &id);
    const Entry *findEntry(const TraceId &id) const;
    /** Pick the victim entry in @p set (invalid first, then LRU). */
    Entry &victimIn(std::size_t set);

    Entry &entryAt(std::size_t set, unsigned way);

    std::uint64_t tick() { return ++useClock_; }

    /** Record a serve on @p entry (lookup hit or promote-serve). */
    void recordUse(Entry &entry);
    /** Close @p entry's ledger record with @p reason. */
    void recordEviction(const Entry &entry, EvictReason reason);

  private:
    unsigned assoc_;
    std::size_t numSets_;
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;
    /** Provenance clock (simulated cycles); see advanceTo(). */
    Cycle now_ = 0;
    AttribTable attrib_;
};

} // namespace tpre

#endif // TPRE_TRACE_TRACE_CACHE_HH

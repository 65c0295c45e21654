/**
 * @file
 * Region: one active preconstruction region — a start point, the
 * prefetch cache holding its fetched static instructions, and the
 * small worklist of trace start points that directs breadth-first
 * traversal of the region's dynamic execution tree (Section 2.1).
 */

#ifndef TPRE_PRECON_REGION_HH
#define TPRE_PRECON_REGION_HH

#include <vector>

#include "cache/prefetch_cache.hh"
#include "mem/checkpoint.hh"
#include "precon/start_point_stack.hh"
#include "trace/selector.hh"

namespace tpre
{

/**
 * Insert-only open-addressing set of addresses. Replaces the
 * unordered_set that deduplicated region start points: every
 * completed trace offers a continuation, so the per-insert node
 * allocation (and per-region bucket array) of the node-based set
 * was measurable on the preconstruction hot path. Linear probing
 * over a power-of-two table at <= 50% load; invalidAddr marks an
 * empty slot and is not storable (Region never offers it).
 */
class AddrSet
{
  public:
    bool
    contains(Addr addr) const
    {
        if (slots_.empty())
            return false;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = probe(addr) & mask;;
             i = (i + 1) & mask) {
            if (slots_[i] == invalidAddr)
                return false;
            if (slots_[i] == addr)
                return true;
        }
    }

    void
    insert(Addr addr)
    {
        if (slots_.empty())
            slots_.assign(32, invalidAddr);
        else if ((count_ + 1) * 2 > slots_.size())
            grow();
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = probe(addr) & mask;;
             i = (i + 1) & mask) {
            if (slots_[i] == addr)
                return;
            if (slots_[i] == invalidAddr) {
                slots_[i] = addr;
                ++count_;
                return;
            }
        }
    }

    /** Checkpoint/restore the slot table wholesale. */
    void
    save(mem::ByteWriter &w) const
    {
        w.put<std::uint64_t>(slots_.size());
        w.putArray(slots_.data(), slots_.size());
        w.put<std::uint64_t>(count_);
    }

    void
    restore(mem::ByteReader &r)
    {
        slots_.resize(r.get<std::uint64_t>());
        r.getArray(slots_.data(), slots_.size());
        count_ = static_cast<std::size_t>(r.get<std::uint64_t>());
    }

  private:
    static std::size_t
    probe(Addr addr)
    {
        // Fibonacci hashing on the instruction index.
        return static_cast<std::size_t>(
            (addr / instBytes) * 0x9E3779B97F4A7C15ull >> 32);
    }

    void
    grow()
    {
        std::vector<Addr> old = std::move(slots_);
        slots_.assign(old.size() * 2, invalidAddr);
        count_ = 0;
        for (Addr a : old) {
            if (a != invalidAddr)
                insert(a);
        }
    }

    std::vector<Addr> slots_;
    std::size_t count_ = 0;
};

/** Tunables of the preconstruction mechanism (Section 3). */
struct PreconPolicy
{
    /** Trace start points a region worklist can hold. */
    unsigned worklistMax = 8;
    /** Internal decision-stack depth of each trace constructor. */
    unsigned decisionDepth = 4;
    /** Cap on traces generated from one trace start point. */
    unsigned maxTracesPerStart = 6;
    /**
     * For loop-exit regions, additionally seed start points at
     * +4, +8, ... instructions so one of them meets the
     * processor's multiple-of-4 trace ending (Section 2.2); 1
     * seeds only the exit itself.
     */
    unsigned loopExitAlignSeeds = 4;
    /** Depth of the constructor's intra-path call stack. */
    unsigned callStackDepth = 8;
    /** Shared trace-selection rules (must match the fill unit). */
    SelectionPolicy selection;
};

/** Lifecycle of a region. */
enum class RegionState : std::uint8_t
{
    Active,
    /** Terminated: catch-up, resource bound, or work exhausted. */
    Done,
};

/** Why a region ended (stats). */
enum class RegionEndReason : std::uint8_t
{
    Completed,     ///< worklist drained
    CaughtUp,      ///< processor reached the region start
    PrefetchFull,  ///< prefetch cache filled up
    BuffersFull,   ///< preconstruction buffers refused a trace
    Warm,          ///< leading traces all already in the trace cache
};

/** One active preconstruction region. */
class Region
{
  public:
    /**
     * @param seq Monotonically increasing region id; also the
     *        replacement priority in the preconstruction buffers.
     * @param origin The start point that spawned the region.
     * @param prefetchCapacity Prefetch cache capacity in insts.
     */
    Region(std::uint64_t seq, StartPoint origin,
           unsigned prefetchCapacity, const PreconPolicy &policy);

    std::uint64_t seq() const { return seq_; }
    Addr startAddr() const { return origin_.addr; }
    StartPointKind kind() const { return origin_.kind; }

    PrefetchCache &prefetch() { return prefetch_; }

    /**
     * Offer a new trace start point (deduplicated against
     * everything this region has already seen; bounded worklist).
     */
    void addStartPoint(Addr addr);

    /** Any trace start points waiting? */
    bool worklistEmpty() const { return worklist_.empty(); }

    /** Take the next trace start point (FIFO: breadth-first). */
    Addr takeStartPoint();

    RegionState state() const { return state_; }
    void finish(RegionEndReason reason);
    RegionEndReason endReason() const { return endReason_; }

    /** Constructors currently working on this region. */
    unsigned workers = 0;

    /** Outstanding I-cache line fills (non-blocking cache). */
    struct PendingFetch
    {
        Addr line = invalidAddr;
        Cycle readyAt = 0;
    };
    std::vector<PendingFetch> pendingFetches;

    bool hasPending(Addr line) const;

    /** Lines the constructors are stalled on (deduplicated). */
    std::vector<Addr> neededLines;

    void noteNeededLine(Addr line);

    /** Stats: traces this region put into the buffers. */
    std::uint64_t tracesConstructed = 0;

    /** Engine bookkeeping: termination already accounted for. */
    bool reaped = false;

    /** Traces the buffers refused (resource-bound detection). */
    unsigned bufferRefusals = 0;
    /** Consecutive leading traces found already in the TC. */
    unsigned leadingWarmTraces = 0;
    /** Total traces emitted (warm or buffered). */
    unsigned tracesEmitted = 0;

    /** Engine cycle when the region started (obs region span). */
    Cycle obsStartCycle = 0;

    /**
     * Checkpoint/restore all mutable state. Identity (seq, origin)
     * and policy are not serialized here: the engine reconstructs
     * the region from them and then overwrites the ctor-seeded
     * worklist with the saved one.
     */
    void save(mem::ByteWriter &w) const;
    void restore(mem::ByteReader &r);

  private:
    std::uint64_t seq_;
    StartPoint origin_;
    PreconPolicy policy_;
    PrefetchCache prefetch_;
    std::vector<Addr> worklist_;
    AddrSet seenStarts_;
    RegionState state_ = RegionState::Active;
    RegionEndReason endReason_ = RegionEndReason::Completed;
};

} // namespace tpre

#endif // TPRE_PRECON_REGION_HH

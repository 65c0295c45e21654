/**
 * @file
 * StartPointStack: the small hardware stack of candidate region
 * start points (Section 3.2). Start points are pushed when calls
 * and backward branches are observed in the dispatch stream;
 * newest-first priority tends to preconstruct the regions the
 * processor will reach soonest. A few extra slots remember recently
 * completed regions so work is not redone.
 */

#ifndef TPRE_PRECON_START_POINT_STACK_HH
#define TPRE_PRECON_START_POINT_STACK_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/checkpoint.hh"

namespace tpre
{

/** What kind of program construct produced a region start point. */
enum class StartPointKind : std::uint8_t
{
    CallReturn,  ///< instruction after a procedure call
    LoopExit,    ///< fall-through of a backward branch
};

/** A candidate region start point. */
struct StartPoint
{
    Addr addr = invalidAddr;
    StartPointKind kind = StartPointKind::CallReturn;
};

/** Checkpoint one start point field by field (it has padding). */
inline void
saveStartPoint(mem::ByteWriter &w, const StartPoint &sp)
{
    w.put(sp.addr);
    w.put(sp.kind);
}

inline StartPoint
restoreStartPoint(mem::ByteReader &r)
{
    return StartPoint{r.get<Addr>(), r.get<StartPointKind>()};
}

/** Fixed-depth newest-first stack with completed-region memory. */
class StartPointStack
{
  public:
    StartPointStack(unsigned depth = 16, unsigned completedSlots = 4);

    /**
     * Push a candidate start point observed in the dispatch
     * stream. Ignored when it matches the current top of stack or
     * a recently completed region. When full, the oldest entry is
     * discarded.
     *
     * @return true when actually pushed.
     */
    bool push(Addr addr, StartPointKind kind);

    bool empty() const { return stack_.empty(); }
    std::size_t size() const { return stack_.size(); }

    /** Take the newest (highest-priority) start point. */
    StartPoint pop();

    /** Peek at the newest entry without removing it. */
    const StartPoint &top() const;

    /**
     * Remove any entry with this address: the processor's
     * execution has reached the region, so preconstructing it is
     * no longer useful. Inline: probed for every dispatched
     * instruction, and the common case is a short scan with no
     * match.
     */
    void
    removeReached(Addr addr)
    {
        // One-word prefilter: a clear signature bit proves the
        // address is not on the stack, so the (vastly) common
        // no-match case costs a mask test instead of a scan.
        if (!(sig_ & sigBit(addr)))
            return;
        for (const StartPoint &sp : stack_) {
            if (sp.addr == addr) {
                eraseAll(addr);
                return;
            }
        }
    }

    /** Is @p addr anywhere on the stack? */
    bool contains(Addr addr) const;

    /** Record that preconstruction completed for a region. */
    void markCompleted(Addr addr);

    /** Was a region at @p addr completed recently? */
    bool completedRecently(Addr addr) const;

    void clear();

    unsigned depth() const { return depth_; }

    /** Checkpoint/restore entries, signature and completed memory. */
    void save(mem::ByteWriter &w) const;
    void restore(mem::ByteReader &r);

  private:
    /** Cold path: drop every entry at @p addr (duplicates exist). */
    void eraseAll(Addr addr);

    /** Signature bit of an address (low pc bits above alignment). */
    static std::uint64_t
    sigBit(Addr addr)
    {
        return std::uint64_t(1) << ((addr / instBytes) & 63);
    }

    /** Recompute sig_ from the live entries (after any removal). */
    void
    rebuildSig()
    {
        sig_ = 0;
        for (const StartPoint &sp : stack_)
            sig_ |= sigBit(sp.addr);
    }

    unsigned depth_;
    unsigned completedSlots_;
    /** Newest entry at the back. */
    std::vector<StartPoint> stack_;
    /** Superset signature of the addresses on the stack. */
    std::uint64_t sig_ = 0;
    /** Recently completed region starts, newest at the back. */
    std::vector<Addr> completed_;
};

} // namespace tpre

#endif // TPRE_PRECON_START_POINT_STACK_HH

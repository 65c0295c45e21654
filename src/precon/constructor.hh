/**
 * @file
 * PreconConstructor: one of the (four) parallel trace constructors
 * of Section 3.3.2 / 3.4. Given a trace start point within a
 * region, it walks forward through the *static* program, following
 * strongly-biased conditional branches in their dominant direction
 * and forking on unbiased ones via a small internal decision stack
 * (not-taken path first), and emits every completed trace. It
 * terminates paths at indirect jumps with unresolvable targets.
 */

#ifndef TPRE_PRECON_CONSTRUCTOR_HH
#define TPRE_PRECON_CONSTRUCTOR_HH

#include <vector>

#include "bpred/bimodal.hh"
#include "isa/program.hh"
#include "mem/checkpoint.hh"
#include "precon/region.hh"

namespace tpre
{

/** Where completed preconstructed traces go (the engine). */
class PreconTraceSink
{
  public:
    virtual ~PreconTraceSink() = default;

    /**
     * A constructor finished a trace for @p region. The trace is
     * passed by mutable reference — it still lives in the
     * constructor's builder; the sink stamps provenance onto it and
     * copies it onward, sparing the hand-off copy an rvalue
     * signature would force.
     * @return false when the trace could not be buffered (the
     *         region hit its resource bound and must terminate).
     */
    virtual bool emitTrace(Region &region, Trace &trace) = 0;
};

/**
 * A recorded or prescribed sequence of conditional-branch outcomes
 * along one constructor path. A path ends at its first completed
 * trace, so it holds at most maxTraceLen decisions plus the one bit
 * a fork appends — a plain 64-bit word replaces the heap-backed
 * vector<bool> the decision stack used to copy on every fork.
 */
struct DecisionPath
{
    std::uint64_t bits = 0;
    std::uint8_t len = 0;

    std::size_t size() const { return len; }

    bool
    operator[](std::size_t i) const
    {
        tpre_assert(i < len);
        return (bits >> i) & 1;
    }

    void
    push_back(bool taken)
    {
        tpre_assert(len < 64, "decision path overflow");
        bits |= std::uint64_t(taken) << len;
        ++len;
    }
};

/** One parallel trace-constructor unit. */
class PreconConstructor
{
  public:
    PreconConstructor(const Program &program,
                      const BimodalPredictor &bimodal,
                      const PreconPolicy &policy);

    bool idle() const { return region_ == nullptr; }
    Region *region() const { return region_; }
    /** Waiting on a prefetch line (engine no-op-cycle detection). */
    bool stalled() const { return stalled_; }

    /** Begin working on a trace start point of @p region. */
    void assign(Region &region, Addr startPc);

    /** Abandon all work (region terminated). */
    void abandon();

    /**
     * Advance by up to @p instBudget instructions. May stall on a
     * missing prefetch-cache line (registered with the region) or
     * finish the start point (constructor goes idle).
     *
     * @return instructions actually processed.
     */
    unsigned tick(unsigned instBudget, PreconTraceSink &sink);

    /**
     * Checkpoint/restore mid-path. The region association is
     * serialized by the engine as a region index (the pointer
     * fix-up); restore() receives the resolved pointer and does not
     * touch the region's worker count — it was saved consistently.
     */
    void save(mem::ByteWriter &w) const;
    void restore(mem::ByteReader &r, Region *region);

  private:
    /** Begin (or restart) a path for the current start point. */
    void beginPath(DecisionPath prescribed);
    /** Process one instruction; false = stalled on a line fetch. */
    bool stepOne(PreconTraceSink &sink);
    /** Builder completed a trace: emit it and end the path. */
    void finishTrace(Addr resumeAfterReturn, PreconTraceSink &sink);
    /** Current path ended: backtrack or finish the start point. */
    void pathDone(bool regionStopped);

    const Program &program_;
    const BimodalPredictor &bimodal_;
    PreconPolicy policy_;

    Region *region_ = nullptr;
    Addr startPc_ = invalidAddr;

    TraceBuilder builder_;
    Addr pc_ = invalidAddr;
    /** Conditional-branch outcomes recorded along this path. */
    DecisionPath decisions_;
    /** How many of decisions_ are replayed prescriptions. */
    std::size_t decIndex_ = 0;
    /** Alternative paths to explore (decision-stack backtracking). */
    std::vector<DecisionPath> pendingPaths_;
    /** Remaining forks allowed for this start point. */
    unsigned forkBudget_ = 0;
    /** Intra-path call stack for resolving returns. */
    std::vector<Addr> callStack_;
    bool callStackBroken_ = false;
    unsigned tracesFromStart_ = 0;
    bool pathActive_ = false;
    /**
     * Stalled on a line fetch. While the region's prefetch cache
     * holds exactly stallFill_ lines nothing has changed since the
     * stall (fill-up semantics: lines only arrive, never leave), so
     * a re-attempt would redo the same miss scans and stall again —
     * tick() skips it outright. Any arrival bumps the line count
     * and re-runs the real step logic.
     */
    bool stalled_ = false;
    std::size_t stallFill_ = 0;
};

} // namespace tpre

#endif // TPRE_PRECON_CONSTRUCTOR_HH

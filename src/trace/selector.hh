/**
 * @file
 * Trace selection: the termination rules that segment an
 * instruction stream into traces. The processor's fill unit and the
 * preconstruction constructors share one TraceBuilder implementation
 * so that preconstructed traces align with the traces the processor
 * will actually request (Section 2.2 of the paper).
 *
 * Rules (in priority order, applied after appending an instruction):
 *   1. returns, indirect jumps and Halt always end the trace;
 *   2. if the trace contains a backward conditional branch, it may
 *      only end a multiple of four instructions beyond the most
 *      recent one (the paper's alignment heuristic);
 *   3. otherwise it ends at 16 instructions.
 */

#ifndef TPRE_TRACE_SELECTOR_HH
#define TPRE_TRACE_SELECTOR_HH

#include "common/logging.hh"
#include "trace/trace.hh"

namespace tpre
{

/** Tunables for trace selection; defaults match the paper. */
struct SelectionPolicy
{
    /** Maximum instructions per trace. */
    unsigned maxLen = maxTraceLen;
    /**
     * Granularity of the ends-beyond-backward-branch rule; 0
     * disables the alignment heuristic entirely (ablation knob).
     */
    unsigned alignGranule = 4;
};

/**
 * Incrementally assembles one trace from a stream of (instruction,
 * outcome) pairs, applying the shared termination rules.
 */
class TraceBuilder
{
  public:
    explicit TraceBuilder(SelectionPolicy policy = {});

    /** Begin a new trace at @p startPc. Builder must be idle. */
    void begin(Addr startPc);

    /** A trace is being assembled and has not yet terminated. */
    bool active() const { return active_; }

    /** Number of instructions appended so far. */
    unsigned len() const { return trace_.insts.size(); }

    /**
     * Append the next instruction along the path. @p taken is the
     * (actual or assumed) outcome for conditional branches.
     *
     * Defined inline: both the fill unit and every preconstruction
     * constructor call this once per path instruction, so it is the
     * single hottest function in the simulator.
     *
     * @return true when the trace is complete after this
     *         instruction; retrieve it with take().
     */
    bool
    append(const Instruction &inst, Addr pc, bool taken, Addr nextPc)
    {
        tpre_assert(active_, "append() without begin()");
        tpre_assert(pc == nextPc_, "append() off the embedded path");
        tpre_assert(len() < policy_.maxLen,
                    "append() past trace end");

        // Normalize the taken flag so demand-built and
        // preconstructed images of the same trace are
        // bit-identical: it carries information only for
        // conditional branches; unconditional transfers always
        // "take".
        const bool stored_taken =
            inst.isCondBranch()
                ? taken
                : inst.isDirectJump() || inst.isIndirectJump() ||
                      inst.isReturn();
        trace_.insts.emplace_back(pc, inst, stored_taken,
                                  static_cast<std::uint8_t>(len()));
        nextPc_ = nextPc;

        if (inst.isCondBranch()) {
            tpre_assert(trace_.id.numBranches < 16);
            if (taken)
                trace_.id.branchFlags |=
                    std::uint16_t(1) << trace_.id.numBranches;
            ++trace_.id.numBranches;
            if (inst.isBackwardBranch()) {
                lastBackward_ = static_cast<int>(len()) - 1;
                targetLen_ = computeTargetLen();
            }
        }

        // Rule 1: hard terminators.
        if (inst.isReturn()) {
            trace_.endReason = TraceEndReason::Return;
            trace_.fallThrough = invalidAddr;
            return true;
        }
        if (inst.isIndirectJump()) {
            trace_.endReason = TraceEndReason::IndirectJump;
            trace_.fallThrough = invalidAddr;
            return true;
        }
        if (inst.op == Opcode::Halt) {
            trace_.endReason = TraceEndReason::Halt;
            trace_.fallThrough = invalidAddr;
            return true;
        }

        // Rules 2 and 3: length-based termination.
        const unsigned target = targetLen();
        tpre_assert(len() <= target,
                    "alignment target moved backwards");
        if (len() == target) {
            trace_.endReason = (lastBackward_ >= 0 &&
                                target != policy_.maxLen)
                                   ? TraceEndReason::Alignment
                                   : TraceEndReason::MaxLength;
            trace_.fallThrough = nextPc;
            return true;
        }
        return false;
    }

    /**
     * Instructions the length rules still allow before forcing
     * termination (always >= 1 while active). Non-control
     * instructions can neither hard-terminate a trace (rule 1) nor
     * move the alignment target (rule 2 keys on backward branches),
     * so a straight-line run of up to roomLeft() instructions is
     * guaranteed to hit no termination rule before the last one —
     * the invariant appendRun() builds on.
     */
    unsigned
    roomLeft() const
    {
        tpre_assert(active_, "roomLeft() without begin()");
        return targetLen() - static_cast<unsigned>(len());
    }

    /**
     * Append a straight-line run of @p n non-control instructions
     * whose pre-decoded image starts at @p insts and whose first
     * address is @p pc (block dispatch, DESIGN.md section 14).
     * Exactly equivalent to n append() calls — same stored records,
     * same end reason, same fall-through — but the termination
     * rules are evaluated once for the run instead of once per
     * instruction.
     * Requires 1 <= n <= roomLeft().
     *
     * @return true when the run filled the trace to its target
     *         length; retrieve it with take().
     */
    bool
    appendRun(const Instruction *insts, Addr pc, unsigned n)
    {
        tpre_assert(active_, "appendRun() without begin()");
        tpre_assert(pc == nextPc_, "appendRun() off the embedded path");
        const unsigned target = targetLen();
        tpre_assert(n >= 1 && len() + n <= target,
                    "appendRun() past trace end");
        unsigned idx = static_cast<unsigned>(len());
        for (unsigned i = 0; i < n; ++i) {
            tpre_assert(!insts[i].isControl(),
                        "appendRun() with a control transfer");
            // stored_taken for non-control instructions normalizes
            // to false, exactly as append() stores it.
            trace_.insts.emplace_back(pc, insts[i], false,
                                      static_cast<std::uint8_t>(idx++));
            pc += instBytes;
        }
        nextPc_ = pc;
        if (len() == target) {
            trace_.endReason = (lastBackward_ >= 0 &&
                                target != policy_.maxLen)
                                   ? TraceEndReason::Alignment
                                   : TraceEndReason::MaxLength;
            trace_.fallThrough = pc;
            return true;
        }
        return false;
    }

    /**
     * Finalize and return the completed trace; resets the builder.
     * Only legal after append() returned true, or for flushing a
     * non-empty partial trace at end of simulation.
     */
    Trace take();

    /**
     * Finalize the completed trace *in place*: identical to take()
     * except the trace stays owned by the builder (valid until the
     * next begin()/abandon()). Lets a caller that only copies the
     * trace onward skip take()'s intermediate copy of the inline
     * instruction storage.
     */
    Trace &finalize();

    /** Abandon the current partial trace. */
    void abandon();

    /**
     * Checkpoint/restore the builder mid-assembly, including the
     * partial trace: a restored builder continues segmenting
     * exactly where the saved one stopped (mid-trace snapshot
     * points depend on this).
     */
    void save(mem::ByteWriter &w) const;
    void restore(mem::ByteReader &r);

    const SelectionPolicy &policy() const { return policy_; }

  private:
    /**
     * Length at which rules 2/3 will terminate the current trace.
     * Cached: it changes only at begin() and when a backward branch
     * is appended, but is consulted on every append/appendRun (the
     * recompute costs an integer division, which was measurable on
     * the hot path).
     */
    unsigned targetLen() const { return targetLen_; }

    /** Recompute the rule-2/3 termination length from scratch. */
    unsigned
    computeTargetLen() const
    {
        if (lastBackward_ < 0 || policy_.alignGranule == 0)
            return policy_.maxLen;
        // End a multiple of alignGranule instructions beyond the
        // most recent backward branch; pick the largest length
        // that still fits under the cap.
        const unsigned beyond_base =
            static_cast<unsigned>(lastBackward_) + 1;
        const unsigned room = policy_.maxLen - beyond_base;
        return beyond_base + policy_.alignGranule *
                             (room / policy_.alignGranule);
    }

    SelectionPolicy policy_;
    Trace trace_;
    bool active_ = false;
    /** Position of the most recent backward branch, or -1. */
    int lastBackward_ = -1;
    /** Cached computeTargetLen() for the current trace. */
    unsigned targetLen_ = 0;
    Addr nextPc_ = invalidAddr;
};

} // namespace tpre

#endif // TPRE_TRACE_SELECTOR_HH

/**
 * @file
 * Intra-trace dataflow analysis used by the preprocessing passes:
 * per-instruction register def/use masks, producer links and
 * basic-block segmentation (control instructions end segments).
 * Everything is sized by kMaxTraceLen, so no pass allocates.
 */

#ifndef TPRE_PREP_DATAFLOW_HH
#define TPRE_PREP_DATAFLOW_HH

#include <array>

#include "trace/trace.hh"

namespace tpre
{

/** Register set: bit r is register r. */
using RegMask = std::uint32_t;
static_assert(numArchRegs <= 32);

/** Set of trace positions: bit i is instruction i. */
using PosMask = std::uint32_t;
static_assert(kMaxTraceLen < 32);

/** Registers @p inst reads (r0 included when it is a source). */
inline RegMask
useMask(const Instruction &inst)
{
    RegMask m = 0;
    if (inst.numSources() >= 1)
        m |= RegMask{1} << inst.rs1;
    if (inst.readsRs2())
        m |= RegMask{1} << inst.rs2;
    return m;
}

/** Register @p inst writes, as a set (empty for r0 and no-dest). */
inline RegMask
defMask(const Instruction &inst)
{
    return inst.writesReg() ? RegMask{1} << inst.rd : 0;
}

/** Dataflow facts for one trace instruction. */
struct InstDataflow
{
    /** Index of the in-trace producer of rs1/rs2; -1 = live-in. */
    int producer1 = -1;
    int producer2 = -1;
    /** Does a later in-trace instruction read this one's result? */
    bool hasConsumer = false;
    /**
     * Is the destination dead within the trace (overwritten before
     * any use, so it is not live-out either)?
     */
    bool deadWithinTrace = false;
    /** Index of this instruction's basic-block segment. */
    unsigned segment = 0;
};

/** Dataflow analysis over a whole trace. */
class TraceDataflow
{
  public:
    explicit TraceDataflow(const Trace &trace);

    const InstDataflow &at(std::size_t i) const { return info_[i]; }
    std::size_t size() const { return size_; }
    unsigned numSegments() const { return numSegments_; }

    /**
     * True if register @p reg holds the same value at instruction
     * @p to as it did just after instruction @p from executed
     * (i.e. no redefinition in between).
     */
    bool regUnchangedBetween(RegIndex reg, std::size_t from,
                             std::size_t to,
                             const Trace &trace) const;

  private:
    std::array<InstDataflow, kMaxTraceLen> info_{};
    std::size_t size_ = 0;
    unsigned numSegments_ = 1;
};

} // namespace tpre

#endif // TPRE_PREP_DATAFLOW_HH

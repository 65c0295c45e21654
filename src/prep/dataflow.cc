#include "prep/dataflow.hh"

#include "common/logging.hh"

namespace tpre
{

TraceDataflow::TraceDataflow(const Trace &trace)
    : size_(trace.insts.size())
{
    std::array<int, numArchRegs> last_writer;
    last_writer.fill(-1);

    unsigned segment = 0;
    for (std::size_t i = 0; i < size_; ++i) {
        const Instruction &inst = trace.insts[i].inst;
        InstDataflow &df = info_[i];
        df.segment = segment;

        if (inst.numSources() >= 1)
            df.producer1 = last_writer[inst.rs1];
        if (inst.readsRs2())
            df.producer2 = last_writer[inst.rs2];

        if (df.producer1 >= 0)
            info_[df.producer1].hasConsumer = true;
        if (df.producer2 >= 0)
            info_[df.producer2].hasConsumer = true;

        if (inst.writesReg())
            last_writer[inst.rd] = static_cast<int>(i);

        if (inst.isControl())
            ++segment;
    }
    numSegments_ = segment + 1;

    // Dead-within-trace: the destination is rewritten later with no
    // intervening read. Walking backwards, `redefined` holds the
    // registers whose next event is a write; a read at the same
    // instruction wins over its own write.
    RegMask redefined = 0;
    for (std::size_t i = size_; i-- > 0;) {
        const Instruction &inst = trace.insts[i].inst;
        const RegMask def = defMask(inst);
        info_[i].deadWithinTrace = (redefined & def) != 0;
        redefined = (redefined | def) & ~useMask(inst);
    }
}

bool
TraceDataflow::regUnchangedBetween(RegIndex reg, std::size_t from,
                                   std::size_t to,
                                   const Trace &trace) const
{
    tpre_assert(from <= to && to < trace.insts.size());
    for (std::size_t k = from + 1; k < to; ++k) {
        if (defMask(trace.insts[k].inst) >> reg & 1)
            return false;
    }
    return true;
}

} // namespace tpre

#include "prep/fuse.hh"

#include "prep/dataflow.hh"

namespace tpre
{

namespace
{

constexpr unsigned maxFuseShift = 7;

/** Is this instruction usable as the producer half of a fusion? */
bool
fusibleProducer(const Instruction &inst)
{
    if (inst.op == Opcode::Slli)
        return inst.imm >= 0 &&
               static_cast<unsigned>(inst.imm) <= maxFuseShift;
    return inst.op == Opcode::Add;
}

} // namespace

unsigned
fuseShiftAdds(Trace &trace)
{
    const TraceDataflow df(trace);
    unsigned fused = 0;
    PosMask eliminate = 0;

    for (std::size_t i = 0; i < trace.insts.size(); ++i) {
        Instruction &consumer = trace.insts[i].inst;

        const bool is_add = consumer.op == Opcode::Add;
        const bool is_addi = consumer.op == Opcode::Addi;
        if (!is_add && !is_addi)
            continue;

        // Find an in-trace producer feeding this add through one
        // of its register operands.
        for (int which = 0; which < (is_add ? 2 : 1); ++which) {
            const int prod_idx = which == 0 ? df.at(i).producer1
                                            : df.at(i).producer2;
            if (prod_idx < 0)
                continue;
            const Instruction &producer =
                trace.insts[prod_idx].inst;
            if (!fusibleProducer(producer))
                continue;

            // The producer's *inputs* must still hold the same
            // values at the consumer.
            const auto pidx = static_cast<std::size_t>(prod_idx);
            if (!df.regUnchangedBetween(producer.rs1, pidx, i,
                                        trace))
                continue;
            if (producer.op == Opcode::Add &&
                !df.regUnchangedBetween(producer.rs2, pidx, i,
                                        trace))
                continue;

            const RegIndex other = which == 0 ? consumer.rs2
                                              : consumer.rs1;
            // Both operands produced by the same instruction is
            // legal only for the shift form.
            const bool both_from_producer =
                is_add && consumer.rs1 == consumer.rs2;

            // Elimination eligibility: the consumer overwrites the
            // producer's destination and nothing read it between.
            bool read_between = false;
            for (std::size_t k = pidx + 1; k < i && !read_between;
                 ++k)
                read_between =
                    useMask(trace.insts[k].inst) >> producer.rd & 1;
            const bool can_eliminate =
                producer.rd == consumer.rd && !read_between;

            // The fused op reads the producer's *inputs* at the
            // consumer's position. If the producer clobbers one of
            // its own inputs (rd aliases a source) and survives,
            // those inputs are gone by then: fusion is illegal.
            const bool self_clobbers =
                producer.rd == producer.rs1 ||
                (producer.op == Opcode::Add &&
                 producer.rd == producer.rs2);
            if (self_clobbers && !can_eliminate)
                continue;

            Instruction fusedInst;
            fusedInst.op = Opcode::Fused;
            fusedInst.rd = consumer.rd;
            if (producer.op == Opcode::Slli) {
                fusedInst.rs1 = producer.rs1;
                fusedInst.sh1 =
                    static_cast<std::uint8_t>(producer.imm);
                if (both_from_producer) {
                    fusedInst.rs2 = producer.rs1;
                    fusedInst.sh2 = fusedInst.sh1;
                } else if (is_add) {
                    fusedInst.rs2 = other;
                    fusedInst.sh2 = 0;
                } else {
                    fusedInst.rs2 = zeroReg;
                    fusedInst.imm = consumer.imm;
                }
            } else { // producer Add feeding an Addi
                if (!is_addi || both_from_producer)
                    continue;
                fusedInst.rs1 = producer.rs1;
                fusedInst.rs2 = producer.rs2;
                fusedInst.imm = consumer.imm;
            }

            // When the consumer overwrites the producer's
            // destination and nothing read it in between, the
            // producer is dead and dropped entirely — the trace
            // need only be functionally equivalent (Section 6).
            if (can_eliminate)
                eliminate |= PosMask{1} << pidx;

            consumer = fusedInst;
            ++fused;
            break;
        }
    }

    // Compact out eliminated producers (srcPos keeps each
    // surviving instruction linked to its dynamic record).
    std::size_t out = 0;
    for (std::size_t i = 0; i < trace.insts.size(); ++i) {
        if (!(eliminate >> i & 1))
            trace.insts[out++] = trace.insts[i];
    }
    trace.insts.resize(out);
    return fused;
}

} // namespace tpre

/**
 * @file
 * Tests for trace preprocessing: dataflow analysis, constant
 * propagation, fused-ALU rewriting, scheduling — and the central
 * property that a preprocessed trace is functionally equivalent to
 * the original on randomly generated real traces.
 */

#include <gtest/gtest.h>

#include "check/invariants.hh"
#include "common/random.hh"
#include "func/core.hh"
#include "prep/const_prop.hh"
#include "prep/dataflow.hh"
#include "prep/fuse.hh"
#include "prep/preprocessor.hh"
#include "prep/scheduler.hh"
#include "trace/fill_unit.hh"
#include "tproc/fast_sim.hh"
#include "workload/generator.hh"

namespace tpre
{
namespace
{

Instruction
makeInst(Opcode op, RegIndex rd, RegIndex rs1, RegIndex rs2,
         std::int32_t imm = 0)
{
    Instruction inst;
    inst.op = op;
    inst.rd = rd;
    inst.rs1 = rs1;
    inst.rs2 = rs2;
    inst.imm = imm;
    return inst;
}

Trace
traceOf(std::vector<Instruction> insts)
{
    Trace t;
    t.id.startPc = 0x1000;
    Addr pc = 0x1000;
    std::uint8_t pos = 0;
    for (const Instruction &inst : insts) {
        t.insts.push_back({pc, inst, false, pos++});
        pc += 4;
    }
    t.fallThrough = pc;
    return t;
}

// ---------------------------------------------------------------
// Dataflow.
// ---------------------------------------------------------------

TEST(DataflowTest, ProducerLinks)
{
    Trace t = traceOf({
        makeInst(Opcode::Addi, 1, 0, 0, 5), // 0: r1 = 5
        makeInst(Opcode::Addi, 2, 1, 0, 1), // 1: r2 = r1 + 1
        makeInst(Opcode::Add, 3, 1, 2, 0),  // 2: r3 = r1 + r2
    });
    TraceDataflow df(t);
    EXPECT_EQ(df.at(1).producer1, 0);
    EXPECT_EQ(df.at(2).producer1, 0);
    EXPECT_EQ(df.at(2).producer2, 1);
    EXPECT_TRUE(df.at(0).hasConsumer);
    EXPECT_TRUE(df.at(1).hasConsumer);
    EXPECT_FALSE(df.at(2).hasConsumer);
}

TEST(DataflowTest, LiveInHasNoProducer)
{
    Trace t = traceOf({makeInst(Opcode::Add, 3, 1, 2, 0)});
    TraceDataflow df(t);
    EXPECT_EQ(df.at(0).producer1, -1);
    EXPECT_EQ(df.at(0).producer2, -1);
}

TEST(DataflowTest, DeadWithinTrace)
{
    Trace t = traceOf({
        makeInst(Opcode::Addi, 1, 0, 0, 5), // dead: rewritten below
        makeInst(Opcode::Addi, 1, 0, 0, 9),
        makeInst(Opcode::Addi, 2, 1, 0, 0),
    });
    TraceDataflow df(t);
    EXPECT_TRUE(df.at(0).deadWithinTrace);
    EXPECT_FALSE(df.at(1).deadWithinTrace); // read at 2
    EXPECT_FALSE(df.at(2).deadWithinTrace); // live-out
}

TEST(DataflowTest, SegmentsSplitAtControl)
{
    Trace t = traceOf({
        makeInst(Opcode::Addi, 1, 0, 0, 1),
        makeInst(Opcode::Beq, 0, 1, 2, 4),
        makeInst(Opcode::Addi, 2, 0, 0, 2),
    });
    TraceDataflow df(t);
    EXPECT_EQ(df.at(0).segment, 0u);
    EXPECT_EQ(df.at(1).segment, 0u);
    EXPECT_EQ(df.at(2).segment, 1u);
    EXPECT_EQ(df.numSegments(), 2u);
}

TEST(DataflowTest, RegUnchangedBetween)
{
    Trace t = traceOf({
        makeInst(Opcode::Addi, 1, 0, 0, 5),
        makeInst(Opcode::Addi, 2, 0, 0, 1),
        makeInst(Opcode::Addi, 1, 0, 0, 9),
        makeInst(Opcode::Add, 3, 1, 2, 0),
    });
    TraceDataflow df(t);
    EXPECT_TRUE(df.regUnchangedBetween(2, 1, 3, t));
    EXPECT_FALSE(df.regUnchangedBetween(1, 0, 3, t));
}

// ---------------------------------------------------------------
// Constant propagation.
// ---------------------------------------------------------------

TEST(ConstPropTest, FoldsImmediateChains)
{
    Trace t = traceOf({
        makeInst(Opcode::Addi, 1, 0, 0, 5),  // r1 = 5
        makeInst(Opcode::Addi, 2, 1, 0, 3),  // r2 = 8 -> folds
        makeInst(Opcode::Add, 3, 1, 2, 0),   // r3 = 13 -> folds
    });
    unsigned n = constantPropagate(t);
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(t.insts[1].inst.op, Opcode::Addi);
    EXPECT_EQ(t.insts[1].inst.rs1, zeroReg);
    EXPECT_EQ(t.insts[1].inst.imm, 8);
    EXPECT_EQ(t.insts[2].inst.imm, 13);
}

TEST(ConstPropTest, UnknownInputsBlockFolding)
{
    Trace t = traceOf({
        makeInst(Opcode::Ld, 1, 28, 0, 8),  // unknown value
        makeInst(Opcode::Addi, 2, 1, 0, 3), // cannot fold
    });
    EXPECT_EQ(constantPropagate(t), 0u);
    EXPECT_EQ(t.insts[1].inst.rs1, 1);
}

TEST(ConstPropTest, LargeConstantsStayPut)
{
    Trace t = traceOf({
        makeInst(Opcode::Lui, 1, 0, 0, 0x100), // r1 = 0x1000000
        makeInst(Opcode::Addi, 2, 1, 0, 1),    // doesn't fit imm16
    });
    EXPECT_EQ(constantPropagate(t), 0u);
}

TEST(ConstPropTest, RedefinitionInvalidatesKnowledge)
{
    Trace t = traceOf({
        makeInst(Opcode::Addi, 1, 0, 0, 5),
        makeInst(Opcode::Ld, 1, 28, 0, 8),   // r1 now unknown
        makeInst(Opcode::Addi, 2, 1, 0, 3),  // must not fold
    });
    EXPECT_EQ(constantPropagate(t), 0u);
}

// ---------------------------------------------------------------
// Fused-ALU rewriting.
// ---------------------------------------------------------------

TEST(FuseTest, ShiftAddPairFusesAndEliminates)
{
    Trace t = traceOf({
        makeInst(Opcode::Slli, 5, 2, 0, 3), // r5 = r2 << 3
        makeInst(Opcode::Add, 5, 5, 3, 0),  // r5 = r5 + r3
    });
    EXPECT_EQ(fuseShiftAdds(t), 1u);
    // Producer eliminated (same rd, unread in between).
    ASSERT_EQ(t.insts.size(), 1u);
    const Instruction &fused = t.insts[0].inst;
    EXPECT_EQ(fused.op, Opcode::Fused);
    EXPECT_EQ(fused.rs1, 2);
    EXPECT_EQ(fused.sh1, 3);
    EXPECT_EQ(fused.rs2, 3);
    EXPECT_EQ(fused.sh2, 0);
}

TEST(FuseTest, ProducerKeptWhenResultLive)
{
    Trace t = traceOf({
        makeInst(Opcode::Slli, 5, 2, 0, 3),
        makeInst(Opcode::Add, 6, 5, 3, 0), // different rd
    });
    EXPECT_EQ(fuseShiftAdds(t), 1u);
    ASSERT_EQ(t.insts.size(), 2u); // r5 may be live-out
    EXPECT_EQ(t.insts[0].inst.op, Opcode::Slli);
    EXPECT_EQ(t.insts[1].inst.op, Opcode::Fused);
}

TEST(FuseTest, AddAddiPairFuses)
{
    Trace t = traceOf({
        makeInst(Opcode::Add, 5, 2, 3, 0),
        makeInst(Opcode::Addi, 5, 5, 0, -7),
    });
    EXPECT_EQ(fuseShiftAdds(t), 1u);
    ASSERT_EQ(t.insts.size(), 1u);
    EXPECT_EQ(t.insts[0].inst.op, Opcode::Fused);
    EXPECT_EQ(t.insts[0].inst.imm, -7);
}

TEST(FuseTest, OverwrittenSourceBlocksFusion)
{
    Trace t = traceOf({
        makeInst(Opcode::Slli, 5, 2, 0, 3),
        makeInst(Opcode::Addi, 2, 0, 0, 1), // clobbers r2
        makeInst(Opcode::Add, 6, 5, 3, 0),
    });
    EXPECT_EQ(fuseShiftAdds(t), 0u);
}

TEST(FuseTest, LargeShiftNotFused)
{
    Trace t = traceOf({
        makeInst(Opcode::Slli, 5, 2, 0, 13), // > maxFuseShift
        makeInst(Opcode::Add, 5, 5, 3, 0),
    });
    EXPECT_EQ(fuseShiftAdds(t), 0u);
}

TEST(FuseTest, CascadedFusionEliminatesSharedProducer)
{
    Trace t = traceOf({
        makeInst(Opcode::Slli, 5, 2, 0, 3),
        makeInst(Opcode::Addi, 7, 5, 0, 1), // reads r5
        makeInst(Opcode::Add, 5, 5, 3, 0),
    });
    // Both consumers fuse over the slli; once the intermediate
    // reader is rewritten to read r2 directly, the slli's result
    // is dead (overwritten by the second fusion) and it drops out.
    EXPECT_EQ(fuseShiftAdds(t), 2u);
    ASSERT_EQ(t.insts.size(), 2u);
    EXPECT_EQ(t.insts[0].inst.op, Opcode::Fused);
    EXPECT_EQ(t.insts[0].inst.rd, 7);
    EXPECT_EQ(t.insts[1].inst.op, Opcode::Fused);
    EXPECT_EQ(t.insts[1].inst.rd, 5);
}

// ---------------------------------------------------------------
// Scheduler.
// ---------------------------------------------------------------

TEST(SchedulerTest, PreservesInstructionMultiset)
{
    Trace t = traceOf({
        makeInst(Opcode::Addi, 1, 0, 0, 1),
        makeInst(Opcode::Addi, 2, 0, 0, 2),
        makeInst(Opcode::Mul, 3, 1, 2, 0),
        makeInst(Opcode::Addi, 4, 0, 0, 4),
        makeInst(Opcode::Add, 5, 3, 4, 0),
    });
    const std::size_t n = t.insts.size();
    scheduleTrace(t);
    EXPECT_EQ(t.insts.size(), n);
}

TEST(SchedulerTest, HoistsCriticalChainProducers)
{
    // The mul chain is critical; the scheduler should move the mul
    // producer chain ahead of independent cheap work.
    Trace t = traceOf({
        makeInst(Opcode::Addi, 9, 0, 0, 1),  // independent
        makeInst(Opcode::Addi, 8, 0, 0, 1),  // independent
        makeInst(Opcode::Mul, 3, 1, 2, 0),   // critical
        makeInst(Opcode::Mul, 4, 3, 3, 0),   // critical
    });
    scheduleTrace(t);
    EXPECT_EQ(t.insts[0].inst.op, Opcode::Mul);
}

TEST(SchedulerTest, MemoryOperationsKeepOrder)
{
    Trace t = traceOf({
        makeInst(Opcode::Sd, 0, 28, 1, 8),
        makeInst(Opcode::Ld, 2, 28, 0, 8),
        makeInst(Opcode::Sd, 0, 28, 2, 16),
    });
    scheduleTrace(t);
    std::vector<Opcode> ops;
    for (const TraceInst &ti : t.insts)
        ops.push_back(ti.inst.op);
    EXPECT_EQ(ops, (std::vector<Opcode>{Opcode::Sd, Opcode::Ld,
                                        Opcode::Sd}));
}

TEST(SchedulerTest, ControlStaysAtSegmentEnd)
{
    Trace t = traceOf({
        makeInst(Opcode::Addi, 1, 0, 0, 1),
        makeInst(Opcode::Mul, 2, 1, 1, 0),
        makeInst(Opcode::Beq, 0, 1, 2, 4),
        makeInst(Opcode::Addi, 3, 0, 0, 3),
    });
    scheduleTrace(t);
    EXPECT_EQ(t.insts[2].inst.op, Opcode::Beq);
}

// ---------------------------------------------------------------
// The equivalence property: preprocessed traces behave exactly
// like the originals on the architectural state.
// ---------------------------------------------------------------

/** Execute a trace's instructions sequentially on @p state. */
void
runTrace(const Trace &t, ArchState &state)
{
    for (const TraceInst &ti : t.insts)
        executeInst(ti.inst, ti.pc, state);
}

class PrepEquivalence
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PrepEquivalence, PreprocessedTraceIsEquivalent)
{
    WorkloadGenerator gen(specint95Profile(GetParam()));
    auto wl = gen.generate();
    FunctionalCore core(wl.program);
    FillUnit fill;
    Preprocessor prep;
    Rng rng(1234);

    unsigned tested = 0;
    InstCount steps = 0;
    while (!core.halted() && tested < 400 && steps < 400000) {
        const DynInst &dyn = core.step();
        ++steps;
        auto maybe = fill.feed(dyn);
        if (!maybe)
            continue;

        Trace original = *maybe;
        Trace processed = original;
        prep.process(processed);
        EXPECT_TRUE(processed.preprocessed);
        EXPECT_EQ(processed.id, original.id);

        // Execute both on identical randomized register files; the
        // memory starts empty in both (stores/loads still agree
        // because the sequences access identical addresses in
        // identical relative order).
        ArchState sa, sb;
        for (RegIndex r = 1; r < numArchRegs; ++r) {
            const RegValue v = rng.next();
            sa.setReg(r, v);
            sb.setReg(r, v);
        }
        runTrace(original, sa);
        runTrace(processed, sb);
        for (RegIndex r = 0; r < numArchRegs; ++r)
            ASSERT_EQ(sa.reg(r), sb.reg(r))
                << "r" << unsigned(r) << " diverged in trace @0x"
                << std::hex << original.id.startPc;
        ++tested;
    }
    EXPECT_GE(tested, 300u);
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, PrepEquivalence,
                         ::testing::Values("compress", "gcc", "go",
                                           "li", "vortex"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

// ---------------------------------------------------------------
// Per-pass equivalence properties: each preprocessing pass alone
// must preserve the architectural effect of a trace — registers
// AND touched memory — on randomized real traces. Uses the shared
// check::tracesArchEquivalent() oracle (identical randomized
// register files, compares the full register file plus every
// memory word either execution touched).
// ---------------------------------------------------------------

template <typename Pass>
void
expectPassPreservesArchState(const char *passName, Pass pass)
{
    WorkloadGenerator gen(specint95Profile("gcc"));
    auto wl = gen.generate();
    FunctionalCore core(wl.program);
    FillUnit fill;

    unsigned tested = 0;
    InstCount steps = 0;
    while (!core.halted() && tested < 300 && steps < 400000) {
        const DynInst &dyn = core.step();
        ++steps;
        auto maybe = fill.feed(dyn);
        if (!maybe)
            continue;
        Trace processed = *maybe;
        pass(processed);
        const auto violation = check::tracesArchEquivalent(
            *maybe, processed, 0x9e3779b9 + tested);
        ASSERT_FALSE(violation.has_value())
            << passName << ": " << *violation;
        ++tested;
    }
    EXPECT_GE(tested, 200u);
}

TEST(PrepPassProperty, ConstPropPreservesArchState)
{
    expectPassPreservesArchState(
        "const_prop", [](Trace &t) { constantPropagate(t); });
}

TEST(PrepPassProperty, FusePreservesArchState)
{
    expectPassPreservesArchState(
        "fuse", [](Trace &t) { fuseShiftAdds(t); });
}

TEST(PrepPassProperty, SchedulerPreservesArchState)
{
    expectPassPreservesArchState(
        "scheduler", [](Trace &t) { scheduleTrace(t); });
}

TEST(PreprocessorTest, StatsAccumulate)
{
    Preprocessor prep;
    Trace t = traceOf({
        makeInst(Opcode::Slli, 5, 2, 0, 3),
        makeInst(Opcode::Add, 5, 5, 3, 0),
        makeInst(Opcode::Addi, 1, 0, 0, 5),
        makeInst(Opcode::Addi, 2, 1, 0, 3),
    });
    prep.process(t);
    EXPECT_EQ(prep.stats().tracesProcessed, 1u);
    EXPECT_GE(prep.stats().opsFused, 1u);
    EXPECT_GE(prep.stats().constsPropagated, 1u);
    // Idempotent: processing again is a no-op.
    prep.process(t);
    EXPECT_EQ(prep.stats().tracesProcessed, 1u);
}

/** FNV-1a over the little-endian bytes of @p v. */
void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

TEST(PreprocessorTest, PreparedImagesPinnedOnDemandTraces)
{
    // Every prepared image of the demand traces of four workloads,
    // and the pass counters, digested in order. The constant was
    // recorded before the kernels moved to bitmask state; any
    // change to what a pass emits (a different fold, fusion or
    // schedule tie-break) changes it.
    std::uint64_t h = 0xcbf29ce484222325ull;
    Preprocessor prep;
    for (const char *name : {"gcc", "go", "perl", "vortex"}) {
        WorkloadGenerator gen(specint95Profile(name));
        const auto wl = gen.generate();
        std::vector<Trace> traces;
        FastSimConfig cfg;
        cfg.traceCacheEntries = 256;
        cfg.hooks.onTrace = [&traces](const Trace &demanded,
                                      const Trace &, bool) {
            traces.push_back(demanded);
        };
        FastSim sim(wl.program, cfg);
        sim.run(300000);
        ASSERT_GT(traces.size(), 1000u) << name;

        for (const Trace &demanded : traces) {
            Trace t = demanded;
            prep.process(t);
            for (const TraceInst &ti : t.insts) {
                const Instruction &inst = ti.inst;
                fnvMix(h, ti.pc);
                fnvMix(h, static_cast<std::uint64_t>(inst.op));
                fnvMix(h, inst.rd);
                fnvMix(h, inst.rs1);
                fnvMix(h, inst.rs2);
                fnvMix(h, static_cast<std::uint32_t>(inst.imm));
                fnvMix(h, inst.sh1);
                fnvMix(h, inst.sh2);
                fnvMix(h, ti.taken);
                fnvMix(h, ti.srcPos);
            }
        }
    }
    const Preprocessor::Stats &st = prep.stats();
    fnvMix(h, st.tracesProcessed);
    fnvMix(h, st.constsPropagated);
    fnvMix(h, st.opsFused);
    fnvMix(h, st.instsMoved);
    EXPECT_EQ(h, 0xa44fba70f7667b4dull) << std::hex << "digest 0x" << h
                         << std::dec << " traces "
                         << st.tracesProcessed << " consts "
                         << st.constsPropagated << " fused "
                         << st.opsFused << " moved "
                         << st.instsMoved;
}

} // namespace
} // namespace tpre

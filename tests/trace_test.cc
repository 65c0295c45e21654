/**
 * @file
 * Tests for the trace module: identities, the shared selection
 * rules (including the paper's multiple-of-4 alignment heuristic),
 * the trace cache and the fill unit.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/random.hh"
#include "func/core.hh"
#include "isa/builder.hh"
#include "trace/fill_unit.hh"
#include "trace/selector.hh"
#include "trace/trace_cache.hh"
#include "workload/generator.hh"

namespace tpre
{
namespace
{

Instruction
alu()
{
    Instruction inst;
    inst.op = Opcode::Add;
    inst.rd = 1;
    inst.rs1 = 1;
    inst.rs2 = 2;
    return inst;
}

Instruction
condBranch(std::int32_t offset)
{
    Instruction inst;
    inst.op = Opcode::Bne;
    inst.rs1 = 1;
    inst.rs2 = 0;
    inst.imm = offset;
    return inst;
}

TEST(TraceIdTest, EqualityAndHash)
{
    TraceId a{0x1000, 0x3, 2};
    TraceId b{0x1000, 0x3, 2};
    TraceId c{0x1000, 0x1, 2};
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_NE(a, c);
    EXPECT_NE(a.hash(), c.hash());
    EXPECT_FALSE(TraceId().valid());
    EXPECT_TRUE(a.valid());
}

TEST(TraceIdTest, ConstructedHashMatchesLazyHash)
{
    // The three-field constructor precomputes the hash; an id
    // assembled by mutating a default-constructed one must lazily
    // arrive at the same value.
    TraceId eager{0x4000, 0x5, 3};
    TraceId lazy;
    lazy.startPc = 0x4000;
    lazy.branchFlags = 0x5;
    lazy.numBranches = 3;
    EXPECT_EQ(eager.hash(), lazy.hash());
}

TEST(TraceIdTest, RehashAfterInPlaceMutation)
{
    TraceId id{0x4000, 0x5, 3};
    const std::uint64_t before = id.hash();
    id.branchFlags = 0x7;
    id.rehash();
    EXPECT_EQ(id.hash(), TraceId(0x4000, 0x7, 3).hash());
    EXPECT_NE(id.hash(), before);
}

TEST(TraceIdTest, EqualityIgnoresHashCacheState)
{
    // One id with a warm cache, one without: identity comparison
    // must depend only on the public fields.
    TraceId warm{0x4000, 0x5, 3};
    (void)warm.hash();
    TraceId cold;
    cold.startPc = 0x4000;
    cold.branchFlags = 0x5;
    cold.numBranches = 3;
    EXPECT_EQ(warm, cold);
}

TEST(TraceIdTest, StdHashUsableInUnorderedSet)
{
    std::unordered_set<TraceId> seen;
    seen.insert(TraceId{0x1000, 0x0, 0});
    seen.insert(TraceId{0x1000, 0x1, 1});
    seen.insert(TraceId{0x1000, 0x1, 1});
    EXPECT_EQ(seen.size(), 2u);
    EXPECT_TRUE(seen.contains(TraceId(0x1000, 0x1, 1)));
    EXPECT_FALSE(seen.contains(TraceId(0x2000, 0x1, 1)));
}

TEST(TraceBuilderTest, EndsAtMaxLength)
{
    TraceBuilder tb;
    tb.begin(0x1000);
    Addr pc = 0x1000;
    for (unsigned i = 0; i < maxTraceLen; ++i) {
        bool done = tb.append(alu(), pc, false, pc + 4);
        pc += 4;
        EXPECT_EQ(done, i == maxTraceLen - 1);
    }
    Trace t = tb.take();
    EXPECT_EQ(t.len(), maxTraceLen);
    EXPECT_EQ(t.endReason, TraceEndReason::MaxLength);
    EXPECT_EQ(t.fallThrough, 0x1000u + 16 * 4);
    EXPECT_EQ(t.id.startPc, 0x1000u);
    EXPECT_EQ(t.id.numBranches, 0u);
}

TEST(TraceBuilderTest, EndsAtReturn)
{
    TraceBuilder tb;
    tb.begin(0x1000);
    EXPECT_FALSE(tb.append(alu(), 0x1000, false, 0x1004));
    Instruction ret;
    ret.op = Opcode::Jalr;
    ret.rd = zeroReg;
    ret.rs1 = linkReg;
    EXPECT_TRUE(tb.append(ret, 0x1004, true, 0x9000));
    Trace t = tb.take();
    EXPECT_EQ(t.endReason, TraceEndReason::Return);
    EXPECT_TRUE(t.endsInReturn());
    EXPECT_EQ(t.fallThrough, invalidAddr);
}

TEST(TraceBuilderTest, EndsAtIndirectJump)
{
    TraceBuilder tb;
    tb.begin(0x1000);
    Instruction jalr;
    jalr.op = Opcode::Jalr;
    jalr.rd = linkReg; // indirect call
    jalr.rs1 = 5;
    EXPECT_TRUE(tb.append(jalr, 0x1000, true, 0x5000));
    Trace t = tb.take();
    EXPECT_EQ(t.endReason, TraceEndReason::IndirectJump);
    EXPECT_TRUE(t.endsInIndirect());
}

TEST(TraceBuilderTest, EndsAtHalt)
{
    TraceBuilder tb;
    tb.begin(0x1000);
    Instruction halt;
    halt.op = Opcode::Halt;
    EXPECT_TRUE(tb.append(halt, 0x1000, false, 0x1000));
    EXPECT_EQ(tb.take().endReason, TraceEndReason::Halt);
}

TEST(TraceBuilderTest, BranchFlagsRecordOutcomesInOrder)
{
    TraceBuilder tb;
    tb.begin(0x1000);
    tb.append(condBranch(4), 0x1000, true, 0x1014);
    tb.append(condBranch(4), 0x1014, false, 0x1018);
    tb.append(condBranch(4), 0x1018, true, 0x102c);
    // Fill to completion.
    Addr pc = 0x102c;
    while (tb.active() && tb.len() < maxTraceLen) {
        if (tb.append(alu(), pc, false, pc + 4))
            break;
        pc += 4;
    }
    Trace t = tb.take();
    EXPECT_EQ(t.id.numBranches, 3u);
    EXPECT_EQ(t.id.branchFlags, 0b101u);
}

TEST(TraceBuilderTest, AlignmentRuleMultipleOf4PastBackward)
{
    // A backward branch at position 2 (0-based): the trace must
    // end a multiple of 4 instructions beyond it; with the 16 cap
    // that is position 2 + 12 = index 14 (length 15).
    TraceBuilder tb;
    tb.begin(0x1000);
    Addr pc = 0x1000;
    tb.append(alu(), pc, false, pc + 4);
    pc += 4;
    tb.append(alu(), pc, false, pc + 4);
    pc += 4;
    // Backward branch (taken: loop iteration embedded in trace).
    EXPECT_FALSE(tb.append(condBranch(-2), pc, true, pc - 4));
    pc -= 4;
    bool done = false;
    unsigned appended = 3;
    while (!done) {
        done = tb.append(alu(), pc, false, pc + 4);
        pc += 4;
        ++appended;
    }
    Trace t = tb.take();
    EXPECT_EQ(t.len(), 15u);
    EXPECT_EQ(t.endReason, TraceEndReason::Alignment);
    EXPECT_EQ((t.len() - 3) % 4, 0u);
}

TEST(TraceBuilderTest, AlignmentDisabledByZeroGranule)
{
    SelectionPolicy policy;
    policy.alignGranule = 0;
    TraceBuilder tb(policy);
    tb.begin(0x1000);
    Addr pc = 0x1000;
    tb.append(condBranch(-1), pc, true, pc);
    bool done = false;
    while (!done) {
        done = tb.append(alu(), pc, false, pc + 4);
        pc += 4;
    }
    Trace t = tb.take();
    EXPECT_EQ(t.len(), maxTraceLen);
    EXPECT_EQ(t.endReason, TraceEndReason::MaxLength);
}

TEST(TraceBuilderTest, BackwardBranchAsLastInstructionEndsTrace)
{
    // Beyond-count 0 is a multiple of 4 only when the cap logic
    // lands exactly on the branch; with the branch at index 15 the
    // trace ends there.
    TraceBuilder tb;
    tb.begin(0x1000);
    Addr pc = 0x1000;
    for (int i = 0; i < 15; ++i) {
        tb.append(alu(), pc, false, pc + 4);
        pc += 4;
    }
    EXPECT_TRUE(tb.append(condBranch(-8), pc, true, pc - 28));
    Trace t = tb.take();
    EXPECT_EQ(t.len(), 16u);
}

TEST(TraceBuilderTest, AbandonResets)
{
    TraceBuilder tb;
    tb.begin(0x1000);
    tb.append(alu(), 0x1000, false, 0x1004);
    tb.abandon();
    EXPECT_FALSE(tb.active());
    tb.begin(0x2000);
    EXPECT_TRUE(tb.active());
}

TEST(TraceBuilderTest, SrcPosMatchesPosition)
{
    TraceBuilder tb;
    tb.begin(0x1000);
    Addr pc = 0x1000;
    for (int i = 0; i < 5; ++i) {
        tb.append(alu(), pc, false, pc + 4);
        pc += 4;
    }
    Instruction ret;
    ret.op = Opcode::Jalr;
    ret.rd = zeroReg;
    ret.rs1 = linkReg;
    tb.append(ret, pc, true, 0x9000);
    Trace t = tb.take();
    for (unsigned i = 0; i < t.len(); ++i)
        EXPECT_EQ(t.insts[i].srcPos, i);
}

// ---------------------------------------------------------------
// TraceCache.
// ---------------------------------------------------------------

Trace
makeTrace(Addr start, std::uint16_t flags = 0,
          std::uint8_t branches = 0)
{
    Trace t;
    t.id = {start, flags, branches};
    t.insts.push_back({start, alu(), false, 0});
    t.fallThrough = start + 4;
    return t;
}

TEST(TraceCacheTest, InsertLookup)
{
    TraceCache tc(64);
    EXPECT_EQ(tc.lookup({0x1000, 0, 0}), nullptr);
    tc.insert(makeTrace(0x1000));
    const Trace *t = tc.lookup({0x1000, 0, 0});
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->id.startPc, 0x1000u);
    EXPECT_EQ(tc.numValid(), 1u);
}

TEST(TraceCacheTest, PathAssociativity)
{
    // Same start, different branch outcomes: distinct entries.
    TraceCache tc(64);
    tc.insert(makeTrace(0x1000, 0x0, 1));
    tc.insert(makeTrace(0x1000, 0x1, 1));
    EXPECT_TRUE(tc.contains({0x1000, 0x0, 1}));
    EXPECT_TRUE(tc.contains({0x1000, 0x1, 1}));
}

TEST(TraceCacheTest, SizingMatchesPaper)
{
    TraceCache small(64);
    EXPECT_EQ(small.sizeBytes(), 4u * 1024);
    TraceCache large(1024);
    EXPECT_EQ(large.sizeBytes(), 64u * 1024);
    EXPECT_EQ(large.numSets(), 512u);
    EXPECT_EQ(large.assoc(), 2u);
}

TEST(TraceCacheTest, ReinsertRefreshesInPlace)
{
    TraceCache tc(64);
    tc.insert(makeTrace(0x1000));
    tc.insert(makeTrace(0x1000));
    EXPECT_EQ(tc.numValid(), 1u);
}

TEST(TraceCacheTest, InvalidateRemoves)
{
    TraceCache tc(64);
    tc.insert(makeTrace(0x1000));
    EXPECT_TRUE(tc.invalidate({0x1000, 0, 0}));
    EXPECT_FALSE(tc.contains({0x1000, 0, 0}));
    EXPECT_FALSE(tc.invalidate({0x1000, 0, 0}));
}

TEST(TraceCacheTest, LruReplacementWithinSet)
{
    // Find three trace ids that map to the same set of a small
    // cache and verify LRU behaviour.
    TraceCache tc(8, 2); // 4 sets
    std::vector<Trace> same_set;
    const std::size_t want_set = makeTrace(0x1000).id.hash() % 4;
    for (Addr a = 0x1000; same_set.size() < 3; a += 4) {
        Trace t = makeTrace(a);
        if (t.id.hash() % 4 == want_set)
            same_set.push_back(t);
    }
    tc.insert(same_set[0]);
    tc.insert(same_set[1]);
    (void)tc.lookup(same_set[0].id); // make [0] MRU
    tc.insert(same_set[2]);          // evict [1]
    EXPECT_TRUE(tc.contains(same_set[0].id));
    EXPECT_FALSE(tc.contains(same_set[1].id));
    EXPECT_TRUE(tc.contains(same_set[2].id));
}

TEST(TraceCacheTest, ClearEmpties)
{
    TraceCache tc(64);
    tc.insert(makeTrace(0x1000));
    tc.clear();
    EXPECT_EQ(tc.numValid(), 0u);
}

/**
 * Promoting a buffered trace with insert(img, servedAtInsert=true)
 * must be indistinguishable from insert(img) followed by
 * lookup(id): the same lines stay resident after every step (so the
 * same victims leave), and the provenance and attribution ledgers
 * agree. The second form ticks the LRU clock once more, which keeps
 * the order of every stamp, so victim choice cannot differ.
 */
TEST(TraceCacheTest, ServedAtInsertEqualsInsertThenLookup)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed);
        // Forty ids, some sharing a start PC, over 8 sets of 2 ways,
        // with bodies of 1..4 instructions so attribution classes
        // and instruction histograms vary.
        std::vector<Trace> pool;
        for (unsigned i = 0; i < 40; ++i) {
            Trace t = makeTrace(0x1000 + 4 * (i / 2),
                                static_cast<std::uint16_t>(i % 2), 1);
            const unsigned extra = static_cast<unsigned>(rng.nextBelow(4));
            for (unsigned k = 0; k < extra; ++k) {
                const Addr pc = t.id.startPc + 4 * (k + 1);
                t.insts.push_back({pc, k % 2 ? condBranch(-8) : alu(),
                                   false, 0});
            }
            pool.push_back(t);
        }
        TraceCache served(16, 2);
        TraceCache relooked(16, 2);
        Cycle now = 0;
        for (unsigned step = 0; step < 400; ++step) {
            now += rng.nextBelow(5);
            served.advanceTo(now);
            relooked.advanceTo(now);
            Trace t = pool[rng.nextIndex(pool.size())];
            t.buildCycle = now > 3 ? now - rng.nextBelow(4) : 0;
            switch (rng.nextBelow(3)) {
              case 0: // demand fill
                t.origin = TraceOrigin::FillUnit;
                served.insert(t);
                relooked.insert(t);
                break;
              case 1: // fetch
                EXPECT_EQ(served.lookup(t.id) != nullptr,
                          relooked.lookup(t.id) != nullptr);
                break;
              default: { // buffer promotion
                t.origin = TraceOrigin::Precon;
                const Trace *a = served.insert(t, true);
                relooked.insert(t);
                const Trace *b = relooked.lookup(t.id);
                ASSERT_NE(b, nullptr);
                EXPECT_EQ(a->id, b->id);
                break;
              }
            }
            for (const Trace &p : pool) {
                ASSERT_EQ(served.contains(p.id), relooked.contains(p.id))
                    << "seed " << seed << " step " << step;
            }
            ASSERT_EQ(renderProvenanceJson(served.provenance()),
                      renderProvenanceJson(relooked.provenance()))
                << "seed " << seed << " step " << step;
            ASSERT_EQ(renderAttribJson(served.attrib()),
                      renderAttribJson(relooked.attrib()))
                << "seed " << seed << " step " << step;
        }
    }
}

// ---------------------------------------------------------------
// FillUnit: segmentation of a real dynamic stream.
// ---------------------------------------------------------------

TEST(FillUnitTest, SegmentsPartitionTheStream)
{
    WorkloadGenerator gen(specint95Profile("compress"));
    auto wl = gen.generate();
    FunctionalCore core(wl.program);
    FillUnit fill;

    InstCount seen = 0;
    Addr expected_start = wl.program.entry();
    unsigned traces = 0;
    while (!core.halted() && seen < 50000) {
        const DynInst &dyn = core.step();
        ++seen;
        const bool starts_new = !fill.building();
        if (starts_new) {
            EXPECT_EQ(dyn.pc, expected_start);
        }
        if (auto t = fill.feed(dyn)) {
            ++traces;
            ASSERT_GE(t->len(), 1u);
            ASSERT_LE(t->len(), maxTraceLen);
            // The next trace starts where this one ended.
            expected_start = dyn.nextPc;
            if (t->fallThrough != invalidAddr) {
                EXPECT_EQ(t->fallThrough, dyn.nextPc);
            }
        }
    }
    EXPECT_GT(traces, 1000u);
}

TEST(FillUnitTest, TraceContentsDeterministicById)
{
    // Any two dynamic occurrences of the same trace id must have
    // identical instruction sequences (this is what makes
    // preconstructed traces interchangeable with fill-unit ones).
    WorkloadGenerator gen(specint95Profile("compress"));
    auto wl = gen.generate();
    FunctionalCore core(wl.program);
    FillUnit fill;

    std::map<std::uint64_t, std::vector<Addr>> pcs_by_id;
    InstCount seen = 0;
    int checked = 0;
    while (!core.halted() && seen < 80000) {
        const DynInst &dyn = core.step();
        ++seen;
        if (auto t = fill.feed(dyn)) {
            std::vector<Addr> pcs;
            for (const TraceInst &ti : t->insts)
                pcs.push_back(ti.pc);
            auto [it, fresh] =
                pcs_by_id.emplace(t->id.hash(), pcs);
            if (!fresh) {
                EXPECT_EQ(it->second, pcs);
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 100);
}

// Property sweep: selection invariants over the real dynamic
// streams of several benchmarks.
class SelectorInvariants
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SelectorInvariants, HoldOnRealStreams)
{
    WorkloadGenerator gen(specint95Profile(GetParam()));
    auto wl = gen.generate();
    FunctionalCore core(wl.program);
    FillUnit fill;

    InstCount seen = 0;
    unsigned checked = 0;
    while (!core.halted() && seen < 120000) {
        const DynInst &dyn = core.step();
        ++seen;
        auto maybe = fill.feed(dyn);
        if (!maybe)
            continue;
        const Trace &t = *maybe;
        ++checked;

        ASSERT_GE(t.len(), 1u);
        ASSERT_LE(t.len(), maxTraceLen);

        // Branch metadata matches the contents.
        unsigned branches = 0;
        std::uint16_t flags = 0;
        int last_backward = -1;
        for (unsigned i = 0; i < t.len(); ++i) {
            const TraceInst &ti = t.insts[i];
            if (ti.inst.isCondBranch()) {
                if (ti.taken)
                    flags |= std::uint16_t(1) << branches;
                ++branches;
                if (ti.inst.isBackwardBranch())
                    last_backward = static_cast<int>(i);
            }
            // Hard terminators only ever appear last.
            if (i + 1 < t.len()) {
                ASSERT_FALSE(ti.inst.isReturn());
                ASSERT_FALSE(ti.inst.isIndirectJump());
                ASSERT_NE(ti.inst.op, Opcode::Halt);
            }
        }
        ASSERT_EQ(t.id.numBranches, branches);
        ASSERT_EQ(t.id.branchFlags, flags);

        // The alignment rule: length-terminated traces containing
        // a backward branch end a multiple of 4 beyond it.
        if (t.endReason == TraceEndReason::Alignment ||
            (t.endReason == TraceEndReason::MaxLength &&
             last_backward >= 0)) {
            ASSERT_EQ((t.len() - (last_backward + 1)) % 4, 0u);
        }

        // fallThrough points at the next sequential fetch target
        // for length-terminated traces.
        if (t.endReason == TraceEndReason::MaxLength ||
            t.endReason == TraceEndReason::Alignment) {
            ASSERT_EQ(t.fallThrough, dyn.nextPc);
        }
    }
    EXPECT_GT(checked, 2000u);
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, SelectorInvariants,
                         ::testing::Values("gcc", "li", "ijpeg"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST(FillUnitTest, SquashDropsPartialTrace)
{
    FillUnit fill;
    DynInst dyn;
    dyn.pc = 0x1000;
    dyn.inst = alu();
    dyn.nextPc = 0x1004;
    EXPECT_FALSE(fill.feed(dyn) != nullptr);
    EXPECT_TRUE(fill.building());
    fill.squash();
    EXPECT_FALSE(fill.building());
    EXPECT_FALSE(fill.flush() != nullptr);
}

TEST(FillUnitTest, FlushReturnsPartialTrace)
{
    FillUnit fill;
    DynInst dyn;
    dyn.pc = 0x1000;
    dyn.inst = alu();
    dyn.nextPc = 0x1004;
    fill.feed(dyn);
    auto t = fill.flush();
    ASSERT_TRUE(t != nullptr);
    EXPECT_EQ(t->len(), 1u);
}

} // namespace
} // namespace tpre

/**
 * @file
 * Tests for the preconstruction mechanism: the start-point stack,
 * the region-priority buffers, regions, the trace constructors'
 * path exploration, and an end-to-end reproduction of the paper's
 * Figure 2/3 walkthrough.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "isa/builder.hh"
#include "precon/engine.hh"
#include "tproc/fast_sim.hh"
#include "trace/fill_unit.hh"
#include "workload/generator.hh"

namespace tpre
{
namespace
{

// ---------------------------------------------------------------
// StartPointStack.
// ---------------------------------------------------------------

TEST(StartPointStackTest, NewestFirstPriority)
{
    StartPointStack st(16, 4);
    st.push(0x100, StartPointKind::CallReturn);
    st.push(0x200, StartPointKind::LoopExit);
    EXPECT_EQ(st.pop().addr, 0x200u);
    EXPECT_EQ(st.pop().addr, 0x100u);
    EXPECT_TRUE(st.empty());
}

TEST(StartPointStackTest, DedupAnywhereInStack)
{
    StartPointStack st(16, 4);
    EXPECT_TRUE(st.push(0x100, StartPointKind::LoopExit));
    EXPECT_TRUE(st.push(0x200, StartPointKind::CallReturn));
    // The same loop exit observed again (next iteration).
    EXPECT_FALSE(st.push(0x100, StartPointKind::LoopExit));
    EXPECT_EQ(st.size(), 2u);
}

TEST(StartPointStackTest, OverflowDiscardsOldest)
{
    StartPointStack st(4, 0);
    for (Addr a = 1; a <= 5; ++a)
        st.push(a * 0x10, StartPointKind::CallReturn);
    EXPECT_EQ(st.size(), 4u);
    EXPECT_FALSE(st.contains(0x10));
    EXPECT_TRUE(st.contains(0x50));
}

TEST(StartPointStackTest, RemoveReached)
{
    StartPointStack st(16, 4);
    st.push(0x100, StartPointKind::CallReturn);
    st.push(0x200, StartPointKind::CallReturn);
    st.removeReached(0x100);
    EXPECT_FALSE(st.contains(0x100));
    EXPECT_TRUE(st.contains(0x200));
}

TEST(StartPointStackTest, CompletedRegionsNotRepushed)
{
    StartPointStack st(16, 4);
    st.markCompleted(0x100);
    EXPECT_FALSE(st.push(0x100, StartPointKind::CallReturn));
    EXPECT_TRUE(st.push(0x200, StartPointKind::CallReturn));
}

TEST(StartPointStackTest, CompletedMemoryIsBounded)
{
    StartPointStack st(16, 2);
    st.markCompleted(0x100);
    st.markCompleted(0x200);
    st.markCompleted(0x300); // evicts 0x100
    EXPECT_TRUE(st.push(0x100, StartPointKind::CallReturn));
    EXPECT_FALSE(st.push(0x300, StartPointKind::CallReturn));
}

TEST(StartPointStackTest, FilteredPushAtMaxDepthKeepsOldest)
{
    // A rejected duplicate must not cost the oldest entry: the
    // redundancy filters run before the overflow discard.
    StartPointStack st(3, 0);
    st.push(0x100, StartPointKind::CallReturn);
    st.push(0x200, StartPointKind::CallReturn);
    st.push(0x300, StartPointKind::CallReturn);
    EXPECT_FALSE(st.push(0x200, StartPointKind::CallReturn));
    EXPECT_EQ(st.size(), 3u);
    EXPECT_TRUE(st.contains(0x100));
}

TEST(StartPointStackTest, SustainedOverflowKeepsNewestWindow)
{
    StartPointStack st(4, 0);
    for (Addr a = 1; a <= 8; ++a)
        st.push(a * 0x10, StartPointKind::LoopExit);
    EXPECT_EQ(st.size(), 4u);
    // Newest-first pop order over the surviving window 5..8.
    for (Addr a = 8; a >= 5; --a)
        EXPECT_EQ(st.pop().addr, a * 0x10);
    EXPECT_TRUE(st.empty());
}

TEST(StartPointStackTest, RemoveReachedAbsentIsNoOp)
{
    StartPointStack st(16, 4);
    st.push(0x100, StartPointKind::CallReturn);
    st.removeReached(0x500);
    EXPECT_EQ(st.size(), 1u);
}

TEST(StartPointStackTest, RecompletionRefreshesSlot)
{
    // Completing 0x100 again must move it to the newest completed
    // slot so the next eviction takes 0x200 instead.
    StartPointStack st(16, 2);
    st.markCompleted(0x100);
    st.markCompleted(0x200);
    st.markCompleted(0x100);
    st.markCompleted(0x300); // evicts 0x200, not 0x100
    EXPECT_FALSE(st.push(0x100, StartPointKind::CallReturn));
    EXPECT_TRUE(st.push(0x200, StartPointKind::CallReturn));
}

TEST(StartPointStackTest, DepthOneStackReplaces)
{
    StartPointStack st(1, 0);
    EXPECT_TRUE(st.push(0x100, StartPointKind::CallReturn));
    EXPECT_TRUE(st.push(0x200, StartPointKind::LoopExit));
    EXPECT_EQ(st.size(), 1u);
    EXPECT_EQ(st.top().addr, 0x200u);
    EXPECT_EQ(st.top().kind, StartPointKind::LoopExit);
}

TEST(StartPointStackTest, TopPeeksWithoutRemoving)
{
    StartPointStack st(16, 4);
    st.push(0x100, StartPointKind::CallReturn);
    st.push(0x200, StartPointKind::LoopExit);
    EXPECT_EQ(st.top().addr, 0x200u);
    EXPECT_EQ(st.size(), 2u);
    EXPECT_EQ(st.pop().addr, 0x200u);
}

TEST(StartPointStackTest, ClearForgetsCompletedRegions)
{
    StartPointStack st(16, 4);
    st.push(0x100, StartPointKind::CallReturn);
    st.markCompleted(0x200);
    st.clear();
    EXPECT_TRUE(st.empty());
    EXPECT_FALSE(st.completedRecently(0x200));
    EXPECT_TRUE(st.push(0x200, StartPointKind::CallReturn));
}

// ---------------------------------------------------------------
// PreconstructionBuffers.
// ---------------------------------------------------------------

Trace
simpleTrace(Addr start)
{
    Trace t;
    t.id = {start, 0, 0};
    Instruction alu;
    alu.op = Opcode::Add;
    alu.rd = 1;
    t.insts.push_back({start, alu, false, 0});
    t.fallThrough = start + 4;
    return t;
}

TEST(PreconBuffersTest, InsertLookupInvalidate)
{
    PreconstructionBuffers pb(32);
    EXPECT_TRUE(pb.insert(simpleTrace(0x1000), 1));
    ASSERT_NE(pb.lookup({0x1000, 0, 0}), nullptr);
    EXPECT_TRUE(pb.invalidate({0x1000, 0, 0}));
    EXPECT_EQ(pb.lookup({0x1000, 0, 0}), nullptr);
}

TEST(PreconBuffersTest, NewerRegionDisplacesOlder)
{
    // Tiny buffer: 2 entries, 1 set of 2 ways.
    PreconstructionBuffers pb(2, 2);
    EXPECT_TRUE(pb.insert(simpleTrace(0x1000), 1));
    EXPECT_TRUE(pb.insert(simpleTrace(0x2000), 1));
    // A newer region displaces region 1's oldest entry.
    EXPECT_TRUE(pb.insert(simpleTrace(0x3000), 2));
    EXPECT_EQ(pb.numValid(), 2u);
    EXPECT_TRUE(pb.contains({0x3000, 0, 0}));
}

TEST(PreconBuffersTest, SameRegionNeverDisplacesItself)
{
    PreconstructionBuffers pb(2, 2);
    EXPECT_TRUE(pb.insert(simpleTrace(0x1000), 5));
    EXPECT_TRUE(pb.insert(simpleTrace(0x2000), 5));
    // Region 5 may not evict its own traces.
    EXPECT_FALSE(pb.insert(simpleTrace(0x3000), 5));
    // An *older* region may not displace a newer one either.
    EXPECT_FALSE(pb.insert(simpleTrace(0x4000), 3));
    EXPECT_TRUE(pb.contains({0x1000, 0, 0}));
    EXPECT_TRUE(pb.contains({0x2000, 0, 0}));
}

TEST(PreconBuffersTest, ReinsertRefreshesOwnership)
{
    PreconstructionBuffers pb(32);
    EXPECT_TRUE(pb.insert(simpleTrace(0x1000), 1));
    EXPECT_TRUE(pb.insert(simpleTrace(0x1000), 9));
    EXPECT_EQ(pb.numValid(), 1u);
}

TEST(PreconBuffersTest, SizingMatchesPaper)
{
    PreconstructionBuffers pb(32);
    EXPECT_EQ(pb.sizeBytes(), 2u * 1024);
    PreconstructionBuffers big(256);
    EXPECT_EQ(big.sizeBytes(), 16u * 1024);
}

TEST(PreconBuffersTest, MissAndAbsentInvalidate)
{
    PreconstructionBuffers pb(32);
    EXPECT_EQ(pb.lookup({0x1000, 0, 0}), nullptr);
    EXPECT_FALSE(pb.contains({0x1000, 0, 0}));
    EXPECT_FALSE(pb.invalidate({0x1000, 0, 0}));
    pb.insert(simpleTrace(0x1000), 1);
    // Same start, different branch outcomes: a distinct trace id.
    EXPECT_EQ(pb.lookup({0x1000, 0x1, 1}), nullptr);
}

TEST(PreconBuffersTest, InvalidateFreesWayForRefusedInsert)
{
    // Both ways held by region 7: region 7 (equal seq) is refused,
    // but once the consumer drains one entry the insert lands in
    // the freed way.
    PreconstructionBuffers pb(2, 2);
    EXPECT_TRUE(pb.insert(simpleTrace(0x1000), 7));
    EXPECT_TRUE(pb.insert(simpleTrace(0x2000), 7));
    EXPECT_FALSE(pb.insert(simpleTrace(0x3000), 7));
    EXPECT_TRUE(pb.invalidate({0x1000, 0, 0}));
    EXPECT_TRUE(pb.insert(simpleTrace(0x3000), 7));
    EXPECT_EQ(pb.numValid(), 2u);
    EXPECT_TRUE(pb.contains({0x2000, 0, 0}));
    EXPECT_TRUE(pb.contains({0x3000, 0, 0}));
}

TEST(PreconBuffersTest, ForEachValidVisitsEveryEntryOnce)
{
    PreconstructionBuffers pb(2, 2);
    pb.insert(simpleTrace(0x1000), 3);
    pb.insert(simpleTrace(0x2000), 4);
    std::map<Addr, std::uint64_t> seen;
    std::size_t visits = 0;
    pb.forEachValid([&](const Trace &t, std::uint64_t seq) {
        ++visits;
        seen[t.id.startPc] = seq;
    });
    EXPECT_EQ(visits, 2u);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0x1000], 3u);
    EXPECT_EQ(seen[0x2000], 4u);
}

TEST(PreconBuffersTest, RefreshReplacesTraceContents)
{
    PreconstructionBuffers pb(32);
    pb.insert(simpleTrace(0x1000), 1);
    Trace longer = simpleTrace(0x1000);
    Instruction alu;
    alu.op = Opcode::Add;
    alu.rd = 2;
    longer.insts.push_back({0x1004, alu, false, 0});
    longer.fallThrough = 0x1008;
    EXPECT_TRUE(pb.insert(longer, 2));
    const Trace *hit = pb.lookup({0x1000, 0, 0});
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->len(), 2u);
    EXPECT_EQ(hit->fallThrough, 0x1008u);
}

TEST(PreconBuffersTest, ClearResetsPriorities)
{
    PreconstructionBuffers pb(2, 2);
    pb.insert(simpleTrace(0x1000), 9);
    pb.insert(simpleTrace(0x2000), 9);
    pb.clear();
    EXPECT_EQ(pb.numValid(), 0u);
    // With priorities reset, even the lowest region seq may insert.
    EXPECT_TRUE(pb.insert(simpleTrace(0x3000), 1));
    EXPECT_EQ(pb.numValid(), 1u);
}

// ---------------------------------------------------------------
// Region.
// ---------------------------------------------------------------

TEST(RegionTest, LoopExitSeedsAlignmentGrid)
{
    PreconPolicy policy;
    policy.loopExitAlignSeeds = 4;
    Region r(1, {0x1000, StartPointKind::LoopExit}, 256, policy);
    std::set<Addr> starts;
    while (!r.worklistEmpty())
        starts.insert(r.takeStartPoint());
    // Seeds every 4 instructions (16 bytes) past the exit.
    EXPECT_EQ(starts,
              (std::set<Addr>{0x1000, 0x1010, 0x1020, 0x1030}));
}

TEST(RegionTest, CallReturnSeedsOnlyOrigin)
{
    PreconPolicy policy;
    Region r(1, {0x1000, StartPointKind::CallReturn}, 256, policy);
    EXPECT_EQ(r.takeStartPoint(), 0x1000u);
    EXPECT_TRUE(r.worklistEmpty());
}

TEST(RegionTest, WorklistDedupsAndBounds)
{
    PreconPolicy policy;
    policy.worklistMax = 3;
    Region r(1, {0x1000, StartPointKind::CallReturn}, 256, policy);
    r.addStartPoint(0x1000); // duplicate of origin
    r.addStartPoint(0x2000);
    r.addStartPoint(0x3000);
    r.addStartPoint(0x4000); // over the bound
    unsigned count = 0;
    while (!r.worklistEmpty()) {
        r.takeStartPoint();
        ++count;
    }
    EXPECT_EQ(count, 3u);
}

TEST(RegionTest, FinishClearsWork)
{
    PreconPolicy policy;
    Region r(1, {0x1000, StartPointKind::CallReturn}, 256, policy);
    r.finish(RegionEndReason::CaughtUp);
    EXPECT_EQ(r.state(), RegionState::Done);
    EXPECT_TRUE(r.worklistEmpty());
    r.addStartPoint(0x5000); // ignored once done
    EXPECT_TRUE(r.worklistEmpty());
}

// ---------------------------------------------------------------
// The paper's Figure 2/3 example, end to end.
//
// Static code: block a, then JAL to a procedure (b, loop of c,
// if-then-else d/(e|f)/g, return), then h, a loop of i, and j.
// ---------------------------------------------------------------

struct ExampleProgram
{
    Program program;
    Addr afterJal;   // region 1 start point (return point)
    Addr hBlock;     // first instruction after the call
};

ExampleProgram
buildExample()
{
    ProgramBuilder b;
    auto proc = b.newLabel("proc");
    auto after = b.newLabel("after_call");

    // Block a.
    b.li(1, 4);   // c-loop trip count
    b.li(2, 0);
    b.call(proc); // JAL: region start point after this
    b.bind(after);

    // Block h.
    b.addi(2, 2, 1);
    b.addi(2, 2, 1);
    // Loop of i blocks.
    b.li(3, 3);
    auto iloop = b.here("i_loop");
    b.addi(2, 2, 5);
    b.addi(3, 3, -1);
    b.bne(3, 0, iloop);
    // Block j.
    b.addi(2, 2, 9);
    b.halt();

    // The procedure: block b, loop of c, if-then-else d/(e|f)/g.
    b.bind(proc);
    b.addi(4, 0, 0);     // block b
    auto cloop = b.here("c_loop");
    b.addi(4, 4, 1);     // block c
    b.addi(1, 1, -1);
    b.bne(1, 0, cloop);  // Br1: backward branch
    // Block d, then if-then-else on r4's parity.
    b.andi(5, 4, 1);
    auto else_l = b.newLabel("f_block");
    auto join = b.newLabel("g_block");
    b.beq(5, 0, else_l);
    b.addi(2, 2, 2);     // block e
    b.jmp(join);
    b.bind(else_l);
    b.addi(2, 2, 3);     // block f
    b.bind(join);
    b.addi(2, 2, 4);     // block g
    b.ret();

    Program p = b.build();
    return {p, p.symbol("after_call"), p.symbol("after_call")};
}

TEST(PreconExampleTest, RegionOneConstructedBeforeReturn)
{
    ExampleProgram ex = buildExample();

    TraceCache tc(64);
    ICache ic;
    BimodalPredictor bp;
    PreconConfig cfg;
    PreconstructionEngine engine(ex.program, ic, bp, tc, cfg);

    // Simulate observing the dispatch of the JAL call: this
    // pushes the return point as a region start point.
    DynInst call;
    call.pc = ex.afterJal - instBytes;
    call.inst = ex.program.instAt(call.pc);
    ASSERT_TRUE(call.inst.isCall());
    call.nextPc = ex.program.symbol("proc");
    call.taken = true;
    engine.observeCommit(call.pc, call.inst, call.taken);
    EXPECT_EQ(engine.stats().startPointsPushed, 1u);

    // Give the engine time with a free I-cache port (the callee is
    // "executing" meanwhile).
    engine.tick(200, true);

    // Region 1 must have produced traces starting at the return
    // point covering <h, i, ...>.
    EXPECT_GT(engine.stats().tracesConstructed, 0u);

    // The first trace of region 1 starts exactly at the return
    // point; find it in the buffers by probing plausible ids.
    bool found = false;
    for (std::uint16_t flags = 0; flags < 16 && !found; ++flags) {
        for (std::uint8_t nb = 0; nb <= 4 && !found; ++nb) {
            TraceId id{ex.afterJal, flags, nb};
            found = engine.lookupBuffer(id) != nullptr;
        }
    }
    EXPECT_TRUE(found);
}

TEST(PreconExampleTest, FastSimUsesPreconstructedTraces)
{
    // A hand-built program whose trace working set exceeds a tiny
    // trace cache: eight procedures, each a loop followed by
    // straight-line code, called round-robin. Regions recur, get
    // evicted, and preconstruction re-supplies them.
    ProgramBuilder b;
    std::vector<ProgramBuilder::Label> procs;
    for (int i = 0; i < 8; ++i)
        procs.push_back(b.newLabel("p" + std::to_string(i)));

    b.li(10, 2000); // outer repetitions
    auto outer = b.here("outer");
    for (int i = 0; i < 8; ++i) {
        b.li(1, 6);
        b.jal(linkReg, procs[i]);
        // Code after the return point (the region's target).
        for (int k = 0; k < 6; ++k)
            b.addi(2, 2, i + k);
    }
    b.addi(10, 10, -1);
    b.bne(10, 0, outer);
    b.halt();

    for (int i = 0; i < 8; ++i) {
        b.bind(procs[i]);
        auto loop = b.here();
        b.addi(4, 4, 1);
        b.addi(5, 5, i);
        b.addi(1, 1, -1);
        b.bne(1, 0, loop);
        // Post-loop code (loop-exit region target).
        for (int k = 0; k < 5; ++k)
            b.addi(6, 6, k);
        b.ret();
    }
    Program p = b.build();

    // Small enough to thrash, large enough that some hits leave
    // the I-cache port idle for preconstruction fetches (with a
    // 100% miss rate the slow path never idles and the engine is
    // starved, by design).
    FastSimConfig cfg;
    cfg.traceCacheEntries = 32;
    cfg.preconEnabled = true;
    cfg.precon.bufferEntries = 64;
    FastSim sim(p, cfg);
    const FastSimStats &st = sim.run(120000);
    EXPECT_GT(st.precon.regionsStarted, 0u);
    EXPECT_GT(st.precon.tracesBuffered, 0u);
    EXPECT_GT(st.tcMisses, 100u);
    EXPECT_GT(st.pbHits, 0u);
}

// ---------------------------------------------------------------
// Constructor behaviour details via the engine.
// ---------------------------------------------------------------

TEST(PreconEngineTest, TerminatesAtIndirectJump)
{
    // start point -> a few ALUs -> indirect call: the region can
    // only construct the one trace ending at the jalr.
    ProgramBuilder b;
    b.nop(); // filler so start != base
    auto start = b.here("start");
    b.addi(1, 1, 1);
    b.addi(2, 2, 2);
    b.jalr(linkReg, 9, 0); // unknowable target
    b.halt();
    Program p = b.build();

    TraceCache tc(64);
    ICache ic;
    BimodalPredictor bp;
    PreconstructionEngine engine(p, ic, bp, tc, {});

    DynInst fake;
    fake.pc = p.base();
    Instruction jal;
    jal.op = Opcode::Jal;
    jal.rd = linkReg;
    jal.imm = 0;
    fake.inst = jal;
    fake.taken = true;
    // Pushes start (= base+4).
    engine.observeCommit(fake.pc, fake.inst, fake.taken);
    engine.tick(100, true);

    EXPECT_EQ(engine.stats().tracesConstructed, 1u);
    EXPECT_EQ(engine.stats().regionsCompleted, 1u);
    (void)start;
}

TEST(PreconEngineTest, CatchUpTerminatesRegion)
{
    ProgramBuilder b;
    b.nop();
    auto start = b.here("start");
    for (int i = 0; i < 40; ++i)
        b.addi(1, 1, 1);
    b.halt();
    Program p = b.build();
    (void)start;

    TraceCache tc(64);
    ICache ic;
    BimodalPredictor bp;
    PreconstructionEngine engine(p, ic, bp, tc, {});

    DynInst call;
    call.pc = p.base();
    Instruction jal;
    jal.op = Opcode::Jal;
    jal.rd = linkReg;
    call.inst = jal;
    call.taken = true;
    engine.observeCommit(call.pc, call.inst, call.taken);
    engine.tick(1, true); // region starts

    // The processor reaches the region start: catch-up.
    DynInst reach;
    reach.pc = p.base() + instBytes;
    Instruction alu;
    alu.op = Opcode::Addi;
    reach.inst = alu;
    engine.observeCommit(reach.pc, reach.inst, reach.taken);
    engine.tick(1, true);
    EXPECT_EQ(engine.stats().regionsCaughtUp, 1u);
}

TEST(PreconEngineTest, BiasPruningFollowsDominantDirection)
{
    // A strongly biased forward branch: only the dominant path is
    // explored, so exactly one trace is built from the start.
    ProgramBuilder b;
    b.nop();
    auto start = b.here("start");
    auto skip = b.newLabel("skip");
    b.beq(1, 0, skip); // will be trained strongly not-taken
    for (int i = 0; i < 7; ++i)
        b.addi(1, 1, 1);
    b.bind(skip);
    b.jalr(linkReg, 9, 0); // ends region exploration
    b.halt();
    Program p = b.build();

    TraceCache tc(64);
    ICache ic;
    BimodalPredictor bp;

    // Train the branch strongly not-taken.
    const Addr branch_pc = p.symbol("start");
    for (int i = 0; i < 4; ++i)
        bp.update(branch_pc, false);
    ASSERT_TRUE(bp.bias(branch_pc).strong);

    PreconstructionEngine engine(p, ic, bp, tc, {});
    DynInst call;
    call.pc = p.base();
    Instruction jal;
    jal.op = Opcode::Jal;
    jal.rd = linkReg;
    call.inst = jal;
    call.taken = true;
    engine.observeCommit(call.pc, call.inst, call.taken);
    engine.tick(100, true);

    // Not-taken path: 1 (branch) + 7 (ALUs) + 1 (jalr) = 9 insts,
    // a single trace; the taken path is never explored.
    EXPECT_EQ(engine.stats().tracesConstructed, 1u);
    (void)start;
}

TEST(PreconEngineTest, UnbiasedBranchForksBothPaths)
{
    ProgramBuilder b;
    b.nop();
    auto start = b.here("start");
    auto skip = b.newLabel("skip");
    b.beq(1, 0, skip);
    for (int i = 0; i < 3; ++i)
        b.addi(1, 1, 1);
    b.bind(skip);
    b.jalr(linkReg, 9, 0);
    b.halt();
    Program p = b.build();
    (void)start;

    TraceCache tc(64);
    ICache ic;
    BimodalPredictor bp; // counters init to 2: weak, not strong

    PreconstructionEngine engine(p, ic, bp, tc, {});
    DynInst call;
    call.pc = p.base();
    Instruction jal;
    jal.op = Opcode::Jal;
    jal.rd = linkReg;
    call.inst = jal;
    call.taken = true;
    engine.observeCommit(call.pc, call.inst, call.taken);
    engine.tick(200, true);

    // Both directions of the weak branch are explored.
    EXPECT_EQ(engine.stats().tracesConstructed, 2u);
}

TEST(PreconEngineTest, NoFetchWhenPortBusy)
{
    ProgramBuilder b;
    b.nop();
    for (int i = 0; i < 20; ++i)
        b.addi(1, 1, 1);
    b.halt();
    Program p = b.build();

    TraceCache tc(64);
    ICache ic;
    BimodalPredictor bp;
    PreconstructionEngine engine(p, ic, bp, tc, {});

    DynInst call;
    call.pc = p.base();
    Instruction jal;
    jal.op = Opcode::Jal;
    jal.rd = linkReg;
    call.inst = jal;
    call.taken = true;
    engine.observeCommit(call.pc, call.inst, call.taken);

    engine.tick(100, false); // slow path owns the port
    EXPECT_EQ(engine.stats().linesFetched, 0u);
    EXPECT_EQ(engine.stats().tracesConstructed, 0u);

    engine.tick(100, true);
    EXPECT_GT(engine.stats().linesFetched, 0u);
    EXPECT_GT(engine.stats().tracesConstructed, 0u);
}

TEST(PreconEngineTest, BufferHitConsumedOnce)
{
    ProgramBuilder b;
    b.nop();
    for (int i = 0; i < 10; ++i)
        b.addi(1, 1, 1);
    b.jalr(linkReg, 9, 0);
    b.halt();
    Program p = b.build();

    TraceCache tc(64);
    ICache ic;
    BimodalPredictor bp;
    PreconstructionEngine engine(p, ic, bp, tc, {});

    DynInst call;
    call.pc = p.base();
    Instruction jal;
    jal.op = Opcode::Jal;
    jal.rd = linkReg;
    call.inst = jal;
    call.taken = true;
    engine.observeCommit(call.pc, call.inst, call.taken);
    engine.tick(200, true);
    ASSERT_GT(engine.stats().tracesBuffered, 0u);

    // Find a buffered trace, consume it, and verify it is gone.
    TraceId found;
    for (std::uint16_t flags = 0; flags < 4; ++flags) {
        TraceId id{p.base() + instBytes, flags, 0};
        if (engine.lookupBuffer(id)) {
            found = id;
            break;
        }
    }
    ASSERT_TRUE(found.valid());
    engine.consumeHit(found);
    EXPECT_EQ(engine.lookupBuffer(found), nullptr);
}

// ---------------------------------------------------------------
// System-level property: preconstruction never changes committed
// behaviour, only timing/miss stats.
// ---------------------------------------------------------------

TEST(PreconSystemTest, ExecutionInvariantUnderPrecon)
{
    WorkloadGenerator gen(specint95Profile("li"));
    auto wl = gen.generate();

    FastSimConfig base;
    base.traceCacheEntries = 128;
    FastSim a(wl.program, base);
    const FastSimStats &sa = a.run(200000);

    FastSimConfig withPre = base;
    withPre.preconEnabled = true;
    withPre.precon.bufferEntries = 128;
    FastSim b(wl.program, withPre);
    const FastSimStats &sb = b.run(200000);

    // Same committed stream: same instruction and trace counts.
    EXPECT_EQ(sa.instructions, sb.instructions);
    EXPECT_EQ(sa.traces, sb.traces);
    // And preconstruction can only reduce combined misses.
    EXPECT_LE(sb.tcMisses, sa.tcMisses);
}

TEST(PreconSystemTest, ReducesMissesOnLargeWorkload)
{
    WorkloadGenerator gen(specint95Profile("gcc"));
    auto wl = gen.generate();

    FastSimConfig base;
    base.traceCacheEntries = 256;
    FastSim a(wl.program, base);
    double base_misses = a.run(400000).missesPerKiloInst();

    FastSimConfig withPre = base;
    withPre.preconEnabled = true;
    withPre.precon.bufferEntries = 256;
    FastSim b(wl.program, withPre);
    double pre_misses = b.run(400000).missesPerKiloInst();

    // The paper's headline: a notable reduction (>15% here).
    EXPECT_LT(pre_misses, base_misses * 0.85);
}

} // namespace
} // namespace tpre

/**
 * @file
 * Tests for the timing models: the TimingBackend's dependence and
 * resource behaviour, the fast frontend simulator, and the full
 * TraceProcessor.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "check/diff.hh"
#include "check/invariants.hh"
#include "check/stats_check.hh"
#include "common/random.hh"
#include "isa/builder.hh"
#include "tproc/backend.hh"
#include "tproc/fast_sim.hh"
#include "tproc/processor.hh"
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

/** Build a trace plus matching dynamic records. */
std::pair<Trace, std::vector<DynInst>>
traceAndDyn(const std::vector<Instruction> &insts)
{
    Trace t;
    t.id.startPc = 0x1000;
    std::vector<DynInst> dyn;
    Addr pc = 0x1000;
    std::uint8_t pos = 0;
    for (const Instruction &inst : insts) {
        t.insts.push_back({pc, inst, false, pos++});
        DynInst d;
        d.pc = pc;
        d.inst = inst;
        d.nextPc = pc + 4;
        d.effAddr = 0x100000 + pos * 8;
        dyn.push_back(d);
        pc += 4;
    }
    t.fallThrough = pc;
    return {t, dyn};
}

Cycle
runUntilRetired(TimingBackend &be, Cycle start = 0)
{
    Cycle now = start;
    while (!be.empty()) {
        ++now;
        be.tick(now);
        while (!be.empty()) {
            Cycle done = be.headCompletionTime();
            if (done == TimingBackend::noCompletion || done > now)
                break;
            be.retireHead();
        }
        if (now > start + 100000) {
            ADD_FAILURE() << "backend did not drain";
            break;
        }
    }
    return now;
}

TEST(BackendTest, IndependentOpsRunAtIssueWidth)
{
    TimingBackend be;
    std::vector<Instruction> insts;
    for (int i = 0; i < 8; ++i)
        insts.push_back(
            makeInst(Opcode::Addi, RegIndex(1 + i), 0, 0, 1));
    auto [t, dyn] = traceAndDyn(insts);
    be.dispatch(t, dyn, 0);
    Cycle end = runUntilRetired(be);
    // 8 independent 1-cycle ops at 2/cycle: ~4 cycles + epsilon.
    EXPECT_LE(end, 6u);
    EXPECT_EQ(be.stats().instsIssued, 8u);
}

TEST(BackendTest, DependentChainSerializes)
{
    TimingBackend be;
    std::vector<Instruction> insts;
    for (int i = 0; i < 8; ++i)
        insts.push_back(makeInst(Opcode::Addi, 1, 1, 0, 1));
    auto [t, dyn] = traceAndDyn(insts);
    be.dispatch(t, dyn, 0);
    Cycle end = runUntilRetired(be);
    EXPECT_GE(end, 8u); // one per cycle at best
}

TEST(BackendTest, MulLatencyObserved)
{
    BackendConfig cfg;
    cfg.mulLatency = 5;
    TimingBackend be(cfg);
    auto [t, dyn] = traceAndDyn({
        makeInst(Opcode::Mul, 1, 2, 3),
        makeInst(Opcode::Addi, 4, 1, 0, 1), // depends on the mul
    });
    be.dispatch(t, dyn, 0);
    Cycle end = runUntilRetired(be);
    EXPECT_GE(end, 1u + 5 + 1);
}

TEST(BackendTest, CrossPeCommunicationCostsExtra)
{
    // Producer in PE0, consumer trace in PE1: the consumer sees
    // crossPeLatency extra cycles.
    TimingBackend be;
    auto [t1, d1] = traceAndDyn({makeInst(Opcode::Mul, 1, 2, 3)});
    auto [t2, d2] = traceAndDyn({makeInst(Opcode::Addi, 4, 1, 0, 1)});
    be.dispatch(t1, d1, 0);
    be.dispatch(t2, d2, 0);
    be.tick(1);
    be.tick(2);
    // mul completes at 1 + 5 = 6; cross-PE adds 2 -> issue at 8,
    // complete at 9.
    Cycle now = 2;
    while (be.completionOf(2, 0) == TimingBackend::noCompletion) {
        be.tick(++now);
        ASSERT_LT(now, 1000u) << "consumer never issued";
    }
    EXPECT_EQ(be.completionOf(2, 0), 9u);
}

TEST(BackendTest, DcacheMissLatency)
{
    BackendConfig cfg;
    cfg.dcacheHitLatency = 2;
    cfg.dcacheMissLatency = 10;
    TimingBackend be(cfg);
    auto [t, dyn] = traceAndDyn({
        makeInst(Opcode::Ld, 1, 2, 0, 0),   // cold: miss
        makeInst(Opcode::Addi, 3, 1, 0, 1), // dependent
    });
    be.dispatch(t, dyn, 0);
    runUntilRetired(be);
    EXPECT_EQ(be.stats().dcacheMisses, 1u);
    // Load issues at 1, completes at 11; dependent at 12.
    EXPECT_EQ(be.completionOf(1, 1), 12u);
}

TEST(BackendTest, DcachePortsLimitMemOpsPerCycle)
{
    BackendConfig cfg;
    cfg.dcachePorts = 4;
    cfg.dcachePortsPerPe = 2;
    // Issue 4 wide, so the per-PE ports, not the issue width, are
    // what hold the independent loads to 2 a cycle.
    cfg.issuePerPe = 4;
    TimingBackend be(cfg);
    std::vector<Instruction> loads;
    for (int i = 0; i < 4; ++i)
        loads.push_back(
            makeInst(Opcode::Ld, RegIndex(1 + i), 20, 0, i * 8));
    auto [t, dyn] = traceAndDyn(loads);
    be.dispatch(t, dyn, 0);
    be.tick(1);
    // Only 2 loads issue in cycle 1 (per-PE port limit).
    unsigned issued_now = 0;
    for (unsigned i = 0; i < 4; ++i)
        issued_now +=
            be.completionOf(1, i) != TimingBackend::noCompletion;
    EXPECT_EQ(issued_now, 2u);
}

TEST(BackendTest, RetireInProgramOrder)
{
    TimingBackend be;
    auto [t1, d1] = traceAndDyn({makeInst(Opcode::Div, 1, 2, 3)});
    auto [t2, d2] = traceAndDyn({makeInst(Opcode::Addi, 4, 0, 0, 1)});
    std::uint64_t h1 = be.dispatch(t1, d1, 0);
    be.dispatch(t2, d2, 0);
    // Head (slow div) is not done even when trace 2 finished.
    for (Cycle c = 1; c < 5; ++c)
        be.tick(c);
    EXPECT_EQ(be.headHandle(), h1);
    EXPECT_FALSE(be.headDone() &&
                 be.headCompletionTime() <= 4);
    runUntilRetired(be, 5);
}

TEST(BackendTest, PeCapacity)
{
    TimingBackend be;
    auto [t, d] = traceAndDyn({makeInst(Opcode::Div, 1, 2, 3)});
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(be.hasFreePe());
        be.dispatch(t, d, 0);
    }
    EXPECT_FALSE(be.hasFreePe());
    EXPECT_EQ(be.inflightTraces(), 4u);
}

TEST(BackendTest, InOrderPeStallsAtNotReady)
{
    TimingBackend be;
    auto [t, dyn] = traceAndDyn({
        makeInst(Opcode::Mul, 1, 2, 3),     // 5 cycles
        makeInst(Opcode::Addi, 4, 1, 0, 1), // dependent
        makeInst(Opcode::Addi, 5, 0, 0, 1), // independent
    });
    be.dispatch(t, dyn, 0);
    be.tick(1);
    be.tick(2);
    // In-order: the independent op must NOT have issued yet.
    EXPECT_EQ(be.completionOf(1, 2), TimingBackend::noCompletion);
}

TEST(BackendTest, DelayInstHoldsIssue)
{
    TimingBackend be;
    auto [t, dyn] = traceAndDyn({makeInst(Opcode::Addi, 1, 0, 0, 1)});
    std::uint64_t h = be.dispatch(t, dyn, 0);
    be.delayInst(h, 0, 10);
    for (Cycle c = 1; c <= 9; ++c)
        be.tick(c);
    EXPECT_EQ(be.completionOf(h, 0), TimingBackend::noCompletion);
    be.tick(10);
    EXPECT_NE(be.completionOf(h, 0), TimingBackend::noCompletion);
}

TEST(BackendTest, CompletionOfLongRetiredHandleReadsZero)
{
    TimingBackend be;
    auto [t, dyn] = traceAndDyn({makeInst(Opcode::Mul, 1, 1, 0)});
    std::vector<std::uint64_t> handles;
    std::vector<Cycle> done;
    Cycle now = 0;
    for (unsigned i = 0; i < TimingBackend::retainedTraces + 4; ++i) {
        handles.push_back(be.dispatch(t, dyn, now));
        now = runUntilRetired(be, now);
        done.push_back(be.completionOf(handles.back(), 0));
        ASSERT_NE(done.back(), TimingBackend::noCompletion);
        ASSERT_GT(done.back(), 0u);
    }
    // The newest retainedTraces retirements keep their completion
    // times; anything older reads as complete at cycle 0.
    for (std::size_t i = 0; i < handles.size(); ++i) {
        const bool retained =
            i + TimingBackend::retainedTraces >= handles.size();
        EXPECT_EQ(be.completionOf(handles[i], 0),
                  retained ? done[i] : 0u)
            << "handle " << handles[i];
    }
    // A handle never dispatched reads 0 too, and delaying a long
    // retired instruction is a no-op.
    EXPECT_EQ(be.completionOf(handles.back() + 1, 0), 0u);
    be.delayInst(handles.front(), 0, now + 100);
    EXPECT_EQ(be.completionOf(handles.front(), 0), 0u);
}

TEST(BackendTest, ProducerDroppedFromRetentionReadsAsLongComplete)
{
    // Enough PEs that a consumer can still wait while its producer
    // and retainedTraces younger traces retire in one cycle: the
    // producer then reads as complete at cycle 0, as any long
    // retired one does, and the consumer's wait shrinks to the
    // cross-PE latency.
    BackendConfig cfg;
    cfg.numPes = TimingBackend::retainedTraces + 4;
    cfg.crossPeLatency = 5;
    TimingBackend be(cfg);
    auto [p, pd] = traceAndDyn({makeInst(Opcode::Mul, 1, 2, 3)});
    auto [f, fd] = traceAndDyn({makeInst(Opcode::Addi, 5, 0, 0, 1)});
    auto [c, cd] = traceAndDyn({makeInst(Opcode::Addi, 4, 1, 0, 1)});
    const std::uint64_t producer = be.dispatch(p, pd, 0);
    for (unsigned i = 0; i < TimingBackend::retainedTraces; ++i)
        be.dispatch(f, fd, 0);
    const std::uint64_t consumer = be.dispatch(c, cd, 0);
    // The mul issues at 1 and completes at 6, when the producer and
    // every filler retire; the consumer would wait for 6 + 5 = 11
    // but issues at 7 instead.
    Cycle now = 0;
    while (be.completionOf(consumer, 0) == TimingBackend::noCompletion) {
        be.tick(++now);
        while (be.headHandle() != consumer &&
               be.headCompletionTime() <= now)
            be.retireHead();
        ASSERT_LT(now, 100u);
    }
    EXPECT_EQ(be.completionOf(producer, 0), 0u);
    EXPECT_EQ(be.completionOf(consumer, 0), 8u);
}

TEST(BackendTest, BusAccountingSurvivesGapLongerThanRing)
{
    // One result bus, and a consumer trace on PE1 whose two
    // instructions read values produced on PE0, so they contend for
    // the bus in the same cycle: one transfers, one stalls.
    BackendConfig cfg;
    cfg.resultBuses = 1;
    auto [p, pd] = traceAndDyn({makeInst(Opcode::Addi, 1, 0, 0, 1),
                                makeInst(Opcode::Addi, 2, 0, 0, 1)});
    auto [d, dd] = traceAndDyn({makeInst(Opcode::Addi, 9, 0, 0, 1)});
    auto [c, cd] = traceAndDyn({makeInst(Opcode::Addi, 3, 1, 0, 1),
                                makeInst(Opcode::Addi, 4, 2, 0, 1)});
    // Round one: the producers issue at 1 and complete at 2; the
    // consumers use the bus at 4 and 5. Round two re-dispatches the
    // consumers (behind a filler on PE0) after an idle gap, so they
    // are ready in the first cycle after it. A gap of 64k + 3 lands
    // that cycle on the ring entries round one used.
    for (const Cycle gap : {Cycle{643}, Cycle{700}, Cycle{6403}}) {
        SCOPED_TRACE("gap " + std::to_string(gap));
        TimingBackend jumped(cfg), ticked(cfg);
        for (TimingBackend *be : {&jumped, &ticked}) {
            be->dispatch(p, pd, 0);
            be->dispatch(c, cd, 0);
            Cycle now = runUntilRetired(*be);
            while (be == &ticked && now < gap)
                be->tick(++now);
            be->dispatch(d, dd, gap);
            be->dispatch(c, cd, gap);
            runUntilRetired(*be, gap);
        }
        EXPECT_EQ(jumped.stats().busTransfers, 4u);
        EXPECT_EQ(jumped.stats().busStalls, 2u);
        EXPECT_EQ(ticked.stats().busStalls, 2u);
        for (std::uint64_t h = 1; h <= 4; ++h) {
            const unsigned len = h == 3 ? 1 : 2;
            for (unsigned i = 0; i < len; ++i)
                EXPECT_EQ(jumped.completionOf(h, i),
                          ticked.completionOf(h, i));
        }
        EXPECT_EQ(jumped.completionOf(4, 0), gap + 2);
        EXPECT_EQ(jumped.completionOf(4, 1), gap + 3);
    }
}

// ---------------------------------------------------------------
// Event skipping: a backend driven only at nextEvent() cycles must
// be indistinguishable from one ticked every cycle.
// ---------------------------------------------------------------

/** A random dependent trace stream plus frontend timing. */
struct SkipWorkload
{
    std::vector<std::pair<Trace, std::vector<DynInst>>> traces;
    /** Earliest dispatch cycle of each trace. */
    std::vector<Cycle> arrival;
    /**
     * Per dispatch: delay instruction idx of the trace dispatched
     * `back` traces earlier (when still in flight) by `extra`.
     */
    struct Delay
    {
        bool enabled;
        unsigned back;
        unsigned idx;
        Cycle extra;
    };
    std::vector<Delay> delays;
};

SkipWorkload
randomSkipWorkload(std::uint64_t seed, unsigned count)
{
    static const Opcode ops[] = {Opcode::Add, Opcode::Addi,
                                 Opcode::Sub, Opcode::Mul,
                                 Opcode::Div, Opcode::Ld,
                                 Opcode::Sd};
    Rng rng(seed);
    SkipWorkload w;
    Cycle at = 0;
    for (unsigned n = 0; n < count; ++n) {
        // Few registers, so operands chain within and across
        // traces (and so across PEs).
        const auto reg = [&] { return RegIndex(rng.nextBelow(6)); };
        std::vector<Instruction> insts;
        const unsigned len = 1 + rng.nextBelow(maxTraceLen);
        for (unsigned i = 0; i < len; ++i) {
            insts.push_back(makeInst(ops[rng.nextBelow(std::size(ops))],
                                     reg(), reg(), reg(), 8));
        }
        auto trace = traceAndDyn(insts);
        for (DynInst &d : trace.second)
            d.effAddr = 0x100000 + rng.nextBelow(1024) * 64;
        w.traces.push_back(std::move(trace));
        // Mostly back to back; sometimes a gap longer than the bus
        // ring.
        at += rng.nextBool(0.05) ? 64 + rng.nextBelow(200)
                                 : rng.nextBelow(3);
        w.arrival.push_back(at);
        w.delays.push_back({rng.nextBool(0.3),
                            static_cast<unsigned>(rng.nextBelow(4)),
                            static_cast<unsigned>(rng.nextBelow(16)),
                            rng.nextBelow(40)});
    }
    return w;
}

struct SkipRun
{
    std::vector<Cycle> completions; ///< every instruction, at retire
    std::vector<Cycle> retireCycles;
    TimingBackend::Stats stats;
    Cycle end = 0;
    std::uint64_t ticks = 0;
};

SkipRun
driveBackend(const BackendConfig &cfg, const SkipWorkload &w,
             bool skip)
{
    TimingBackend be(cfg);
    SkipRun run;
    std::size_t next = 0;
    std::size_t retired = 0;
    Cycle now = 0;
    while (next < w.traces.size() || !be.empty()) {
        if (skip) {
            Cycle at = be.nextEvent(now);
            if (next < w.traces.size() && be.hasFreePe())
                at = std::min(at, std::max(w.arrival[next], now + 1));
            if (at == TimingBackend::noCompletion) {
                ADD_FAILURE() << "no next event at cycle " << now;
                break;
            }
            EXPECT_GT(at, now);
            now = at;
        } else {
            ++now;
        }
        be.tick(now);
        ++run.ticks;
        while (!be.empty()) {
            const Cycle done = be.headCompletionTime();
            if (done == TimingBackend::noCompletion || done > now)
                break;
            const unsigned len = w.traces[retired].first.len();
            for (unsigned i = 0; i < len; ++i)
                run.completions.push_back(
                    be.completionOf(be.headHandle(), i));
            run.retireCycles.push_back(now);
            be.retireHead();
            ++retired;
        }
        if (next < w.traces.size() && be.hasFreePe() &&
            now >= w.arrival[next]) {
            const auto &[trace, dyn] = w.traces[next];
            be.dispatch(trace, dyn, now);
            // Handles are dense from 1: trace k has handle k + 1.
            const SkipWorkload::Delay &d = w.delays[next];
            if (d.enabled && d.back <= next &&
                next - d.back >= retired) {
                const std::size_t target = next - d.back;
                be.delayInst(target + 1,
                             d.idx % w.traces[target].first.len(),
                             now + d.extra);
            }
            ++next;
        }
        if (now > 2'000'000) {
            ADD_FAILURE() << "backend did not drain";
            break;
        }
    }
    run.stats = be.stats();
    run.end = now;
    return run;
}

TEST(BackendTest, EventSkippingMatchesTickingEveryCycle)
{
    BackendConfig in_order;
    // Scarce buses and ports: structural stalls on most cycles (two
    // buses, the fewest an instruction with two cross-PE operands
    // can ever issue with).
    BackendConfig tight;
    tight.numPes = 2;
    tight.issuePerPe = 1;
    tight.resultBuses = 2;
    tight.dcachePorts = 1;
    tight.dcachePortsPerPe = 1;
    tight.crossPeLatency = 3;
    BackendConfig wide;
    wide.numPes = 8;
    wide.issuePerPe = 4;
    wide.crossPeLatency = 1;
    const std::pair<const char *, BackendConfig> configs[] = {
        {"in-order", in_order},
        {"tight", tight},
        {"wide", wide},
    };
    for (const auto &[name, cfg] : configs) {
        for (std::uint64_t seed = 1; seed <= 12; ++seed) {
            SCOPED_TRACE(std::string(name) + " seed " +
                         std::to_string(seed));
            const SkipWorkload w = randomSkipWorkload(seed, 300);
            const SkipRun full = driveBackend(cfg, w, false);
            const SkipRun skip = driveBackend(cfg, w, true);
            ASSERT_EQ(full.retireCycles.size(), w.traces.size());
            EXPECT_EQ(skip.completions, full.completions);
            EXPECT_EQ(skip.retireCycles, full.retireCycles);
            EXPECT_EQ(skip.end, full.end);
            EXPECT_EQ(skip.stats.instsIssued, full.stats.instsIssued);
            EXPECT_EQ(skip.stats.dcacheAccesses,
                      full.stats.dcacheAccesses);
            EXPECT_EQ(skip.stats.dcacheMisses, full.stats.dcacheMisses);
            EXPECT_EQ(skip.stats.busTransfers, full.stats.busTransfers);
            EXPECT_EQ(skip.stats.busStalls, full.stats.busStalls);
            EXPECT_LT(skip.ticks, full.ticks);
        }
    }
}

// ---------------------------------------------------------------
// FastSim.
// ---------------------------------------------------------------

TEST(FastSimTest, DeterministicAcrossRuns)
{
    WorkloadGenerator gen(specint95Profile("li"));
    auto wl = gen.generate();
    FastSimConfig cfg;
    cfg.preconEnabled = true;
    cfg.precon.bufferEntries = 64;

    FastSim a(wl.program, cfg);
    FastSim b(wl.program, cfg);
    const FastSimStats &sa = a.run(150000);
    const FastSimStats &sb = b.run(150000);
    EXPECT_EQ(sa.instructions, sb.instructions);
    EXPECT_EQ(sa.tcMisses, sb.tcMisses);
    EXPECT_EQ(sa.pbHits, sb.pbHits);
    EXPECT_EQ(sa.cycles, sb.cycles);
}

TEST(FastSimTest, RepeatedTraceHitsAfterFirstMiss)
{
    // A tight loop: the trace misses once and then always hits.
    ProgramBuilder b;
    b.li(1, 8000);
    auto loop = b.here();
    b.addi(2, 2, 1);
    b.addi(1, 1, -1);
    b.bne(1, 0, loop);
    b.halt();
    Program p = b.build();

    FastSim sim(p);
    const FastSimStats &st = sim.run(100000);
    EXPECT_GT(st.traces, 500u);
    EXPECT_LE(st.tcMisses, 8u);
    EXPECT_GT(st.tcHits, st.tcMisses);
}

TEST(FastSimTest, MissesTrackWorkingSetGrowth)
{
    WorkloadGenerator gen(specint95Profile("gcc"));
    auto wl = gen.generate();
    double prev = 1e9;
    // Misses per kilo-instruction decrease with trace cache size.
    for (std::size_t tc : {64, 256, 1024}) {
        FastSimConfig cfg;
        cfg.traceCacheEntries = tc;
        FastSim sim(wl.program, cfg);
        double mpk = sim.run(300000).missesPerKiloInst();
        EXPECT_LT(mpk, prev);
        prev = mpk;
    }
}

TEST(FastSimTest, ICacheStatsPopulated)
{
    WorkloadGenerator gen(specint95Profile("m88ksim"));
    auto wl = gen.generate();
    FastSimConfig cfg;
    cfg.traceCacheEntries = 64;
    FastSim sim(wl.program, cfg);
    const FastSimStats &st = sim.run(200000);
    EXPECT_GT(st.slowPathInsts, 0u);
    EXPECT_GT(st.icache.demandAccesses, 0u);
    EXPECT_GT(st.icache.demandMisses, 0u);
    EXPECT_GE(st.slowPathInsts, st.slowPathInstsFromMisses);
}

// ---------------------------------------------------------------
// The one block loop (DESIGN.md section 14) against the reference
// interpreter and a FunctionalCore::step() loop.
// ---------------------------------------------------------------

bool
sameDyn(const DynInst &a, const DynInst &b)
{
    return a.pc == b.pc && a.inst == b.inst && a.nextPc == b.nextPc &&
           a.taken == b.taken && a.effAddr == b.effAddr;
}

/** Expect @p window to be the commit records at @p at of @p ref. */
void
expectWindowAt(const std::vector<DynInst> &window,
               const check::RefRun &ref, std::size_t at)
{
    ASSERT_LE(at + window.size(), ref.stream.size());
    for (std::size_t i = 0; i < window.size(); ++i)
        EXPECT_TRUE(sameDyn(window[i], ref.stream[at + i]))
            << "commit record " << at + i;
}

/** An onCommit hook that appends to @p into. */
std::function<void(const DynInst &)>
recordInto(std::vector<DynInst> &into)
{
    return [&into](const DynInst &dyn) { into.push_back(dyn); };
}

/**
 * A 40-instruction straight-line loop body: traces complete every
 * 16 instructions, so budget stops land mid-block.
 */
Program
straightLineLoop()
{
    ProgramBuilder b;
    b.li(1, 1000);
    auto loop = b.here();
    for (int i = 0; i < 40; ++i)
        b.addi(2, 2, 1);
    b.addi(1, 1, -1);
    b.bne(1, 0, loop);
    b.halt();
    return b.build();
}

/** A core count @p prefix instructions into a reference trace. */
struct MidTrace
{
    /** Instructions before the trace. */
    InstCount start = 0;
    /** The trace's index in the reference. */
    std::size_t pick = 0;
};

/** The first reference trace starting at or past @p from that is
 *  long enough to stop @p prefix instructions inside. */
MidTrace
midTrace(const check::RefRun &ref, InstCount from, unsigned prefix)
{
    MidTrace m;
    while (m.start < from || ref.traces[m.pick].len() <= prefix + 1) {
        m.start += ref.traces[m.pick].len();
        ++m.pick;
        EXPECT_LT(m.pick, ref.traces.size());
    }
    return m;
}

/**
 * Expect @p core to hold @p ref's functional state: compared as
 * checkpoint bytes, which cover the pc, the count, the halt flag,
 * the registers and the memory pages in allocation order.
 */
void
expectSameCore(const FunctionalCore &core, const FunctionalCore &ref)
{
    EXPECT_EQ(core.pc(), ref.pc());
    EXPECT_EQ(core.instsExecuted(), ref.instsExecuted());
    EXPECT_EQ(core.halted(), ref.halted());
    mem::ByteWriter a;
    mem::ByteWriter b;
    core.save(a);
    ref.save(b);
    EXPECT_EQ(a.take(), b.take());
}

/** Step @p core until it has executed @p n instructions or halts. */
void
stepTo(FunctionalCore &core, InstCount n)
{
    while (!core.halted() && core.instsExecuted() < n)
        core.step();
}

std::vector<std::uint8_t>
streamBytes(const TraceStream &stream)
{
    mem::ByteWriter w;
    stream.save(w);
    return w.take();
}

TEST(FastSimBlockLoopTest, HooklessRunEqualsHookedRun)
{
    constexpr InstCount budget = 150000;
    WorkloadGenerator gen(specint95Profile("li"));
    auto wl = gen.generate();
    FastSimConfig cfg;
    cfg.preconEnabled = true;
    cfg.precon.bufferEntries = 64;

    FastSim hookless(wl.program, cfg);
    const FastSimStats plain = hookless.run(budget);

    std::vector<DynInst> committed;
    cfg.hooks.onCommit = recordInto(committed);
    FastSim hooked(wl.program, cfg);
    const FastSimStats &stats = hooked.run(budget);

    const auto v = check::fastStatsEqual(plain, stats);
    EXPECT_FALSE(v.has_value()) << *v;
    // Both ran the block loop: blocks decoded once, then hit.
    for (const FastSimStats *s : {&plain, &stats}) {
        EXPECT_GT(s->blocks.decoded, 0u);
        EXPECT_GT(s->blocks.hits, s->blocks.decoded);
    }
    // The hook saw every committed instruction once, in order.
    const check::RefRun ref =
        check::referenceRun(wl.program, cfg.selection, budget);
    EXPECT_EQ(committed.size(), stats.instructions);
    ASSERT_EQ(committed.size(), ref.stream.size());
    for (std::size_t i = 0; i < committed.size(); ++i)
        ASSERT_TRUE(sameDyn(committed[i], ref.stream[i]))
            << "commit record " << i;
}

TEST(FastSimBlockLoopTest, CommitHookSeesEveryCommittedInstructionOnce)
{
    // An armed onCommit hook keeps the block loop (the stream records
    // commit windows instead) and sees the reference's stream.
    constexpr InstCount budget = 50000;
    WorkloadGenerator gen(specint95Profile("compress"));
    auto wl = gen.generate();
    FastSimConfig cfg;
    std::vector<DynInst> committed;
    cfg.hooks.onCommit = recordInto(committed);
    FastSim sim(wl.program, cfg);
    const FastSimStats &st = sim.run(budget);
    EXPECT_GT(st.blocks.decoded, 0u);
    EXPECT_GT(st.blocks.hits, st.blocks.decoded);
    EXPECT_EQ(committed.size(), st.instructions);

    const check::RefRun ref =
        check::referenceRun(wl.program, cfg.selection, budget);
    ASSERT_EQ(committed.size(), ref.stream.size());
    for (std::size_t i = 0; i < committed.size(); ++i)
        ASSERT_TRUE(sameDyn(committed[i], ref.stream[i]))
            << "commit record " << i;
}

TEST(FastSimBlockLoopTest, MidBlockBudgetSpillMatchesTheReference)
{
    // The budget stop lands mid-block, where the loop must spill
    // out after exactly the trace the reference ends on.
    const Program p = straightLineLoop();
    for (InstCount budget : {100u, 1000u, 1001u}) {
        SCOPED_TRACE(budget);
        FastSimConfig cfg;
        const check::RefRun ref =
            check::referenceRun(p, cfg.selection, budget);

        FastSim hookless(p, cfg);
        const FastSimStats plain = hookless.run(budget);
        EXPECT_EQ(plain.instructions, ref.stream.size());
        EXPECT_EQ(plain.traces, ref.traces.size());
        EXPECT_EQ(hookless.instsExecuted(), ref.stream.size());

        std::vector<DynInst> committed;
        cfg.hooks.onCommit = recordInto(committed);
        FastSim hooked(p, cfg);
        const auto v = check::fastStatsEqual(plain, hooked.run(budget));
        EXPECT_FALSE(v.has_value()) << *v;
        ASSERT_EQ(committed.size(), ref.stream.size());
        for (std::size_t i = 0; i < committed.size(); ++i)
            EXPECT_TRUE(sameDyn(committed[i], ref.stream[i])) << i;
    }
}

/**
 * runUntil(k) for each k of @p stops (ascending, none past
 * @p budget) on a hookless and a hooked FastSim: the core stops at
 * exactly k instructions in the state a step() loop reaches, and a
 * run(budget) from there equals an uninterrupted run.
 */
void
expectRunUntilSweep(const Program &program,
                    const std::vector<InstCount> &stops,
                    InstCount budget)
{
    for (const bool hooked : {false, true}) {
        SCOPED_TRACE(hooked ? "hooked" : "hookless");
        FastSimConfig cfg;
        if (hooked)
            cfg.hooks.onCommit = [](const DynInst &) {};
        FastSim whole(program, cfg);
        const FastSimStats uninterrupted = whole.run(budget);

        FunctionalCore ref(program);
        for (const InstCount k : stops) {
            SCOPED_TRACE(k);
            stepTo(ref, k);
            FastSim sim(program, cfg);
            sim.runUntil(k);
            ASSERT_EQ(sim.instsExecuted(), ref.instsExecuted());

            // The checkpoint's stream half, restored, holds the core.
            const mem::Checkpoint cp =
                sim.checkpoint(mem::CheckpointKind::Functional);
            TraceStream stream(program, cfg.selection, hooked);
            mem::ByteReader r(cp.bytes);
            stream.restore(r);
            expectSameCore(stream.core(), ref);

            const auto v =
                check::fastStatsEqual(uninterrupted, sim.run(budget));
            EXPECT_FALSE(v.has_value()) << *v;
        }
    }
}

TEST(TraceStreamTest, RunUntilStopsAtExactCoreCounts)
{
    std::vector<InstCount> every;
    for (InstCount k = 0; k <= 300; ++k)
        every.push_back(k);
    expectRunUntilSweep(straightLineLoop(), every, 3000);

    WorkloadGenerator gen(specint95Profile("gcc"));
    auto wl = gen.generate();
    expectRunUntilSweep(wl.program,
                        {1, 2, 3, 17, 1001, 4099, 12345, 30001},
                        40000);
}

TEST(TraceStreamTest, PulledWindowsMatchTheirTracesAndTheReference)
{
    constexpr InstCount budget = 60000;
    for (const char *name : {"gcc", "go"}) {
        SCOPED_TRACE(name);
        WorkloadGenerator gen(specint95Profile(name));
        auto wl = gen.generate();
        const SelectionPolicy selection;
        const check::RefRun ref =
            check::referenceRun(wl.program, selection, budget);

        TraceStream stream(wl.program, selection, true);
        std::size_t traces = 0;
        std::size_t committed = 0;
        while (committed < budget) {
            const Trace *trace = stream.next();
            if (!trace)
                break;
            const std::vector<DynInst> &window = stream.window();
            ASSERT_EQ(window.size(), trace->len());
            for (unsigned i = 0; i < trace->len(); ++i) {
                EXPECT_EQ(window[i].pc, trace->insts[i].pc);
                EXPECT_EQ(window[i].taken, trace->insts[i].taken);
            }
            ASSERT_LT(traces, ref.traces.size());
            EXPECT_EQ(check::tracesMatch(ref.traces[traces], *trace),
                      std::nullopt);
            expectWindowAt(window, ref, committed);
            ++traces;
            committed += window.size();
        }
        EXPECT_EQ(stream.flush(), nullptr);
        EXPECT_EQ(traces, ref.traces.size());
        EXPECT_EQ(committed, ref.stream.size());
    }
}

TEST(TraceStreamTest, RestoredMidTraceStreamYieldsTheSameNextTrace)
{
    constexpr InstCount budget = 40000;
    constexpr unsigned prefix = 3;
    for (const char *name : {"gcc", "go"}) {
        SCOPED_TRACE(name);
        WorkloadGenerator gen(specint95Profile(name));
        auto wl = gen.generate();
        FastSimConfig cfg;
        // An armed hook makes FastSim's stream record windows.
        cfg.hooks.onCommit = [](const DynInst &) {};
        const check::RefRun ref =
            check::referenceRun(wl.program, cfg.selection, budget);

        // Stop `prefix` instructions into the first trace past the
        // middle of the run that is long enough to stop inside.
        const MidTrace m = midTrace(ref, budget / 2, prefix);
        const Trace &next = ref.traces[m.pick];

        FastSim sim(wl.program, cfg);
        sim.runUntil(m.start + prefix);
        const mem::Checkpoint cp =
            sim.checkpoint(mem::CheckpointKind::Functional);

        // Flushed at once, the restored stream yields the prefix.
        TraceStream flushed(wl.program, cfg.selection, true);
        mem::ByteReader fr(cp.bytes);
        flushed.restore(fr);
        const Trace *partial = flushed.flush();
        ASSERT_NE(partial, nullptr);
        EXPECT_EQ(partial->len(), prefix);
        EXPECT_EQ(partial->id.startPc, next.id.startPc);
        EXPECT_EQ(flushed.window().size(), prefix);
        expectWindowAt(flushed.window(), ref, m.start);

        // Pulled on, it completes the trace the reference cut, and
        // that trace's window begins with the restored prefix.
        TraceStream stream(wl.program, cfg.selection, true);
        mem::ByteReader r(cp.bytes);
        stream.restore(r);
        EXPECT_EQ(stream.core().instsExecuted(), m.start + prefix);
        const Trace *trace = stream.next();
        ASSERT_NE(trace, nullptr);
        EXPECT_EQ(stream.core().instsExecuted(), m.start + next.len());
        EXPECT_EQ(check::tracesMatch(next, *trace), std::nullopt);
        EXPECT_EQ(stream.window().size(), next.len());
        expectWindowAt(stream.window(), ref, m.start);
    }
}

TEST(TraceStreamTest, EqualStatesSaveEqualBytes)
{
    // Windowed FastSims that reach one mid-trace core count by
    // different routes checkpoint to the same bytes: no padding
    // and nothing route-dependent reaches them.
    constexpr InstCount budget = 40000;
    WorkloadGenerator gen(specint95Profile("gcc"));
    auto wl = gen.generate();
    FastSimConfig cfg;
    cfg.hooks.onCommit = [](const DynInst &) {};
    const check::RefRun ref =
        check::referenceRun(wl.program, cfg.selection, budget);
    const InstCount stop = midTrace(ref, budget / 2, 3).start + 3;
    constexpr auto functional = mem::CheckpointKind::Functional;

    FastSim direct(wl.program, cfg);
    direct.runUntil(stop);
    const mem::Checkpoint cp = direct.checkpoint(functional);

    FastSim donor(wl.program, cfg);
    donor.runUntil(stop / 2 + 7);
    FastSim resumed(wl.program, cfg);
    resumed.forkFrom(donor.checkpoint(functional));
    resumed.runUntil(stop);
    EXPECT_EQ(resumed.checkpoint(functional).bytes, cp.bytes);

    FastSim forked(wl.program, cfg);
    forked.forkFrom(cp);
    EXPECT_EQ(forked.checkpoint(functional).bytes, cp.bytes);
}

TEST(TraceStreamDeathTest, WindowedStreamRefusesWindowlessMidTrace)
{
    // 20 instructions in, the stream is 4 into its second trace.
    const Program p = straightLineLoop();
    FastSimConfig cfg;
    FastSim windowless(p, cfg);
    windowless.runUntil(20);
    const mem::Checkpoint cp =
        windowless.checkpoint(mem::CheckpointKind::Functional);

    // A windowless stream resumes from it mid-trace...
    TraceStream plain(p, cfg.selection, false);
    mem::ByteReader r(cp.bytes);
    plain.restore(r);
    ASSERT_NE(plain.flush(), nullptr);

    // ...a windowed one would serve a short window, so it refuses.
    TraceStream windowed(p, cfg.selection, true);
    mem::ByteReader wr(cp.bytes);
    EXPECT_DEATH(windowed.restore(wr), "windowless mid-trace");
    cfg.hooks.onCommit = [](const DynInst &) {};
    FastSim hooked(p, cfg);
    EXPECT_DEATH(hooked.forkFrom(cp), "windowless mid-trace");
}

// ---------------------------------------------------------------
// Fast-forward against a step() loop.
// ---------------------------------------------------------------

/** Budgets that stop a fresh stream at chosen points of its run. */
struct SkipBudgets
{
    /** After the 2nd instruction of a body with more to go. */
    InstCount midBody = 0;
    /** After a body's last instruction, before its terminator. */
    InstCount bodyEnd = 0;
    /** Right after that terminator. */
    InstCount onTerminator = 0;
    /** Instructions up to and including the halt. */
    InstCount toHalt = 0;
};

/**
 * Step @p program to its halt and pick the budgets from the first
 * block past @p from whose body holds 3 to kMaxBlockLen
 * instructions. A block's leader follows a control transfer, so
 * the non-control run since the last one is exactly its body.
 */
SkipBudgets
pickSkipBudgets(const Program &program, InstCount from)
{
    SkipBudgets b;
    FunctionalCore scout(program);
    unsigned body = 0;
    while (!scout.halted()) {
        const DynInst dyn = scout.step();
        if (!dyn.inst.isControl()) {
            ++body;
            continue;
        }
        const InstCount at = scout.instsExecuted();
        if (!b.onTerminator && at > from && body >= 3 &&
            body <= BlockCache::kMaxBlockLen) {
            b.onTerminator = at;
            b.bodyEnd = at - 1;
            b.midBody = at - body + 1;
        }
        body = 0;
    }
    b.toHalt = scout.instsExecuted();
    return b;
}

TEST(TraceStreamTest, FastForwardMatchesAStepLoop)
{
    std::vector<std::string> names = specint95Names();
    names.insert(names.end(), extendedNames().begin(),
                 extendedNames().end());
    const SelectionPolicy selection;
    for (const std::string &name : names) {
        SCOPED_TRACE(name);
        // One outer repeat keeps each program short enough to run
        // to its halt; the code shape is the profile's.
        BenchmarkProfile profile = namedProfile(name);
        profile.outerRepeats = 1;
        WorkloadGenerator gen(profile);
        const GeneratedWorkload wl = gen.generate();
        const SkipBudgets b = pickSkipBudgets(wl.program, 20000);
        ASSERT_GT(b.onTerminator, 0u);
        const InstCount pastHalt = b.toHalt + 1000;

        // Each point reached from the entry in one call, where
        // blocks start at the entry and after every control
        // transfer, and by chained calls, as the sampler makes
        // them: every call after the first starts mid-block.
        FunctionalCore ref(wl.program);
        TraceStream chained(wl.program, selection, false);
        InstCount at = 0;
        for (const InstCount stop :
             {b.midBody, b.bodyEnd, b.onTerminator, pastHalt}) {
            SCOPED_TRACE(stop);
            stepTo(ref, stop);
            TraceStream direct(wl.program, selection, false);
            EXPECT_EQ(direct.fastForward(stop), std::min(stop, b.toHalt));
            expectSameCore(direct.core(), ref);

            chained.fastForward(stop - at);
            EXPECT_EQ(streamBytes(chained), streamBytes(direct));
            at = stop;
        }
        EXPECT_TRUE(chained.core().halted());
        EXPECT_EQ(chained.fastForward(10), 0u);
    }
}

// ---------------------------------------------------------------
// TraceProcessor (timing mode).
// ---------------------------------------------------------------

TEST(ProcessorTest, DemandsTheTracesFastSimDemands)
{
    constexpr InstCount budget = 60000;
    for (const char *name : {"gcc", "go"}) {
        SCOPED_TRACE(name);
        WorkloadGenerator gen(specint95Profile(name));
        auto wl = gen.generate();
        const auto collect = [](std::vector<Trace> &into) {
            return [&into](const Trace &demanded, const Trace &, bool) {
                into.push_back(demanded);
            };
        };

        std::vector<Trace> timed;
        ProcessorConfig pcfg;
        pcfg.hooks.onTrace = collect(timed);
        TraceProcessor proc(wl.program, pcfg);
        proc.run(budget);

        // FastSim at the same budget demands a prefix of them: the
        // timing run stops at its last commit with later traces
        // already dispatched. At a budget of every dispatched
        // instruction it demands exactly them.
        InstCount dispatched = 0;
        for (const Trace &trace : timed)
            dispatched += trace.len();
        for (const InstCount fastBudget : {budget, dispatched}) {
            std::vector<Trace> fast;
            FastSimConfig fcfg;
            fcfg.selection = pcfg.selection;
            fcfg.hooks.onTrace = collect(fast);
            FastSim sim(wl.program, fcfg);
            sim.run(fastBudget);
            ASSERT_LE(fast.size(), timed.size());
            if (fastBudget == dispatched) {
                EXPECT_EQ(fast.size(), timed.size());
            }
            for (std::size_t i = 0; i < fast.size(); ++i) {
                ASSERT_TRUE(fast[i].id == timed[i].id) << "trace " << i;
                EXPECT_EQ(check::tracesMatch(fast[i], timed[i]),
                          std::nullopt);
            }
        }
    }
}

TEST(ProcessorTest, RunsAndReportsSaneIpc)
{
    WorkloadGenerator gen(specint95Profile("compress"));
    auto wl = gen.generate();
    TraceProcessor proc(wl.program, {});
    const ProcessorStats &st = proc.run(150000);
    EXPECT_GE(st.instructions, 150000u);
    EXPECT_GT(st.ipc(), 0.3);
    EXPECT_LT(st.ipc(), 8.0);
    EXPECT_GT(st.ntpCorrect, 0u);
}

TEST(ProcessorTest, DeterministicAcrossRuns)
{
    WorkloadGenerator gen(specint95Profile("perl"));
    auto wl = gen.generate();
    ProcessorConfig cfg;
    cfg.preconEnabled = true;
    cfg.prepEnabled = true;
    TraceProcessor a(wl.program, cfg);
    TraceProcessor b(wl.program, cfg);
    EXPECT_EQ(a.run(120000).cycles, b.run(120000).cycles);
}

TEST(ProcessorTest, PreconReducesMissesAndHelpsIpc)
{
    WorkloadGenerator gen(specint95Profile("vortex"));
    auto wl = gen.generate();

    ProcessorConfig base;
    base.traceCacheEntries = 256;
    TraceProcessor pbase(wl.program, base);
    const ProcessorStats &sb = pbase.run(250000);

    ProcessorConfig pre = base;
    pre.traceCacheEntries = 128;
    pre.preconEnabled = true;
    pre.precon.bufferEntries = 128;
    TraceProcessor ppre(wl.program, pre);
    const ProcessorStats &sp = ppre.run(250000);

    EXPECT_GT(sp.pbHits, 0u);
    EXPECT_LT(sp.tcMisses, sb.tcMisses);
    EXPECT_GT(sp.ipc(), sb.ipc());
}

TEST(ProcessorTest, PreprocessingImprovesIpc)
{
    WorkloadGenerator gen(specint95Profile("perl"));
    auto wl = gen.generate();

    ProcessorConfig base;
    TraceProcessor pbase(wl.program, base);
    double ipc_base = pbase.run(250000).ipc();

    ProcessorConfig prep = base;
    prep.prepEnabled = true;
    TraceProcessor pprep(wl.program, prep);
    const ProcessorStats &sp = pprep.run(250000);

    EXPECT_GT(sp.prep.tracesProcessed, 0u);
    EXPECT_GT(sp.prep.opsFused, 0u);
    EXPECT_GT(sp.ipc(), ipc_base * 1.02);
}

TEST(ProcessorTest, CombinationIsSuperAdditive)
{
    WorkloadGenerator gen(specint95Profile("gcc"));
    auto wl = gen.generate();
    const InstCount n = 300000;

    auto ipc_of = [&](bool pre, bool prep) {
        ProcessorConfig cfg;
        cfg.traceCacheEntries = pre ? 128 : 256;
        cfg.preconEnabled = pre;
        cfg.precon.bufferEntries = 128;
        cfg.prepEnabled = prep;
        TraceProcessor proc(wl.program, cfg);
        return proc.run(n).ipc();
    };

    const double base = ipc_of(false, false);
    const double pre = ipc_of(true, false) / base - 1.0;
    const double prep = ipc_of(false, true) / base - 1.0;
    const double both = ipc_of(true, true) / base - 1.0;
    EXPECT_GT(pre, 0.0);
    EXPECT_GT(prep, 0.0);
    // The paper's Figure 8 result: combined > sum of parts.
    EXPECT_GT(both, pre + prep);
}

TEST(ProcessorTest, SlowPathStatsPopulated)
{
    WorkloadGenerator gen(specint95Profile("go"));
    auto wl = gen.generate();
    ProcessorConfig cfg;
    cfg.traceCacheEntries = 64;
    TraceProcessor proc(wl.program, cfg);
    const ProcessorStats &st = proc.run(150000);
    EXPECT_GT(st.slowPathInsts, 0u);
    EXPECT_GT(st.slowMispredicts, 0u);
    EXPECT_GT(st.icache.demandMisses, 0u);
    EXPECT_GT(st.backend.instsIssued, st.instructions / 2);
}

} // namespace
} // namespace tpre

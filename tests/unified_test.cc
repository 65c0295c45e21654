/**
 * @file
 * Tests for the unified way-partitioned trace store and the
 * adaptive partition controller (the Section 5.1 extension), plus
 * the PartitionSim end-to-end behaviour.
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "tproc/partition_sim.hh"
#include "trace/unified_cache.hh"
#include "workload/generator.hh"

namespace tpre
{
namespace
{

Trace
mkTrace(Addr start)
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

TEST(UnifiedCacheTest, DemandInsertAndLookup)
{
    UnifiedTraceCache uc(64, 4, 1);
    uc.insertDemand(mkTrace(0x1000));
    auto r = uc.lookupDemand({0x1000, 0, 0});
    ASSERT_NE(r.trace, nullptr);
    EXPECT_FALSE(r.fromPrecon);
    EXPECT_EQ(uc.numValidDemand(), 1u);
    EXPECT_EQ(uc.numValidPrecon(), 0u);
}

TEST(UnifiedCacheTest, PreconHitPromotesToDemand)
{
    UnifiedTraceCache uc(64, 4, 1);
    EXPECT_TRUE(uc.insert(mkTrace(0x2000), 7));
    EXPECT_EQ(uc.numValidPrecon(), 1u);

    auto r = uc.lookupDemand({0x2000, 0, 0});
    ASSERT_NE(r.trace, nullptr);
    EXPECT_TRUE(r.fromPrecon);
    // Promotion moved it: precon side empty, demand side holds it.
    EXPECT_EQ(uc.numValidPrecon(), 0u);
    EXPECT_EQ(uc.numValidDemand(), 1u);
    // Second lookup is a plain demand hit.
    EXPECT_FALSE(uc.lookupDemand({0x2000, 0, 0}).fromPrecon);
}

TEST(UnifiedCacheTest, ZeroPreconWaysRefusesInserts)
{
    UnifiedTraceCache uc(64, 4, 0);
    EXPECT_FALSE(uc.insert(mkTrace(0x1000), 1));
}

TEST(UnifiedCacheTest, PartitionsDoNotEvictEachOther)
{
    // One set (4 entries), 2 precon ways: demand inserts may only
    // use ways 0-1 and precon inserts ways 2-3.
    UnifiedTraceCache uc(4, 4, 2);
    std::vector<Trace> traces;
    for (Addr a = 0x1000; traces.size() < 8; a += 4)
        traces.push_back(mkTrace(a));

    uc.insertDemand(traces[0]);
    uc.insertDemand(traces[1]);
    uc.insertDemand(traces[2]); // evicts a demand entry, not precon
    EXPECT_TRUE(uc.insert(traces[3], 1));
    EXPECT_TRUE(uc.insert(traces[4], 2));
    EXPECT_EQ(uc.numValidDemand(), 2u);
    EXPECT_EQ(uc.numValidPrecon(), 2u);
}

TEST(UnifiedCacheTest, RegionPriorityWithinPreconWays)
{
    UnifiedTraceCache uc(4, 4, 2);
    EXPECT_TRUE(uc.insert(mkTrace(0x1000), 5));
    EXPECT_TRUE(uc.insert(mkTrace(0x1004), 5));
    // Same region cannot displace itself; older cannot displace.
    EXPECT_FALSE(uc.insert(mkTrace(0x1008), 5));
    EXPECT_FALSE(uc.insert(mkTrace(0x100c), 3));
    // A newer region can.
    EXPECT_TRUE(uc.insert(mkTrace(0x1010), 9));
}

TEST(UnifiedCacheTest, StrandedEntriesReclaimedAfterRepartition)
{
    UnifiedTraceCache uc(4, 4, 2);
    EXPECT_TRUE(uc.insert(mkTrace(0x1000), 1));
    EXPECT_TRUE(uc.insert(mkTrace(0x1004), 1));
    // Shrink the precon partition to zero ways: the two precon
    // entries are stranded in what is now demand territory.
    uc.setPreconWays(0);
    // Demand inserts fill free ways first, then reclaim the
    // stranded precon entries before evicting other demand ones.
    for (Addr a = 0x2000; a < 0x2010; a += 4)
        uc.insertDemand(mkTrace(a));
    EXPECT_EQ(uc.numValidPrecon(), 0u);
    EXPECT_EQ(uc.numValidDemand(), 4u);
    for (Addr a = 0x2000; a < 0x2010; a += 4)
        EXPECT_TRUE(uc.demandContains({a, 0, 0}));
}

TEST(UnifiedCacheTest, InvalidateRemovesPreconEntry)
{
    UnifiedTraceCache uc(64, 4, 1);
    uc.insert(mkTrace(0x1000), 1);
    EXPECT_TRUE(uc.invalidate({0x1000, 0, 0}));
    EXPECT_FALSE(uc.invalidate({0x1000, 0, 0}));
    EXPECT_EQ(uc.lookup({0x1000, 0, 0}), nullptr);
}

TEST(AdaptivePartitionerTest, GrowsUnderHighUsefulness)
{
    UnifiedTraceCache uc(64, 4, 1);
    AdaptivePartitioner::Config cfg;
    cfg.interval = 100;
    AdaptivePartitioner ap(uc, cfg);
    // 60% of non-demand-hit outcomes are precon hits: grow.
    for (int i = 0; i < 100; ++i)
        ap.observe(false, i % 5 < 3);
    EXPECT_EQ(uc.preconWays(), 2u);
    EXPECT_EQ(ap.adjustments(), 1u);
}

TEST(AdaptivePartitionerTest, ShrinksWhenUseless)
{
    UnifiedTraceCache uc(64, 4, 2);
    AdaptivePartitioner::Config cfg;
    cfg.interval = 100;
    AdaptivePartitioner ap(uc, cfg);
    for (int i = 0; i < 100; ++i)
        ap.observe(false, false); // all misses
    EXPECT_EQ(uc.preconWays(), 1u);
}

TEST(AdaptivePartitionerTest, StableInTheMiddleBand)
{
    UnifiedTraceCache uc(64, 4, 1);
    AdaptivePartitioner::Config cfg;
    cfg.interval = 100;
    AdaptivePartitioner ap(uc, cfg);
    for (int i = 0; i < 400; ++i)
        ap.observe(false, i % 5 == 0); // 20%: between thresholds
    EXPECT_EQ(uc.preconWays(), 1u);
    EXPECT_EQ(ap.adjustments(), 0u);
}

TEST(PartitionSimTest, RunsAndUsesPreconPartition)
{
    WorkloadGenerator gen(specint95Profile("vortex"));
    auto wl = gen.generate();
    PartitionSimConfig cfg;
    cfg.totalEntries = 256;
    cfg.preconWays = 1;
    PartitionSim sim(wl.program, cfg);
    const PartitionSimStats &st = sim.run(300000);
    EXPECT_GT(st.preconHits, 100u);
    EXPECT_GT(st.demandHits, st.preconHits);
    EXPECT_GT(st.precon.tracesBuffered, 0u);
}

TEST(PartitionSimTest, PreconPartitionBeatsNone)
{
    WorkloadGenerator gen(specint95Profile("gcc"));
    auto wl = gen.generate();

    PartitionSimConfig none;
    none.totalEntries = 512;
    none.preconWays = 0;
    PartitionSim a(wl.program, none);
    const double m0 = a.run(500000).missesPerKiloInst();

    PartitionSimConfig one = none;
    one.preconWays = 1;
    PartitionSim b(wl.program, one);
    const double m1 = b.run(500000).missesPerKiloInst();
    EXPECT_LT(m1, m0);
}

TEST(PartitionSimTest, AdaptiveTracksBestStatic)
{
    WorkloadGenerator gen(specint95Profile("vortex"));
    auto wl = gen.generate();

    double best = 1e9;
    for (unsigned ways = 0; ways <= 2; ++ways) {
        PartitionSimConfig cfg;
        cfg.totalEntries = 512;
        cfg.preconWays = ways;
        PartitionSim sim(wl.program, cfg);
        best = std::min(best,
                        sim.run(500000).missesPerKiloInst());
    }

    PartitionSimConfig adaptive;
    adaptive.totalEntries = 512;
    adaptive.preconWays = 1;
    adaptive.adaptive = true;
    PartitionSim sim(wl.program, adaptive);
    const double m = sim.run(500000).missesPerKiloInst();
    // Within 10% of the best static partition, without tuning.
    EXPECT_LT(m, best * 1.10);
}

TEST(PartitionSimTest, StaticSplitEqualsSplitFastSim)
{
    // The oracle for folding PartitionSim into FastSim: a unified
    // 512-entry store with 2 of its 4 ways reserved for
    // preconstruction behaves exactly like FastSim's split 256 TC +
    // 256 PB, counter for counter.
    Simulator sim;
    for (const char *name : {"gcc", "go", "vortex"}) {
        SCOPED_TRACE(name);
        SimConfig fast;
        fast.benchmark = name;
        fast.maxInsts = 300000;
        fast.traceCacheEntries = 256;
        fast.preconBufferEntries = 256;
        const SimResult split = sim.run(fast);

        PartitionSimConfig cfg;
        cfg.totalEntries = 512;
        cfg.preconWays = 2;
        PartitionSim unified(
            sim.workload(name, fast.workloadSeed)->program, cfg);
        const PartitionSimStats &st = unified.run(fast.maxInsts);

        EXPECT_EQ(st.instructions, split.instructions);
        EXPECT_EQ(st.traces, split.traces);
        EXPECT_EQ(st.misses, split.tcMisses);
        EXPECT_EQ(st.preconHits, split.pbHits);
        EXPECT_EQ(st.cycles, split.cycles);
        const PreconstructionEngine::Stats &a = st.precon;
        const PreconstructionEngine::Stats &b = split.precon;
        EXPECT_EQ(a.startPointsPushed, b.startPointsPushed);
        EXPECT_EQ(a.regionsStarted, b.regionsStarted);
        EXPECT_EQ(a.regionsCompleted, b.regionsCompleted);
        EXPECT_EQ(a.regionsCaughtUp, b.regionsCaughtUp);
        EXPECT_EQ(a.regionsPrefetchFull, b.regionsPrefetchFull);
        EXPECT_EQ(a.regionsBuffersFull, b.regionsBuffersFull);
        EXPECT_EQ(a.regionsWarm, b.regionsWarm);
        EXPECT_EQ(a.tracesConstructed, b.tracesConstructed);
        EXPECT_EQ(a.tracesBuffered, b.tracesBuffered);
        EXPECT_EQ(a.tracesAlreadyInTc, b.tracesAlreadyInTc);
        EXPECT_EQ(a.linesFetched, b.linesFetched);
        // The unified store serves precon hits itself, so they land
        // in preconHits and never reach the engine's bufferHits.
        EXPECT_EQ(a.bufferHits, 0u);
        EXPECT_EQ(st.preconHits, b.bufferHits);
    }
}

} // namespace
} // namespace tpre

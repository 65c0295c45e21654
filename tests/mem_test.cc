/**
 * @file
 * Tests for tpre::mem: the checkpoint byte codec and the FastSim
 * checkpoint/fork contract — restore-then-run must equal an
 * uninterrupted run field by field for arbitrary (mid-block,
 * mid-trace) snapshot points over fuzz-shaped programs. Also holds
 * the Simulator workload-cache LRU regression test.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "check/fuzz.hh"
#include "check/stats_check.hh"
#include "mem/checkpoint.hh"
#include "sim/simulator.hh"
#include "tproc/fast_sim.hh"

namespace tpre
{
namespace
{

// --- Checkpoint byte codec --------------------------------------

TEST(ByteCodecTest, PodsAndBytesRoundTrip)
{
    mem::ByteWriter w;
    w.put<std::uint64_t>(0x1122334455667788ULL);
    w.put<std::uint16_t>(42);
    const char raw[] = {'a', 'b', 'c'};
    w.putBytes(raw, sizeof(raw));
    const std::vector<std::uint8_t> bytes = w.take();

    mem::ByteReader r(bytes);
    EXPECT_EQ(r.get<std::uint64_t>(), 0x1122334455667788ULL);
    EXPECT_EQ(r.get<std::uint16_t>(), 42);
    char back[3];
    r.getBytes(back, sizeof(back));
    EXPECT_EQ(std::memcmp(back, raw, sizeof(raw)), 0);
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteCodecTest, ZeroLengthBytesRestoreIntoEmptyVector)
{
    // Regression: restoring an empty vector passed its (null)
    // data() to memcpy, which UBSan rejects even for a zero-byte
    // copy.
    const std::vector<std::uint64_t> empty;
    mem::ByteWriter w;
    w.put<std::uint32_t>(static_cast<std::uint32_t>(empty.size()));
    w.putBytes(empty.data(), 0);
    w.put<std::uint16_t>(7);
    const std::vector<std::uint8_t> bytes = w.take();

    mem::ByteReader r(bytes);
    std::vector<std::uint64_t> back(r.get<std::uint32_t>());
    r.getBytes(back.data(), back.size() * sizeof(std::uint64_t));
    EXPECT_TRUE(back.empty());
    EXPECT_EQ(r.get<std::uint16_t>(), 7);
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteCodecDeathTest, ReadingPastTheEndIsFatal)
{
    const std::vector<std::uint8_t> two(2, 0);
    mem::ByteReader r(two);
    EXPECT_DEATH(r.get<std::uint64_t>(), "truncated payload");
}

TEST(CheckpointTest, SerializeDeserializeRoundTrip)
{
    mem::Checkpoint ck;
    ck.kind = mem::CheckpointKind::Functional;
    ck.configSig = 0xABCDEF0123456789ULL;
    ck.bytes = {1, 2, 3, 4, 5};

    const mem::Checkpoint back =
        mem::Checkpoint::deserialize(ck.serialize());
    EXPECT_EQ(back.kind, ck.kind);
    EXPECT_EQ(back.configSig, ck.configSig);
    EXPECT_EQ(back.bytes, ck.bytes);
}

TEST(CheckpointDeathTest, BadMagicIsFatal)
{
    mem::Checkpoint ck;
    ck.bytes = {1, 2, 3};
    std::vector<std::uint8_t> wire = ck.serialize();
    wire[0] ^= 0xFF;
    EXPECT_DEATH(mem::Checkpoint::deserialize(wire), "bad magic");
}

// --- FastSim checkpoint/fork contract ---------------------------

FastSimConfig
configFor(const check::FuzzCase &fuzzCase)
{
    FastSimConfig cfg;
    cfg.traceCacheEntries = fuzzCase.diff.traceCacheEntries;
    cfg.traceCacheAssoc = fuzzCase.diff.traceCacheAssoc;
    cfg.selection = fuzzCase.diff.selection;
    cfg.preconEnabled = fuzzCase.diff.preconEnabled;
    cfg.precon = fuzzCase.diff.precon;
    return cfg;
}

TEST(CheckpointForkTest, ForkedRunEqualsUninterruptedRun)
{
    // For several fuzz-seed shapes, snapshot a run at arbitrary
    // core-instruction points — odd offsets land mid basic block
    // and mid trace by construction — serialize the checkpoint,
    // restore it into a fresh simulator and run to the same
    // budget. Every statistic must match the uninterrupted run.
    constexpr InstCount kBudget = 6000;
    for (const std::uint64_t seed : {1, 2, 3, 5, 8}) {
        const check::FuzzCase fuzzCase =
            check::makeFuzzCase(seed, kBudget);
        const Program program = fuzzCase.program();
        const FastSimConfig cfg = configFor(fuzzCase);

        FastSim uninterrupted(program, cfg);
        const FastSimStats ref = uninterrupted.run(kBudget);

        for (const InstCount at :
             {InstCount{1}, kBudget / 4 + 1, kBudget / 2,
              3 * kBudget / 4 + 3}) {
            SCOPED_TRACE("seed " + std::to_string(seed) +
                         " snapshot at " + std::to_string(at));
            FastSim donor(program, cfg);
            donor.runUntil(at);
            const mem::Checkpoint saved =
                donor.checkpoint(mem::CheckpointKind::Full);
            const mem::Checkpoint restored =
                mem::Checkpoint::deserialize(saved.serialize());

            FastSim forked(program, cfg);
            forked.forkFrom(restored);
            const FastSimStats &got = forked.run(kBudget);
            const check::Violation v =
                check::fastStatsEqual(ref, got);
            EXPECT_FALSE(v) << *v;
        }
    }
}

TEST(CheckpointForkTest, FunctionalForkServesDifferentShapes)
{
    // One Functional (warm-subset) checkpoint is valid for every
    // frontend shape: fork it into simulators with different trace
    // cache and buffer geometry. Statistics start zeroed — the
    // forked run measures only the post-warm-up window.
    const check::FuzzCase fuzzCase = check::makeFuzzCase(4, 8000);
    const Program program = fuzzCase.program();

    FastSim donor(program, configFor(fuzzCase));
    donor.runUntil(2000);
    const mem::Checkpoint warm =
        donor.checkpoint(mem::CheckpointKind::Functional);

    for (const std::size_t tcEntries : {32, 256}) {
        FastSimConfig cfg = configFor(fuzzCase);
        cfg.traceCacheEntries = tcEntries;
        FastSim forked(program, cfg);
        forked.forkFrom(warm);
        const FastSimStats &stats = forked.run(3000);
        EXPECT_GT(stats.instructions, 0u);
        const check::Violation v = check::statsConserved(stats);
        EXPECT_FALSE(v) << *v;
    }
}

TEST(CheckpointForkDeathTest, SignatureMismatchIsFatal)
{
    const check::FuzzCase fuzzCase = check::makeFuzzCase(6, 4000);
    const Program program = fuzzCase.program();

    FastSim donor(program, configFor(fuzzCase));
    donor.runUntil(500);
    const mem::Checkpoint ck =
        donor.checkpoint(mem::CheckpointKind::Full);

    FastSimConfig other = configFor(fuzzCase);
    other.traceCacheEntries = other.traceCacheEntries * 2;
    FastSim mismatched(program, other);
    EXPECT_DEATH(mismatched.forkFrom(ck), "config signature");
}

TEST(CheckpointForkDeathTest, ForkIntoUsedSimulatorIsFatal)
{
    const check::FuzzCase fuzzCase = check::makeFuzzCase(7, 4000);
    const Program program = fuzzCase.program();
    const FastSimConfig cfg = configFor(fuzzCase);

    FastSim donor(program, cfg);
    donor.runUntil(100);
    const mem::Checkpoint ck =
        donor.checkpoint(mem::CheckpointKind::Full);

    FastSim used(program, cfg);
    used.run(200);
    EXPECT_DEATH(used.forkFrom(ck), "already");
}

// --- Warm-state reuse through the Simulator ---------------------

TEST(WarmReuseTest, FastModeForksFromSharedCheckpoint)
{
    Simulator sim;
    SimConfig cfg;
    cfg.benchmark = "compress";
    cfg.maxInsts = 40000;
    cfg.warmupInsts = 10000;
    const SimResult r = sim.run(cfg);
    EXPECT_TRUE(r.warm);
    EXPECT_EQ(r.warmupInsts, 10000u);
    EXPECT_TRUE(r.warmFallback.empty()) << r.warmFallback;
    // The warm row measures only the post-warm-up window.
    EXPECT_GE(r.instructions, 30000u);
    EXPECT_LT(r.instructions, 40000u);

    // A second row with a different frontend shape reuses the same
    // cached checkpoint (same workload + warm-up + selection).
    SimConfig other = cfg;
    other.traceCacheEntries *= 2;
    const SimResult s = sim.run(other);
    EXPECT_TRUE(s.warm);
}

TEST(WarmReuseTest, TimingModeFallsBackCold)
{
    Simulator sim;
    SimConfig cfg;
    cfg.benchmark = "compress";
    cfg.mode = SimMode::Timing;
    cfg.maxInsts = 30000;
    cfg.warmupInsts = 10000;
    const SimResult r = sim.run(cfg);
    EXPECT_FALSE(r.warm);
    EXPECT_EQ(r.warmFallback, "timing-mode");
    EXPECT_GT(r.instructions, 0u);
}

TEST(WarmReuseTest, WarmupSwallowingTheBudgetFallsBackCold)
{
    Simulator sim;
    SimConfig cfg;
    cfg.benchmark = "compress";
    cfg.maxInsts = 20000;
    cfg.warmupInsts = 20000;
    const SimResult r = sim.run(cfg);
    EXPECT_FALSE(r.warm);
    EXPECT_EQ(r.warmFallback, "warmup>=maxInsts");
    EXPECT_GE(r.instructions, 20000u);
}

// --- Simulator workload-cache LRU (bounded RSS) -----------------

TEST(WorkloadCacheTest, LruEvictionBoundsTheCache)
{
    // Regression: the cache used to retain every generated
    // workload for process lifetime, growing RSS monotonically
    // over long grid sweeps.
    Simulator sim;
    sim.setWorkloadCacheLimit(2);

    const auto compress = sim.workload("compress", 7);
    const auto li = sim.workload("li", 7);
    EXPECT_EQ(sim.workloadCacheSize(), 2u);

    // A third workload evicts the least-recently-used (compress).
    const auto go = sim.workload("go", 7);
    EXPECT_EQ(sim.workloadCacheSize(), 2u);

    // li and go survive: identical objects come back.
    EXPECT_EQ(sim.workload("li", 7).get(), li.get());
    EXPECT_EQ(sim.workload("go", 7).get(), go.get());
    // compress was evicted: it regenerates as a distinct object
    // (the old shared_ptr keeps the first copy alive for us).
    EXPECT_NE(sim.workload("compress", 7).get(), compress.get());
}

TEST(WorkloadCacheTest, LimitOfOneKeepsOnlyTheCurrentWorkload)
{
    Simulator sim;
    sim.setWorkloadCacheLimit(1);
    (void)sim.workload("compress", 7);
    (void)sim.workload("li", 7);
    EXPECT_EQ(sim.workloadCacheSize(), 1u);
}

} // namespace
} // namespace tpre

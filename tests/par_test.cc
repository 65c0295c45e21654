/**
 * @file
 * Tests for the parallel sweep engine: thread-pool semantics
 * (ordering, exception propagation, inline fallback), per-job rng
 * streams, ordered result emission, and the headline determinism
 * guarantee — a parallel sweep's SimResult rows are bit-identical
 * to the serial reference path's.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "par/parallel_sweep.hh"
#include "par/thread_pool.hh"

namespace tpre
{
namespace
{

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce)
{
    par::ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h = 0;
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ResultsLandInTheirOwnSlots)
{
    par::ThreadPool pool(3);
    std::vector<std::size_t> out(100, 0);
    pool.parallelFor(out.size(),
                     [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller)
{
    par::ThreadPool pool(2);
    std::atomic<int> completed{0};
    EXPECT_THROW(
        pool.parallelFor(8,
                         [&](std::size_t i) {
                             if (i == 3)
                                 throw std::runtime_error("job 3");
                             ++completed;
                         }),
        std::runtime_error);
    // The batch still runs to completion before rethrowing.
    EXPECT_EQ(completed.load(), 7);
}

TEST(ThreadPoolTest, ZeroThreadPoolRunsInlineOnCaller)
{
    par::ThreadPool pool(0);
    EXPECT_EQ(pool.threads(), 0u);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ranOn(5);
    pool.parallelFor(ranOn.size(), [&](std::size_t i) {
        ranOn[i] = std::this_thread::get_id();
    });
    for (const std::thread::id &id : ranOn)
        EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, ZeroThreadPoolExceptionStillPropagates)
{
    par::ThreadPool pool(0);
    EXPECT_THROW(pool.parallelFor(
                     2,
                     [](std::size_t) {
                         throw std::runtime_error("inline");
                     }),
                 std::runtime_error);
}

TEST(ThreadPoolTest, SubmitAndDrainOnInlinePool)
{
    par::ThreadPool pool(0);
    int ran = 0;
    pool.submit([&] { ++ran; });
    pool.submit([&] { ++ran; });
    EXPECT_EQ(ran, 0); // deferred until drained
    pool.drain();
    EXPECT_EQ(ran, 2);
}

TEST(ParallelSweepTest, JobSeedsAreDecorrelated)
{
    EXPECT_NE(par::jobSeed(0, 0), par::jobSeed(0, 1));
    EXPECT_NE(par::jobSeed(7, 0), par::jobSeed(8, 0));
    EXPECT_EQ(par::jobSeed(7, 3), par::jobSeed(7, 3));
}

TEST(ParallelSweepTest, JobRngStreamsIndependentOfJobCount)
{
    // The rng stream a job index sees must not depend on how many
    // workers the batch was sharded over.
    auto draw = [](unsigned jobs) {
        std::vector<std::uint64_t> values(16);
        par::runJobs(values.size(), jobs, 42,
                     [&](std::size_t i, Rng &rng) {
                         values[i] = rng.next();
                     });
        return values;
    };
    const auto serial = draw(1);
    const auto parallel = draw(4);
    EXPECT_EQ(serial, parallel);
    // And distinct jobs see distinct streams.
    EXPECT_NE(serial[0], serial[1]);
}

TEST(ParallelSweepTest, OnResultArrivesInJobOrder)
{
    Simulator sim;
    SimConfig base;
    base.benchmark = "compress";
    base.maxInsts = 20000;

    std::vector<SizePoint> points;
    for (std::size_t tc : {16, 32, 64, 128, 16, 32})
        points.push_back({tc, std::size_t(0)});

    par::SweepOptions opts;
    opts.jobs = 4;
    std::vector<std::size_t> seen;
    opts.onResult = [&](const SimResult &r) {
        seen.push_back(r.config.traceCacheEntries);
    };
    par::runParallelSweep(sim, base, points, opts);

    ASSERT_EQ(seen.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(seen[i], points[i].tcEntries);
}

/** The ledger fields provenance rows and attribution cells share. */
template <typename Row>
void
expectSameLedgerRow(const Row &a, const Row &b)
{
    EXPECT_EQ(a.builds, b.builds);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.firstUses, b.firstUses);
    EXPECT_EQ(a.firstUseLatencySum, b.firstUseLatencySum);
    EXPECT_EQ(a.evictCapacity, b.evictCapacity);
    EXPECT_EQ(a.evictRefresh, b.evictRefresh);
    EXPECT_EQ(a.evictInvalidate, b.evictInvalidate);
    EXPECT_EQ(a.evictClear, b.evictClear);
    EXPECT_EQ(a.evictedUnused, b.evictedUnused);
}

/** Every simulated field of two results (host timing excluded). */
void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.config.benchmark, b.config.benchmark);
    EXPECT_EQ(a.config.traceCacheEntries,
              b.config.traceCacheEntries);
    EXPECT_EQ(a.config.preconBufferEntries,
              b.config.preconBufferEntries);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.missesPerKi, b.missesPerKi);
    EXPECT_EQ(a.traces, b.traces);
    EXPECT_EQ(a.tcMisses, b.tcMisses);
    EXPECT_EQ(a.pbHits, b.pbHits);
    EXPECT_EQ(a.icacheSupplyPerKi, b.icacheSupplyPerKi);
    EXPECT_EQ(a.icacheMissesPerKi, b.icacheMissesPerKi);
    EXPECT_EQ(a.icacheMissSupplyPerKi, b.icacheMissSupplyPerKi);
    EXPECT_EQ(a.coverage, b.coverage);

    EXPECT_EQ(a.precon.startPointsPushed, b.precon.startPointsPushed);
    EXPECT_EQ(a.precon.regionsStarted, b.precon.regionsStarted);
    EXPECT_EQ(a.precon.regionsCompleted, b.precon.regionsCompleted);
    EXPECT_EQ(a.precon.regionsCaughtUp, b.precon.regionsCaughtUp);
    EXPECT_EQ(a.precon.regionsPrefetchFull,
              b.precon.regionsPrefetchFull);
    EXPECT_EQ(a.precon.regionsBuffersFull,
              b.precon.regionsBuffersFull);
    EXPECT_EQ(a.precon.regionsWarm, b.precon.regionsWarm);
    EXPECT_EQ(a.precon.tracesConstructed, b.precon.tracesConstructed);
    EXPECT_EQ(a.precon.tracesBuffered, b.precon.tracesBuffered);
    EXPECT_EQ(a.precon.tracesAlreadyInTc,
              b.precon.tracesAlreadyInTc);
    EXPECT_EQ(a.precon.bufferHits, b.precon.bufferHits);
    EXPECT_EQ(a.precon.linesFetched, b.precon.linesFetched);

    EXPECT_EQ(a.prep.tracesProcessed, b.prep.tracesProcessed);
    EXPECT_EQ(a.prep.constsPropagated, b.prep.constsPropagated);
    EXPECT_EQ(a.prep.opsFused, b.prep.opsFused);
    EXPECT_EQ(a.prep.instsMoved, b.prep.instsMoved);

    for (std::size_t o = 0; o < kNumOrigins; ++o) {
        const auto origin = static_cast<TraceOrigin>(o);
        SCOPED_TRACE(traceOriginName(origin));
        expectSameLedgerRow(a.provenance.of(origin),
                            b.provenance.of(origin));
    }
    for (std::size_t c = 0; c < a.attrib.cells.size(); ++c) {
        SCOPED_TRACE("attrib cell " + std::to_string(c));
        const AttribCell &x = a.attrib.cells[c];
        const AttribCell &y = b.attrib.cells[c];
        expectSameLedgerRow(x, y);
        EXPECT_EQ(x.instBuilt, y.instBuilt);
        EXPECT_EQ(x.instServed, y.instServed);
    }

    EXPECT_EQ(a.blocksDecoded, b.blocksDecoded);
    EXPECT_EQ(a.blockHits, b.blockHits);
    EXPECT_EQ(a.blockInvalidations, b.blockInvalidations);

    EXPECT_EQ(a.warm, b.warm);
    EXPECT_EQ(a.warmupInsts, b.warmupInsts);
    EXPECT_EQ(a.warmFallback, b.warmFallback);
    EXPECT_EQ(a.sampled, b.sampled);
    EXPECT_EQ(a.sampleWindows, b.sampleWindows);
    EXPECT_EQ(a.sampledInsts, b.sampledInsts);
    EXPECT_EQ(a.skippedInsts, b.skippedInsts);
    EXPECT_EQ(a.sampleFallback, b.sampleFallback);
    EXPECT_EQ(a.ci95MissesPerKi, b.ci95MissesPerKi);
    EXPECT_EQ(a.ci95Coverage, b.ci95Coverage);
    EXPECT_EQ(a.ci95IcacheMissesPerKi, b.ci95IcacheMissesPerKi);
}

TEST(ParallelSweepTest, Figure5GridBitIdenticalToSerialSweep)
{
    // The acceptance bar of the parallel engine: for two profiles,
    // the Figure 5 grid run with jobs=4 must match the serial
    // reference path field-by-field (doubles compared exactly).
    const std::vector<SizePoint> grid = figure5Grid();
    for (const char *name : {"compress", "gcc"}) {
        SimConfig base;
        base.benchmark = name;
        base.maxInsts = 50000;

        Simulator serialSim;
        const std::vector<SimResult> serial =
            runSweep(serialSim, base, grid);

        Simulator parallelSim;
        par::SweepOptions opts;
        opts.jobs = 4;
        const std::vector<SimResult> parallel =
            par::runParallelSweep(parallelSim, base, grid, opts);

        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE(std::string(name) + " point " +
                         std::to_string(i));
            expectSameResult(serial[i], parallel[i]);
        }
    }
}

TEST(ParallelSweepTest, SharedSimulatorCacheIsRaceFree)
{
    // Many workers demanding the same and different workloads at
    // once: every returned reference must point at the same cached
    // object per (benchmark, seed). Run under TSan in CI.
    Simulator sim;
    const char *names[] = {"compress", "ijpeg", "li", "m88ksim"};
    std::vector<std::shared_ptr<const GeneratedWorkload>> got(32);
    par::runJobs(got.size(), 8, 0, [&](std::size_t i, Rng &) {
        got[i] = sim.workload(names[i % 4], 7);
    });
    for (std::size_t i = 4; i < got.size(); ++i)
        EXPECT_EQ(got[i], got[i % 4]);
}

TEST(ParallelSweepTest, TimingModeAlsoBitIdentical)
{
    SimConfig base;
    base.benchmark = "perl";
    base.mode = SimMode::Timing;
    base.maxInsts = 30000;
    const std::vector<SizePoint> points = {
        {128, 0}, {64, 64}, {256, 0}, {128, 128}};

    Simulator serialSim;
    const std::vector<SimResult> serial =
        runSweep(serialSim, base, points);

    Simulator parallelSim;
    par::SweepOptions opts;
    opts.jobs = 3;
    const std::vector<SimResult> parallel =
        par::runParallelSweep(parallelSim, base, points, opts);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectSameResult(serial[i], parallel[i]);
    }
}

TEST(ParallelSweepTest, MixedGridGroupsBitIdenticalToSerial)
{
    // Rows that share a stream key (benchmark, seed, selection,
    // warm-up, budget) run as one group over a single functional
    // pass; every other row runs alone. The rows are interleaved so
    // groups are not contiguous. Every row must match its own
    // serial Simulator::run, in input order, at any job count.
    std::vector<SimConfig> rows;
    const SizePoint points[] = {{64, 0}, {128, 128}, {256, 0}};
    for (const SizePoint &p : points) {
        for (const char *name : {"compress", "gcc", "li"}) {
            for (const InstCount warmup : {InstCount(0),
                                           InstCount(20000)}) {
                SimConfig c;
                c.benchmark = name;
                c.maxInsts = 60000;
                c.warmupInsts = warmup;
                c.traceCacheEntries = p.tcEntries;
                c.preconBufferEntries = p.pbEntries;
                rows.push_back(c);
            }
        }
    }
    SimConfig sampled = rows[1];
    sampled.sampleEvery = 20000;
    sampled.sampleWindow = 5000;
    sampled.sampleWarmup = 1000;
    rows.insert(rows.begin() + 3, sampled);
    SimConfig timing = rows[0];
    timing.mode = SimMode::Timing;
    timing.maxInsts = 30000;
    rows.insert(rows.begin() + 7, timing);
    SimConfig selection = rows[2];
    selection.selection.alignGranule = 0;
    rows.insert(rows.begin() + 11, selection);

    Simulator serialSim;
    std::vector<SimResult> serial;
    for (const SimConfig &c : rows)
        serial.push_back(serialSim.run(c));
    EXPECT_TRUE(serial[3].sampled);
    EXPECT_TRUE(serial[4].warm);

    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        Simulator sim;
        par::SweepOptions opts;
        opts.jobs = jobs;
        std::vector<SimResult> emitted;
        opts.onResult = [&](const SimResult &r) {
            emitted.push_back(r);
        };
        const std::vector<SimResult> grid =
            par::runParallelGrid(sim, rows, opts);

        ASSERT_EQ(grid.size(), rows.size());
        ASSERT_EQ(emitted.size(), rows.size());
        for (std::size_t i = 0; i < rows.size(); ++i) {
            SCOPED_TRACE("row " + std::to_string(i));
            expectSameResult(serial[i], grid[i]);
            // onResult runs in input order.
            expectSameResult(grid[i], emitted[i]);
            EXPECT_EQ(emitted[i].config.mode, rows[i].mode);
            EXPECT_EQ(emitted[i].config.warmupInsts,
                      rows[i].warmupInsts);
            EXPECT_EQ(emitted[i].config.selection.alignGranule,
                      rows[i].selection.alignGranule);
            EXPECT_GT(grid[i].wallSeconds, 0.0);
        }
    }
}

} // namespace
} // namespace tpre

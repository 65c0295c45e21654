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
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "check/stats_check.hh"
#include "par/parallel_sweep.hh"
#include "par/thread_pool.hh"
#include "sample/sample.hh"
#include "tproc/fast_sim.hh"
#include "workload/generator.hh"

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

TEST(ThreadPoolTest, DefaultJobsCountsTheAffinityMask)
{
#ifdef __linux__
    // Narrow this thread's own affinity to one CPU: the pool must
    // size itself to the CPUs the process may use, not the host's.
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    const char *env = std::getenv("TPRE_JOBS");
    const std::optional<std::string> savedJobs =
        env ? std::optional<std::string>(env) : std::nullopt;
    struct Restore
    {
        const cpu_set_t &mask;
        const std::optional<std::string> &jobs;
        ~Restore()
        {
            sched_setaffinity(0, sizeof(mask), &mask);
            if (jobs)
                setenv("TPRE_JOBS", jobs->c_str(), 1);
        }
    } restore{saved, savedJobs};
    unsetenv("TPRE_JOBS");

    int cpu = 0;
    while (!CPU_ISSET(cpu, &saved))
        ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    EXPECT_EQ(par::usableHardwareThreads(), 1u);
    EXPECT_EQ(par::defaultJobs(), 1u);
#else
    GTEST_SKIP() << "no CPU affinity mask on this platform";
#endif
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
    // The serial grid runs on the test thread, which pipelines its
    // stream on a helper thread when the process may run on more
    // than one hardware thread; the pool's workers run theirs
    // inline.
    const std::vector<SizePoint> grid = figure5Grid();
    for (const char *name : {"compress", "gcc"}) {
        SimConfig base;
        base.benchmark = name;
        base.maxInsts = 50000;

        Simulator serialSim;
        const std::vector<SimResult> serial =
            par::runParallelSweep(serialSim, base, grid);

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
        par::runParallelSweep(serialSim, base, points);

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

/**
 * runBlocks pipelines its stream on a helper thread when the caller
 * is no pool worker (and the process may run on more than one
 * hardware thread), and runs it inline on a worker. Every row must agree
 * between the two, the block-cache counters included: a helper that
 * ran one trace past the budget would decode or hit more blocks.
 */
TEST(PipelinedStreamTest, PipelinedRowsEqualInlineRows)
{
    std::vector<SimConfig> rows;
    for (const char *name : {"gcc", "compress"}) {
        for (const SizePoint &p : figure5Grid()) {
            SimConfig c;
            c.benchmark = name;
            c.maxInsts = 200000;
            c.traceCacheEntries = p.tcEntries;
            c.preconBufferEntries = p.pbEntries;
            rows.push_back(c);
        }
    }
    SimConfig warm = rows[8];
    warm.warmupInsts = 100000;
    rows.push_back(warm);
    // Not a block boundary: the stream still stops at the trace
    // boundary the lead frontend reaches first.
    SimConfig midBlock = rows[20];
    midBlock.maxInsts = 100003;
    rows.push_back(midBlock);

    Simulator pipelinedSim;
    std::vector<SimResult> pipelined;
    for (const SimConfig &c : rows)
        pipelined.push_back(pipelinedSim.run(c));
    EXPECT_TRUE(pipelined[26].warm);

    Simulator inlineSim;
    par::SweepOptions opts;
    opts.jobs = 2;
    const std::vector<SimResult> inlined =
        par::runParallelGrid(inlineSim, rows, opts);
    ASSERT_EQ(inlined.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        SCOPED_TRACE("row " + std::to_string(i));
        expectSameResult(pipelined[i], inlined[i]);
        EXPECT_GT(pipelined[i].blocksDecoded, 0u);
    }

    // The 13 gcc rows as one group: one pipelined stream serving
    // 13 frontends.
    const std::vector<SimConfig> gcc(rows.begin(), rows.begin() + 13);
    const std::vector<SimResult> grouped = pipelinedSim.runGroup(gcc);
    ASSERT_EQ(grouped.size(), gcc.size());
    for (std::size_t i = 0; i < gcc.size(); ++i) {
        SCOPED_TRACE("grouped row " + std::to_string(i));
        expectSameResult(pipelined[i], grouped[i]);
    }
}

TEST(PipelinedStreamTest, HaltBeforeTheBudgetStopsBothLoopsAtTheHalt)
{
    // One outer repeat: the program halts after a few hundred
    // thousand instructions, well inside the budget.
    BenchmarkProfile profile = namedProfile("compress");
    profile.outerRepeats = 1;
    const GeneratedWorkload wl = WorkloadGenerator(profile).generate();
    std::vector<FastSimConfig> configs(2);
    configs[1].traceCacheEntries = 128;
    configs[1].preconEnabled = true;
    const InstCount budget = 100'000'000;

    InstCount pipelinedInsts = 0;
    const std::vector<FastSimStats> pipelined = runSharedStream(
        wl.program, configs, budget, nullptr, &pipelinedInsts);
    std::vector<std::vector<FastSimStats>> inlined(2);
    std::vector<InstCount> inlinedInsts(2);
    par::runJobs(2, 2, 0, [&](std::size_t i, Rng &) {
        inlined[i] = runSharedStream(wl.program, configs, budget,
                                     nullptr, &inlinedInsts[i]);
    });

    ASSERT_LT(pipelinedInsts, budget);
    for (std::size_t job = 0; job < 2; ++job) {
        EXPECT_EQ(inlinedInsts[job], pipelinedInsts);
        for (std::size_t i = 0; i < configs.size(); ++i) {
            SCOPED_TRACE("job " + std::to_string(job) + " config " +
                         std::to_string(i));
            const FastSimStats &a = pipelined[i];
            const FastSimStats &b = inlined[job][i];
            EXPECT_EQ(check::fastStatsEqual(a, b), std::nullopt);
            EXPECT_EQ(a.blocks.decoded, b.blocks.decoded);
            EXPECT_EQ(a.blocks.hits, b.blocks.hits);
            EXPECT_EQ(a.blocks.invalidations, b.blocks.invalidations);
        }
    }
    EXPECT_EQ(pipelined[0].instructions, pipelinedInsts);
}

TEST(PipelinedStreamTest, FrontendExceptionStopsTheHelper)
{
    // A frontend that throws mid-run, with the helper blocked on a
    // full ring: the ring is cancelled, the helper joined, and the
    // exception reaches the caller as it does from the inline loop.
    Simulator sim;
    const std::shared_ptr<const GeneratedWorkload> wl =
        sim.workload("gcc", 1);
    std::vector<FastSimConfig> configs(1);
    std::uint64_t served = 0;
    configs[0].hooks.onTrace = [&served](const Trace &, const Trace &,
                                         bool) {
        if (++served == 5000)
            throw std::runtime_error("frontend failed");
    };
    EXPECT_THROW(runSharedStream(wl->program, configs, 1'000'000),
                 std::runtime_error);
    EXPECT_EQ(served, 5000u);
}

/** Every field of two metric estimates. */
void
expectSameEstimate(const sample::MetricEstimate &a,
                   const sample::MetricEstimate &b)
{
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.sd, b.sd);
    EXPECT_EQ(a.ci95, b.ci95);
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.sampledWindows, b.sampledWindows);
}

/** Every field of two sampled runs, the raw statistics' block
 *  counters included. */
void
expectSameSampledRun(const sample::SampledRun &a,
                     const sample::SampledRun &b)
{
    EXPECT_EQ(a.sampled, b.sampled);
    EXPECT_EQ(a.fallback, b.fallback);
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.sampledInsts, b.sampledInsts);
    EXPECT_EQ(a.skippedInsts, b.skippedInsts);
    EXPECT_EQ(a.warmInsts, b.warmInsts);
    EXPECT_EQ(check::fastStatsEqual(a.raw, b.raw), std::nullopt);
    EXPECT_EQ(a.raw.blocks.decoded, b.raw.blocks.decoded);
    EXPECT_EQ(a.raw.blocks.hits, b.raw.blocks.hits);
    EXPECT_EQ(a.raw.blocks.invalidations, b.raw.blocks.invalidations);
    expectSameEstimate(a.missesPerKi, b.missesPerKi);
    expectSameEstimate(a.tracesPerKi, b.tracesPerKi);
    expectSameEstimate(a.pbHitsPerKi, b.pbHitsPerKi);
    expectSameEstimate(a.cyclesPerKi, b.cyclesPerKi);
    expectSameEstimate(a.coverage, b.coverage);
    expectSameEstimate(a.icacheMissesPerKi, b.icacheMissesPerKi);
    expectSameEstimate(a.icacheSupplyPerKi, b.icacheSupplyPerKi);
    expectSameEstimate(a.icacheMissSupplyPerKi,
                       b.icacheMissSupplyPerKi);
}

/** A sampled row whose spec is @p spec. */
SimConfig
sampledRow(const char *name, InstCount budget,
           const sample::SampleSpec &spec)
{
    SimConfig c;
    c.benchmark = name;
    c.maxInsts = budget;
    c.sampleEvery = spec.every;
    c.sampleWindow = spec.window;
    c.sampleWarmup = spec.warmup;
    return c;
}

/**
 * runSampled pipelines its schedule on a helper thread when the
 * caller is no pool worker (and the process may run on more than
 * one hardware thread), and runs it inline on a worker. Every row
 * must agree between the two, its estimates and block counters
 * included.
 */
TEST(PipelinedSampledTest, PipelinedRowsEqualInlineRows)
{
    std::vector<SimConfig> rows;
    for (const char *name : {"gcc", "compress"}) {
        for (const InstCount budget : {InstCount(300'000),
                                       InstCount(1'000'000)}) {
            for (const SizePoint &p : {SizePoint{256, 0},
                                       SizePoint{128, 128}}) {
                SimConfig c = sampledRow(name, budget,
                                         sample::defaultSpec(budget));
                c.traceCacheEntries = p.tcEntries;
                c.preconBufferEntries = p.pbEntries;
                rows.push_back(c);
            }
        }
    }
    rows.push_back(sampledRow("gcc", sample::contractBudget,
                              sample::contractSpec()));
    sample::SampleSpec degenerate;
    degenerate.every = 200'000;
    degenerate.window = 200'000;
    rows.push_back(sampledRow("compress", 200'000, degenerate));
    SimConfig warm = sampledRow("gcc", 600'000,
                                sample::defaultSpec(500'000));
    warm.warmupInsts = 100'000;
    rows.push_back(warm);

    Simulator pipelinedSim;
    std::vector<SimResult> pipelined;
    for (const SimConfig &c : rows)
        pipelined.push_back(pipelinedSim.run(c));
    EXPECT_TRUE(pipelined[8].sampled);
    EXPECT_FALSE(pipelined[9].sampled);
    EXPECT_EQ(pipelined[9].sampleFallback, "window>=maxInsts");
    EXPECT_TRUE(pipelined[10].sampled);
    EXPECT_TRUE(pipelined[10].warm);

    Simulator inlineSim;
    par::SweepOptions opts;
    opts.jobs = 2;
    const std::vector<SimResult> inlined =
        par::runParallelGrid(inlineSim, rows, opts);
    ASSERT_EQ(inlined.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        SCOPED_TRACE("row " + std::to_string(i));
        expectSameResult(pipelined[i], inlined[i]);
        EXPECT_GT(pipelined[i].blocksDecoded, 0u);
        if (i != 9) {
            EXPECT_GT(pipelined[i].sampleWindows, 1u);
            EXPECT_GT(pipelined[i].skippedInsts, 0u);
        }
    }

    // The cold rows once more through runSampled itself, for the
    // raw statistics a SimResult does not carry.
    const auto runRow = [&](const SimConfig &c) {
        FastSim sim(pipelinedSim.workload(c.benchmark, c.workloadSeed)
                        ->program,
                    c.toFastConfig());
        return sample::runSampled(sim, c.sampleSpec(), c.maxInsts);
    };
    const std::size_t cold = rows.size() - 1;
    std::vector<sample::SampledRun> inlineRuns(cold);
    par::runJobs(cold, 2, 0, [&](std::size_t i, Rng &) {
        inlineRuns[i] = runRow(rows[i]);
    });
    for (std::size_t i = 0; i < cold; ++i) {
        SCOPED_TRACE("runSampled row " + std::to_string(i));
        expectSameSampledRun(runRow(rows[i]), inlineRuns[i]);
    }
}

TEST(PipelinedSampledTest, HaltInASkipOrAWindowStopsBothPathsThere)
{
    // One outer repeat: the program halts after a few hundred
    // thousand instructions, well inside the budget.
    BenchmarkProfile profile = namedProfile("compress");
    profile.outerRepeats = 1;
    const GeneratedWorkload wl = WorkloadGenerator(profile).generate();
    InstCount halt = 0;
    {
        FastSim sim(wl.program);
        halt = sim.fastForward(100'000'000);
        ASSERT_TRUE(sim.halted());
        ASSERT_GT(halt, 200'000u);
    }

    // Strata of 1000 (measured in full), 2000, 4000, ..., 32000,
    // then 64000 each: the stratum at 127000 skips to 158250, warms
    // up to 158750, measures to 159750 and skips to 191000. A run
    // started that far before the halt stops in that skip or in
    // that window.
    sample::SampleSpec spec;
    spec.every = 64'000;
    spec.window = 1'000;
    spec.warmup = 500;
    struct Case
    {
        const char *where;
        InstCount haltAt;
        InstCount skipped;
        InstCount warm;
    };
    // The six strata before it skip 117000 and warm up 3000.
    for (const Case &c : {Case{"skip", 140'000, 130'000, 3'000},
                          Case{"window", 159'000, 148'250, 3'500}}) {
        SCOPED_TRACE(c.where);
        const auto runFrom = [&](InstCount start) {
            FastSim sim(wl.program);
            sim.fastForward(start);
            sample::SampledRun run =
                sample::runSampled(sim, spec, 10'000'000);
            EXPECT_TRUE(sim.halted());
            EXPECT_EQ(sim.instsExecuted(), halt);
            return run;
        };
        const InstCount start = halt - c.haltAt;
        const sample::SampledRun pipelined = runFrom(start);
        std::vector<sample::SampledRun> inlined(2);
        par::runJobs(2, 2, 0, [&](std::size_t i, Rng &) {
            inlined[i] = runFrom(start);
        });
        EXPECT_EQ(pipelined.instructions, c.haltAt);
        EXPECT_EQ(pipelined.skippedInsts, c.skipped);
        EXPECT_EQ(pipelined.warmInsts, c.warm);
        for (const sample::SampledRun &run : inlined)
            expectSameSampledRun(pipelined, run);
    }
}

TEST(PipelinedSampledTest, FrontendExceptionInAWindowStopsTheHelper)
{
    // A hook that throws at a trace served inside a measured window,
    // with the helper running ahead: the ring is cancelled, the
    // helper joined, and the exception reaches the caller as it
    // does from the inline loop.
    Simulator sim;
    const std::shared_ptr<const GeneratedWorkload> wl =
        sim.workload("gcc", 1);
    constexpr std::uint64_t kThrowAt = 20'000;
    // With @p coreAtThrow, the run must be inline: the hook reads
    // the core's count, which a helper would be moving.
    const auto runThrowing = [&](InstCount *coreAtThrow) {
        std::uint64_t served = 0;
        const FastSim *self = nullptr;
        FastSimConfig config;
        config.hooks.onTrace = [&](const Trace &, const Trace &, bool) {
            if (++served < kThrowAt)
                return;
            if (coreAtThrow)
                *coreAtThrow = self->instsExecuted();
            throw std::runtime_error("frontend failed");
        };
        FastSim fast(wl->program, config);
        self = &fast;
        EXPECT_THROW(sample::runSampled(fast, sample::contractSpec(),
                                        sample::contractBudget),
                     std::runtime_error);
        EXPECT_EQ(served, kThrowAt);
    };

    // Under contractSpec the first stratum measures [0, 46000) and
    // each later one [start + 3250, start + 49250) of its 50000.
    std::vector<InstCount> cores(2);
    par::runJobs(2, 2, 0, [&](std::size_t i, Rng &) {
        runThrowing(&cores[i]);
    });
    const InstCount core = cores[0];
    EXPECT_EQ(cores[1], core);
    ASSERT_GT(core, 46'000u);
    const InstCount offset = (core - 46'000) % 50'000;
    EXPECT_GE(offset, 3'250u);
    EXPECT_LT(offset, 49'250u);

    runThrowing(nullptr);
}

} // namespace
} // namespace tpre

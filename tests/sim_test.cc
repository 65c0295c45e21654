/**
 * @file
 * Tests for the sim facade: config conversion, the Simulator
 * runner with workload caching, sweeps and report rendering.
 */

#include <gtest/gtest.h>

#include "par/parallel_sweep.hh"
#include "sim/json_report.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"

namespace tpre
{
namespace
{

TEST(SimConfigTest, FastConversion)
{
    SimConfig cfg;
    cfg.traceCacheEntries = 128;
    cfg.preconBufferEntries = 64;
    cfg.traceCacheAssoc = 4;
    FastSimConfig fast = cfg.toFastConfig();
    EXPECT_EQ(fast.traceCacheEntries, 128u);
    EXPECT_EQ(fast.traceCacheAssoc, 4u);
    EXPECT_TRUE(fast.preconEnabled);
    EXPECT_EQ(fast.precon.bufferEntries, 64u);

    cfg.preconBufferEntries = 0;
    EXPECT_FALSE(cfg.toFastConfig().preconEnabled);
}

TEST(SimConfigTest, ProcessorConversion)
{
    SimConfig cfg;
    cfg.prepEnabled = true;
    cfg.preconBufferEntries = 32;
    cfg.traceCacheAssoc = 1;
    ProcessorConfig proc = cfg.toProcessorConfig();
    EXPECT_EQ(proc.traceCacheAssoc, 1u);
    EXPECT_TRUE(proc.prepEnabled);
    EXPECT_TRUE(proc.preconEnabled);
    EXPECT_EQ(proc.precon.bufferEntries, 32u);
}

TEST(SimConfigTest, CombinedKbMatchesPaperSizing)
{
    SimConfig cfg;
    cfg.traceCacheEntries = 64;
    cfg.preconBufferEntries = 0;
    EXPECT_DOUBLE_EQ(cfg.combinedKb(), 4.0);
    cfg.traceCacheEntries = 256;
    cfg.preconBufferEntries = 256;
    EXPECT_DOUBLE_EQ(cfg.combinedKb(), 32.0);
}

TEST(SimulatorTest, RunsFastMode)
{
    Simulator sim;
    SimConfig cfg;
    cfg.benchmark = "compress";
    cfg.maxInsts = 100000;
    SimResult r = sim.run(cfg);
    EXPECT_GE(r.instructions, 100000u);
    EXPECT_GT(r.traces, 0u);
    EXPECT_GE(r.missesPerKi, 0.0);
}

TEST(SimulatorTest, RunsTimingMode)
{
    Simulator sim;
    SimConfig cfg;
    cfg.benchmark = "compress";
    cfg.mode = SimMode::Timing;
    cfg.maxInsts = 100000;
    SimResult r = sim.run(cfg);
    EXPECT_GT(r.ipc, 0.2);
    EXPECT_GT(r.cycles, 0u);
}

TEST(SimulatorTest, WorkloadCachedAcrossRuns)
{
    Simulator sim;
    const auto a = sim.workload("li", 7);
    const auto b = sim.workload("li", 7);
    EXPECT_EQ(a.get(), b.get());
    const auto c = sim.workload("li", 8);
    EXPECT_NE(a.get(), c.get());
}

/**
 * A 32 KB frontend with w of 4 ways per set reserved for
 * preconstruction (Section 5.1): a (4 - w)-way trace cache plus
 * w-way buffers over the same 128 sets.
 */
SimConfig
reservedWays(const char *benchmark, InstCount insts, unsigned w)
{
    SimConfig cfg;
    cfg.benchmark = benchmark;
    cfg.maxInsts = insts;
    cfg.traceCacheEntries = 128 * (4 - w);
    cfg.traceCacheAssoc = 4 - w;
    cfg.preconBufferEntries = 128 * w;
    if (w > 0)
        cfg.precon.bufferAssoc = w;
    return cfg;
}

TEST(SimulatorTest, RunsAndUsesPreconPartition)
{
    Simulator sim;
    const SimResult r = sim.run(reservedWays("vortex", 300000, 1));
    EXPECT_GT(r.pbHits, 100u);
    EXPECT_GT(r.traces - r.tcMisses - r.pbHits, r.pbHits);
    EXPECT_GT(r.precon.tracesBuffered, 0u);
}

TEST(SimulatorTest, PreconPartitionBeatsNone)
{
    Simulator sim;
    const double none =
        sim.run(reservedWays("gcc", 500000, 0)).missesPerKi;
    const double one =
        sim.run(reservedWays("gcc", 500000, 1)).missesPerKi;
    EXPECT_LT(one, none);
}

TEST(SimulatorTest, QuarterReservationBeatsHalfAndNone)
{
    // EXPERIMENTS.md section 5.1: at equal 32 KB, a 3:1 TC:PB split
    // has fewer misses than the paper's 50/50 split and than the
    // same storage spent on a trace cache alone.
    Simulator sim;
    for (const char *name : {"gcc", "go", "vortex"}) {
        SCOPED_TRACE(name);
        const double none =
            sim.run(reservedWays(name, 300000, 0)).missesPerKi;
        const double quarter =
            sim.run(reservedWays(name, 300000, 1)).missesPerKi;
        const double half =
            sim.run(reservedWays(name, 300000, 2)).missesPerKi;
        EXPECT_LT(quarter, none);
        EXPECT_LT(quarter, half);
    }
}

TEST(SweepTest, Figure5GridShape)
{
    auto grid = figure5Grid();
    ASSERT_EQ(grid.size(), 13u);
    // Five baselines...
    unsigned baselines = 0;
    for (const SizePoint &p : grid)
        baselines += p.pbEntries == 0;
    EXPECT_EQ(baselines, 5u);
    // ... and the preconstruction splits cover 32..512 buffers.
    for (const SizePoint &p : grid) {
        if (p.pbEntries) {
            EXPECT_GE(p.pbEntries, 32u);
            EXPECT_LE(p.pbEntries, 512u);
        }
    }
}

TEST(SweepTest, RunSweepProducesOneResultPerPoint)
{
    Simulator sim;
    SimConfig base;
    base.benchmark = "compress";
    base.maxInsts = 60000;
    std::vector<SizePoint> points{{64, 0}, {64, 32}};
    unsigned callbacks = 0;
    par::SweepOptions opts;
    opts.onResult = [&](const SimResult &) { ++callbacks; };
    auto results = par::runParallelSweep(sim, base, points, opts);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(callbacks, 2u);
    EXPECT_EQ(results[0].config.traceCacheEntries, 64u);
    EXPECT_EQ(results[0].config.preconBufferEntries, 0u);
    EXPECT_EQ(results[1].config.preconBufferEntries, 32u);
}

TEST(ReportTest, AlignedRendering)
{
    TableReport table({"bench", "m/ki"});
    table.addRow({"gcc", TableReport::num(12.345, 2)});
    table.addRow({"compress", TableReport::num(0.5, 2)});
    std::string text = table.render();
    EXPECT_NE(text.find("bench"), std::string::npos);
    EXPECT_NE(text.find("12.35"), std::string::npos);
    EXPECT_NE(text.find("compress"), std::string::npos);
    EXPECT_NE(text.find("-----"), std::string::npos);
}

TEST(ReportTest, NumFormatting)
{
    EXPECT_EQ(TableReport::num(3.14159, 3), "3.142");
    EXPECT_EQ(TableReport::num(std::uint64_t(42)), "42");
}

TEST(ReportTest, MismatchedRowWidthDies)
{
    TableReport table({"a", "b"});
    EXPECT_DEATH(table.addRow({"only-one"}), "row width");
}

TEST(JsonReportTest, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("tab\there"), "tab\\there");
    EXPECT_EQ(jsonEscape(std::string("nul\x01") + "x"),
              "nul\\u0001x");
}

TEST(JsonReportTest, NumbersRoundTripAndNonFiniteIsNull)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(2.5), "2.5");
    EXPECT_EQ(jsonNumber(1.0 / 0.0), "null");
    EXPECT_EQ(jsonNumber(0.0 / 0.0), "null");
}

TEST(JsonReportTest, RenderContainsSchemaFieldsAndBalances)
{
    BenchReport report("unit_test", 4);
    Simulator sim;
    SimConfig cfg;
    cfg.benchmark = "compress";
    cfg.maxInsts = 30000;
    report.add(sim.run(cfg));
    cfg.preconBufferEntries = 32;
    report.add(sim.run(cfg));

    const std::string json = report.render(1.25);
    for (const char *key :
         {"\"bench\": \"unit_test\"", "\"git_ref\"",
          "\"wall_seconds\": 1.25", "\"jobs\": 4", "\"rows\"",
          "\"benchmark\": \"compress\"", "\"mode\": \"fast\"",
          "\"tc_entries\"", "\"tc_assoc\"", "\"pb_entries\"",
          "\"pb_assoc\"", "\"missesPerKi\"",
          "\"ipc\"", "\"instructions\"",
          "\"precon_traces_constructed\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;

    // Structural sanity: braces and brackets balance and no cell
    // tears the document (rows are one object each).
    long braces = 0, brackets = 0;
    for (const char c : json) {
        braces += c == '{';
        braces -= c == '}';
        brackets += c == '[';
        brackets -= c == ']';
        EXPECT_GE(braces, 0);
        EXPECT_GE(brackets, 0);
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

TEST(JsonReportTest, EmptyRowsStillRenderValidDocument)
{
    BenchReport report("empty", 1);
    const std::string json = report.render(0.0);
    EXPECT_NE(json.find("\"rows\": []"), std::string::npos);
    // No rows, no wall time: the aggregate throughput must render
    // as a definite zero, not NaN/null.
    EXPECT_NE(json.find("\"mips\": 0"), std::string::npos);
}

TEST(JsonReportTest, ReportsThroughputFields)
{
    BenchReport report("mips_test", 1);
    Simulator sim;
    SimConfig cfg;
    cfg.benchmark = "compress";
    cfg.maxInsts = 30000;
    const SimResult r = sim.run(cfg);
    EXPECT_GT(r.wallSeconds, 0.0);
    EXPECT_GT(r.mips, 0.0);
    report.add(r);

    const std::string json = report.render(2.0);
    // Report level: total simulated work plus aggregate MIPS over
    // the supplied wall time.
    EXPECT_NE(json.find("\"simulated_instructions\": " +
                        std::to_string(r.instructions)),
              std::string::npos);
    EXPECT_NE(json.find("\"mips\": " +
                        jsonNumber(static_cast<double>(
                                       r.instructions) /
                                   1e6 / 2.0)),
              std::string::npos);
    // Row level: per-simulation wall time and MIPS.
    EXPECT_NE(json.find("\"wall_seconds\": " +
                        jsonNumber(r.wallSeconds)),
              std::string::npos);
    EXPECT_NE(json.find("\"mips\": " + jsonNumber(r.mips)),
              std::string::npos);
}

} // namespace
} // namespace tpre

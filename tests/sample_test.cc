/**
 * @file
 * SMARTS-style sampled simulation (DESIGN.md section 16): the
 * stratified estimator's arithmetic, strict TPRE_SAMPLE_* knob
 * parsing, the degenerate-spec bit-identity guarantee, and the
 * statistical error contract — every golden fig5 grid row's sampled
 * miss-rate estimate must land within 2% of the same-budget
 * detailed run at the contract budget, deterministically.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "sample/sample.hh"
#include "sim/sweep.hh"

namespace tpre
{
namespace
{

using sample::MetricEstimate;
using sample::SampleSpec;
using sample::Stratum;

// ---------------------------------------------------------------
// Stratified estimator.
// ---------------------------------------------------------------

TEST(EstimateStratifiedTest, EmptyIsUnboundedZero)
{
    const MetricEstimate est = sample::estimateStratified({});
    EXPECT_EQ(est.windows, 0u);
    EXPECT_EQ(est.mean, 0.0);
    EXPECT_FALSE(est.bounded());
}

TEST(EstimateStratifiedTest, FullyMeasuredStrataAreExact)
{
    // No unmeasured span anywhere: the estimate is the exact
    // span-weighted total and carries a zero-width interval.
    const std::vector<Stratum> xs = {{10.0, 100.0, 0.0},
                                     {20.0, 300.0, 0.0}};
    const MetricEstimate est = sample::estimateStratified(xs);
    EXPECT_EQ(est.windows, 2u);
    EXPECT_EQ(est.sampledWindows, 0u);
    EXPECT_DOUBLE_EQ(est.mean, (10.0 * 100.0 + 20.0 * 300.0) / 400.0);
    EXPECT_EQ(est.ci95, 0.0);
    EXPECT_TRUE(est.bounded());
}

TEST(EstimateStratifiedTest, MixedStrataMatchTheClosedForm)
{
    // Three sampled strata (window rates 10, 12, 14 standing for
    // spans with 50 unmeasured instructions each) plus one exact
    // ramp stratum. Mean is span-weighted; only the sampled strata
    // feed the variance, and only unmeasured spans carry error.
    const std::vector<Stratum> xs = {{20.0, 10.0, 0.0},
                                     {10.0, 100.0, 50.0},
                                     {12.0, 100.0, 50.0},
                                     {14.0, 100.0, 50.0}};
    const MetricEstimate est = sample::estimateStratified(xs);
    EXPECT_EQ(est.windows, 4u);
    EXPECT_EQ(est.sampledWindows, 3u);
    const double span = 10.0 + 300.0;
    EXPECT_DOUBLE_EQ(est.mean,
                     (20.0 * 10.0 + (10.0 + 12.0 + 14.0) * 100.0) /
                         span);
    EXPECT_DOUBLE_EQ(est.sd, 2.0);
    EXPECT_DOUBLE_EQ(est.ci95,
                     1.96 * 2.0 * std::sqrt(3.0 * 50.0 * 50.0) /
                         span);
    EXPECT_TRUE(est.bounded());
}

TEST(EstimateStratifiedTest, OneSampledStratumIsUnbounded)
{
    const std::vector<Stratum> xs = {{20.0, 10.0, 0.0},
                                     {10.0, 100.0, 50.0}};
    const MetricEstimate est = sample::estimateStratified(xs);
    EXPECT_EQ(est.sampledWindows, 1u);
    EXPECT_EQ(est.ci95, 0.0);
    EXPECT_FALSE(est.bounded());
}

// ---------------------------------------------------------------
// SampleSpec resolution.
// ---------------------------------------------------------------

TEST(SampleSpecTest, DisabledSpecResolvesEmpty)
{
    const SampleSpec spec = SampleSpec{}.resolved();
    EXPECT_FALSE(spec.enabled());
    EXPECT_EQ(spec.window, 0u);
}

TEST(SampleSpecTest, WindowDefaultsToTenthOfPeriod)
{
    SampleSpec spec;
    spec.every = 1000;
    EXPECT_EQ(spec.resolved().window, 100u);
    spec.every = 5;  // every/10 == 0 clamps to 1
    EXPECT_EQ(spec.resolved().window, 1u);
}

TEST(SampleSpecTest, DefaultSpecScalesWithBudget)
{
    const SampleSpec spec = sample::defaultSpec(800'000);
    EXPECT_EQ(spec.every, 100'000u);
    EXPECT_EQ(spec.window, 6'250u);
    EXPECT_EQ(spec.warmup, 3'125u);
    // Tiny budgets clamp to the floors instead of degenerating.
    const SampleSpec tiny = sample::defaultSpec(100);
    EXPECT_EQ(tiny.every, 512u);
    EXPECT_EQ(tiny.window, 64u);
    EXPECT_EQ(tiny.warmup, 32u);
}

TEST(SampleSpecTest, ContractSpecFitsTheContractBudget)
{
    const SampleSpec spec = sample::contractSpec();
    ASSERT_TRUE(spec.enabled());
    EXPECT_LE(spec.warmup + spec.window, spec.every);
    // The contract regime must actually sample at its budget.
    EXPECT_LT(spec.window, sample::contractBudget);
}

TEST(SampleSpecDeathTest, WindowWithoutPeriodIsFatal)
{
    SampleSpec spec;
    spec.window = 100;
    EXPECT_EXIT(spec.resolved(), testing::ExitedWithCode(1),
                "require TPRE_SAMPLE_EVERY");
}

TEST(SampleSpecDeathTest, OversizedWindowIsFatal)
{
    SampleSpec spec;
    spec.every = 100;
    spec.window = 80;
    spec.warmup = 30;
    EXPECT_EXIT(spec.resolved(), testing::ExitedWithCode(1),
                "exceed the period");
}

// ---------------------------------------------------------------
// Strict TPRE_SAMPLE_* parsing.
// ---------------------------------------------------------------

TEST(SampleEnvTest, UnsetKnobReadsZeroAndValidKnobParses)
{
    ASSERT_EQ(unsetenv("TPRE_SAMPLE_EVERY"), 0);
    EXPECT_EQ(sample::knobFromEnv("TPRE_SAMPLE_EVERY"), 0u);
    ASSERT_EQ(setenv("TPRE_SAMPLE_EVERY", "100000", 1), 0);
    EXPECT_EQ(sample::knobFromEnv("TPRE_SAMPLE_EVERY"), 100000u);
    ASSERT_EQ(unsetenv("TPRE_SAMPLE_EVERY"), 0);
}

TEST(SampleEnvDeathTest, RejectsJunkWhitespaceOverflowAndZero)
{
    const auto knob = [](const char *value) {
        setenv("TPRE_SAMPLE_WINDOW", value, 1);
        sample::knobFromEnv("TPRE_SAMPLE_WINDOW");
    };
    EXPECT_EXIT(knob("50k"), testing::ExitedWithCode(1),
                "TPRE_SAMPLE_WINDOW.*not a decimal integer");
    EXPECT_EXIT(knob(" 5"), testing::ExitedWithCode(1),
                "not a decimal integer");
    EXPECT_EXIT(knob("+5"), testing::ExitedWithCode(1),
                "not a decimal integer");
    EXPECT_EXIT(knob("99999999999999999999"),
                testing::ExitedWithCode(1), "overflows");
    EXPECT_EXIT(knob("0"), testing::ExitedWithCode(1),
                "must be > 0");
    EXPECT_EXIT(knob("-4"), testing::ExitedWithCode(1),
                "not a decimal integer");
    unsetenv("TPRE_SAMPLE_WINDOW");
}

// ---------------------------------------------------------------
// End-to-end sampled runs through the Simulator facade.
// ---------------------------------------------------------------

SimConfig
gccConfig(InstCount budget)
{
    SimConfig cfg;
    cfg.benchmark = "gcc";
    cfg.maxInsts = budget;
    cfg.traceCacheEntries = 128;
    cfg.preconBufferEntries = 128;
    return cfg;
}

TEST(SampledSimTest, DegenerateSpecBitIdenticalToDetailed)
{
    Simulator sim;
    const SimConfig cfg = gccConfig(50'000);
    const SimResult detailed = sim.run(cfg);

    SimConfig degenerate = cfg;
    degenerate.sampleEvery = cfg.maxInsts;
    degenerate.sampleWindow = cfg.maxInsts;
    const SimResult fell = sim.run(degenerate);

    EXPECT_FALSE(fell.sampled);
    EXPECT_EQ(fell.sampleFallback, "window>=maxInsts");
    EXPECT_EQ(fell.instructions, detailed.instructions);
    EXPECT_EQ(fell.cycles, detailed.cycles);
    EXPECT_EQ(fell.traces, detailed.traces);
    EXPECT_EQ(fell.tcMisses, detailed.tcMisses);
    EXPECT_EQ(fell.pbHits, detailed.pbHits);
    EXPECT_EQ(fell.missesPerKi, detailed.missesPerKi);
    EXPECT_EQ(fell.icacheSupplyPerKi, detailed.icacheSupplyPerKi);
    EXPECT_EQ(fell.icacheMissesPerKi, detailed.icacheMissesPerKi);
    EXPECT_EQ(fell.icacheMissSupplyPerKi,
              detailed.icacheMissSupplyPerKi);
    EXPECT_EQ(fell.precon.tracesConstructed,
              detailed.precon.tracesConstructed);
    EXPECT_EQ(fell.precon.bufferHits, detailed.precon.bufferHits);
}

TEST(SampledSimTest, TimingModeFallsBackAndSaysSo)
{
    Simulator sim;
    SimConfig cfg = gccConfig(50'000);
    cfg.mode = SimMode::Timing;
    cfg.sampleEvery = 10'000;
    const SimResult r = sim.run(cfg);
    EXPECT_FALSE(r.sampled);
    EXPECT_EQ(r.sampleFallback, "timing-mode");
    EXPECT_GT(r.instructions, 0u);
}

TEST(SampledSimTest, SampledRunReportsSplitAndInterval)
{
    Simulator sim;
    SimConfig cfg = gccConfig(200'000);
    const SampleSpec spec = sample::defaultSpec(cfg.maxInsts);
    cfg.sampleEvery = spec.every;
    cfg.sampleWindow = spec.window;
    cfg.sampleWarmup = spec.warmup;

    const SimResult r = sim.run(cfg);
    EXPECT_TRUE(r.sampled);
    EXPECT_TRUE(r.sampleFallback.empty());
    EXPECT_GE(r.sampleWindows, 2u);
    EXPECT_GT(r.sampledInsts, 0u);
    EXPECT_GT(r.skippedInsts, 0u);
    EXPECT_GE(r.instructions, cfg.maxInsts);
    EXPECT_LT(r.sampledInsts, r.instructions);
    EXPECT_GE(r.coverage, 0.0);
    EXPECT_LE(r.coverage, 1.0);
    EXPECT_GT(r.ci95MissesPerKi, 0.0);
    // Scaled totals keep the conservation the report checks.
    EXPECT_LE(r.tcMisses, r.traces);
}

TEST(SampledSimTest, SampledRunsAreDeterministic)
{
    Simulator sim;
    SimConfig cfg = gccConfig(200'000);
    const SampleSpec spec = sample::defaultSpec(cfg.maxInsts);
    cfg.sampleEvery = spec.every;
    cfg.sampleWindow = spec.window;
    cfg.sampleWarmup = spec.warmup;

    const SimResult a = sim.run(cfg);
    const SimResult b = sim.run(cfg);
    EXPECT_EQ(a.sampleWindows, b.sampleWindows);
    EXPECT_EQ(a.sampledInsts, b.sampledInsts);
    EXPECT_EQ(a.skippedInsts, b.skippedInsts);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.missesPerKi, b.missesPerKi);
    EXPECT_EQ(a.coverage, b.coverage);
    EXPECT_EQ(a.ci95MissesPerKi, b.ci95MissesPerKi);
}

// ---------------------------------------------------------------
// The statistical error contract (the acceptance criterion).
// ---------------------------------------------------------------

/**
 * The golden fig5 grid — the same 4 benchmarks x 13 size points the
 * bit-identity regression pins — run at sample::contractBudget
 * under sample::contractSpec(): every row's sampled miss-rate
 * estimate must land within 2% (relative) of the same-budget
 * detailed run. The measured worst case is 0.86%, a >2x margin;
 * the bound is the documented error contract (DESIGN.md section
 * 16), not a tuned threshold. Fixed workload seeds and a
 * deterministic controller make the test exact-repeatable.
 */
TEST(SampleContractTest, GoldenGridMissRatesWithinTwoPercent)
{
    Simulator sim;
    const std::vector<SizePoint> grid = figure5Grid();
    const SampleSpec spec = sample::contractSpec();

    double worst = 0.0;
    for (const char *name : {"compress", "gcc", "go", "vortex"}) {
        SimConfig base;
        base.benchmark = name;
        base.maxInsts = sample::contractBudget;
        const std::vector<SimResult> detailed =
            runSweep(sim, base, grid);

        SimConfig sampledBase = base;
        sampledBase.sampleEvery = spec.every;
        sampledBase.sampleWindow = spec.window;
        sampledBase.sampleWarmup = spec.warmup;
        const std::vector<SimResult> sampled =
            runSweep(sim, sampledBase, grid);

        ASSERT_EQ(detailed.size(), grid.size());
        ASSERT_EQ(sampled.size(), grid.size());
        for (std::size_t i = 0; i < grid.size(); ++i) {
            SCOPED_TRACE(std::string(name) + " tc=" +
                         std::to_string(grid[i].tcEntries) + " pb=" +
                         std::to_string(grid[i].pbEntries));
            ASSERT_TRUE(sampled[i].sampled);
            ASSERT_GT(detailed[i].missesPerKi, 0.0);
            const double rel =
                std::abs(sampled[i].missesPerKi -
                         detailed[i].missesPerKi) /
                detailed[i].missesPerKi;
            EXPECT_LE(rel, 0.02)
                << "sampled " << sampled[i].missesPerKi
                << " detailed " << detailed[i].missesPerKi
                << " ci95 " << sampled[i].ci95MissesPerKi;
            worst = std::max(worst, rel);
        }
    }
    // The margin the contract was calibrated with: if this creeps
    // toward 2% the regime needs re-tuning, not the bound loosening.
    EXPECT_LE(worst, 0.015);
}

} // namespace
} // namespace tpre

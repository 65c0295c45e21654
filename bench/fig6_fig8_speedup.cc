/**
 * @file
 * Figures 6 and 8: speedups under the full timing model for gcc,
 * go, perl and vortex. The two figures share their baseline and
 * preconstruction rows, so one grid runs the union of their
 * configurations once per benchmark: 256TC, 128TC+128PB, 512TC,
 * 256TC+256PB, 256TC+prep and 128TC+128PB+prep.
 *
 * Figure 6 shows the overall performance improvement from
 * preconstruction in two area-matched comparisons per benchmark
 * (256TC vs 128TC+128PB, 512TC vs 256TC+256PB). The paper reports
 * 3-10% speedups for these benchmarks; other benchmarks see little
 * impact.
 *
 * Figure 8 is the extended pipeline model: speedup over the 256TC
 * baseline from preconstruction alone (128TC+128PB), from
 * preprocessing alone, from both combined, and the sum of the
 * individual speedups for reference. The paper's headline: 2-8%
 * from preconstruction, 8-12% from preprocessing, 12-20% combined —
 * more than the sum of the parts (average 14% over SPECint95).
 *
 * The 4 x 6 timing runs are sharded across the parallel sweep
 * engine (--jobs N / TPRE_JOBS).
 */

#include <cmath>

#include "bench_common.hh"

using namespace tpre;

namespace
{

SimConfig
timingConfig(const char *name, std::size_t tc, std::size_t pb,
             bool prep, InstCount insts)
{
    SimConfig cfg;
    cfg.benchmark = name;
    cfg.mode = SimMode::Timing;
    cfg.maxInsts = insts;
    cfg.traceCacheEntries = tc;
    cfg.preconBufferEntries = pb;
    cfg.prepEnabled = prep;
    return cfg;
}

/** Row offsets within one benchmark's block of the grid. */
enum Row : std::size_t
{
    kBase256,
    kPrecon128,
    kBase512,
    kPrecon256,
    kPrep256,
    kBoth128,
    kRowsPerBenchmark
};

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness harness("fig6_fig8_speedup", argc, argv);

    Simulator sim;
    const InstCount insts = bench::runLength(1'200'000);
    const char *names[] = {"gcc", "go", "perl", "vortex"};

    std::vector<SimConfig> configs;
    for (const char *name : names) {
        configs.push_back(timingConfig(name, 256, 0, false, insts));
        configs.push_back(timingConfig(name, 128, 128, false, insts));
        configs.push_back(timingConfig(name, 512, 0, false, insts));
        configs.push_back(timingConfig(name, 256, 256, false, insts));
        configs.push_back(timingConfig(name, 256, 0, true, insts));
        configs.push_back(timingConfig(name, 128, 128, true, insts));
    }
    // --sample is accepted for CLI uniformity, but timing mode
    // cannot fast-forward: every row falls back to a detailed run
    // and says so in the JSON (sample_fallback: "timing-mode").
    for (SimConfig &cfg : configs)
        harness.applySample(cfg);
    const std::vector<SimResult> results =
        par::runParallelGrid(sim, configs, harness.sweepOptions());
    for (const SimResult &r : results)
        harness.record(r);
    const auto ipc = [&results](std::size_t bench, Row row) {
        return results[kRowsPerBenchmark * bench + row].ipc;
    };
    const auto speedup = [](double with, double base) {
        return 100.0 * (with / base - 1.0);
    };

    bench::banner(
        "Figure 6: speedup from preconstruction (timing model)",
        "gcc/go/perl/vortex gain 3-10%; equal-area TC+buffer "
        "splits beat pure trace caches");
    TableReport fig6({"benchmark", "base256", "128TC+128PB",
                      "speedup", "base512", "256TC+256PB",
                      "speedup"});
    for (std::size_t i = 0; i < std::size(names); ++i) {
        const double b256 = ipc(i, kBase256);
        const double p128 = ipc(i, kPrecon128);
        const double b512 = ipc(i, kBase512);
        const double p256 = ipc(i, kPrecon256);
        fig6.addRow(
            {names[i], TableReport::num(b256, 3),
             TableReport::num(p128, 3),
             TableReport::num(speedup(p128, b256), 1) + "%",
             TableReport::num(b512, 3), TableReport::num(p256, 3),
             TableReport::num(speedup(p256, b512), 1) + "%"});
    }
    std::printf("%s", fig6.render().c_str());

    bench::banner(
        "Figure 8: speedup from the extended pipeline model "
        "(precon, preprocessing, both)",
        "precon 2-8%, preprocessing 8-12%, combined 12-20% and "
        "greater than the sum of parts");
    TableReport fig8({"benchmark", "precon", "preproc", "combined",
                      "sum-of-parts", "super-additive?"});
    double geo_combined = 1.0;
    for (std::size_t i = 0; i < std::size(names); ++i) {
        const double base = ipc(i, kBase256);
        const double pre = speedup(ipc(i, kPrecon128), base);
        const double prep = speedup(ipc(i, kPrep256), base);
        const double both = speedup(ipc(i, kBoth128), base);
        fig8.addRow({names[i], TableReport::num(pre, 1) + "%",
                     TableReport::num(prep, 1) + "%",
                     TableReport::num(both, 1) + "%",
                     TableReport::num(pre + prep, 1) + "%",
                     both > pre + prep ? "yes" : "no"});
        geo_combined *= 1.0 + both / 100.0;
    }
    std::printf("%s", fig8.render().c_str());
    std::printf("\naverage combined speedup: %.1f%% (paper: 14%% "
                "over all of SPECint95)\n",
                100.0 * (std::pow(geo_combined,
                                  1.0 / std::size(names)) -
                         1.0));
    return harness.finish();
}

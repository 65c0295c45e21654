/**
 * @file
 * Figure 5: trace cache miss rates (misses per 1000 instructions)
 * as a function of the combined trace-cache + preconstruction-
 * buffer size, for all eight SPECint95-like benchmarks. Baseline
 * series (buffer = 0) and preconstruction splits are printed per
 * benchmark; the paper's result is that the large-working-set
 * benchmarks see 30-80% lower miss rates with preconstruction and
 * that a TC+buffer split beats an equal-area pure trace cache.
 *
 * The full (benchmark x size point) grid — 8 x 13 = 104
 * independent simulations — is sharded across the parallel sweep
 * engine; pass --jobs N (or set TPRE_JOBS) to pick the worker
 * count.
 */

#include <map>

#include "bench_common.hh"
#include "workload/profile.hh"

using namespace tpre;

namespace
{

/**
 * TPRE_SUITE selects the benchmark family the grid runs over:
 * "specint95" (default, the paper's Figure 5) or "extended" (the
 * post-SPEC server/interp/jit families). The extended run reports
 * under a distinct harness name so its BENCH_*.json and perf-gate
 * baselines never collide with the golden specint95 artifacts.
 */
const std::vector<std::string> &
suiteNames(const char **harnessName)
{
    const char *env = std::getenv("TPRE_SUITE");
    if (env == nullptr || std::string(env) == "specint95") {
        *harnessName = "fig5_miss_rates";
        return specint95Names();
    }
    if (std::string(env) == "extended") {
        *harnessName = "fig5_extended";
        return extendedNames();
    }
    fatal("TPRE_SUITE: '%s' is not specint95 or extended", env);
}

} // namespace

int
main(int argc, char **argv)
{
    const char *harnessName = nullptr;
    const std::vector<std::string> &names = suiteNames(&harnessName);
    bench::Harness harness(harnessName, argc, argv);
    bench::banner(
        "Figure 5: trace cache misses per 1000 instructions vs "
        "combined size",
        "gcc/go/vortex improve 30-80%; compress/ijpeg have no "
        "headroom; equal-area split beats pure TC for large "
        "benchmarks");

    Simulator sim;
    const InstCount insts = bench::runLength(2'000'000);
    const std::vector<SizePoint> grid = figure5Grid();

    std::vector<SimConfig> configs;
    configs.reserve(names.size() * grid.size());
    for (const std::string &name : names) {
        for (const SizePoint &p : grid) {
            SimConfig cfg;
            cfg.benchmark = name;
            cfg.maxInsts = insts;
            cfg.traceCacheEntries = p.tcEntries;
            cfg.preconBufferEntries = p.pbEntries;
            harness.applySample(cfg);
            configs.push_back(std::move(cfg));
        }
    }

    const std::vector<SimResult> results =
        par::runParallelGrid(sim, configs, harness.sweepOptions());

    std::size_t idx = 0;
    for (const std::string &name : names) {
        TableReport table({"config", "combinedKB", "misses/1000",
                           "pbHits", "vs-baseline"});

        // Baseline miss rate per combined size, for the delta
        // column of matching preconstruction splits.
        std::map<std::size_t, double> baseline_at;
        for (const SizePoint &p : grid) {
            const SimResult &r = harness.record(results[idx++]);

            char label[48];
            std::snprintf(label, sizeof(label), "%zuTC+%zuPB",
                          p.tcEntries, p.pbEntries);
            std::string delta = "-";
            const std::size_t combined = p.tcEntries + p.pbEntries;
            if (p.pbEntries == 0) {
                baseline_at[combined] = r.missesPerKi;
            } else if (baseline_at.count(combined)) {
                const double b = baseline_at[combined];
                delta = TableReport::num(
                            100.0 * (r.missesPerKi - b) / b, 1) +
                        "%";
            }
            table.addRow({label,
                          TableReport::num(r.config.combinedKb(),
                                           0),
                          TableReport::num(r.missesPerKi, 2),
                          TableReport::num(r.pbHits), delta});
        }

        std::printf("\n--- %s ---\n%s", name.c_str(),
                    table.render().c_str());
    }

    // Sampled-mode summary (--sample): the table above then holds
    // SMARTS-style extrapolated estimates, and the honest mixed-mode
    // MIPS lands in the JSON report for the perf gate's `sampled`
    // baseline entry.
    if (harness.sampling()) {
        std::uint64_t windows = 0;
        InstCount sampled = 0, skipped = 0, total = 0;
        double ciSum = 0.0;
        std::size_t sampledRows = 0;
        for (const SimResult &r : results) {
            if (!r.sampled)
                continue;
            ++sampledRows;
            windows += r.sampleWindows;
            sampled += r.sampledInsts;
            skipped += r.skippedInsts;
            total += r.instructions;
            ciSum += r.ci95MissesPerKi;
        }
        if (sampledRows > 0) {
            std::printf(
                "\nsampled mode: %zu/%zu rows sampled, %llu "
                "windows, %.1f%% of instructions fast-forwarded, "
                "mean ci95 %.3f misses/KI\n",
                sampledRows, results.size(),
                static_cast<unsigned long long>(windows),
                total ? 100.0 * static_cast<double>(skipped) /
                            static_cast<double>(total)
                      : 0.0,
                ciSum / static_cast<double>(sampledRows));
        }
    }

    // Warm-state reuse pass (TPRE_WARM_INSTS=W): re-run the same
    // grid with every row forked from one shared W-instruction
    // warm-up checkpoint per workload. Warm rows measure the
    // [W, maxInsts) window SMARTS-style, so their miss rates are
    // not comparable to the cold rows above; what this pass
    // demonstrates is the wall-time cut from sharing the warm-up.
    // Rows that cannot fork (e.g. W >= budget) fall back to cold
    // and carry the reason in the JSON's warm_fallback field.
    if (const char *env = std::getenv("TPRE_WARM_INSTS")) {
        const InstCount warmInsts = static_cast<InstCount>(
            parsePositiveInt(env, "TPRE_WARM_INSTS"));
        std::vector<SimConfig> warmConfigs = configs;
        for (SimConfig &cfg : warmConfigs)
            cfg.warmupInsts = warmInsts;
        const std::vector<SimResult> warmResults =
            par::runParallelGrid(sim, warmConfigs,
                                 harness.sweepOptions());

        double coldWall = 0.0, warmWall = 0.0;
        std::size_t forked = 0, fellBack = 0;
        for (std::size_t i = 0; i < warmResults.size(); ++i) {
            const SimResult &w = harness.record(warmResults[i]);
            coldWall += results[i].wallSeconds;
            warmWall += w.wallSeconds;
            if (w.warm)
                ++forked;
            else
                ++fellBack;
        }
        const double saved =
            coldWall > 0.0
                ? 100.0 * (coldWall - warmWall) / coldWall
                : 0.0;
        std::printf("\nwarm-state reuse (W=%llu): cold rows "
                    "%.2fs, warm rows %.2fs (%.1f%% less wall "
                    "time; %zu forked, %zu cold fallback)\n",
                    static_cast<unsigned long long>(warmInsts),
                    coldWall, warmWall, saved, forked, fellBack);
    }
    return harness.finish();
}

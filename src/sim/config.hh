/**
 * @file
 * SimConfig: one top-level knob set describing a whole experiment
 * run — workload, simulation mode, frontend sizing, and the
 * preconstruction / preprocessing switches — with conversion to
 * the mode-specific configurations.
 */

#ifndef TPRE_SIM_CONFIG_HH
#define TPRE_SIM_CONFIG_HH

#include <string>

#include "sample/sample.hh"
#include "tproc/fast_sim.hh"
#include "tproc/processor.hh"
#include "workload/profile.hh"

namespace tpre
{

/** Which simulation engine to use. */
enum class SimMode : std::uint8_t
{
    /** Frontend-only (Figure 5, Tables 1-3). */
    Fast,
    /** Full timing (Figures 6, 8). */
    Timing,
};

/** Top-level experiment configuration. */
struct SimConfig
{
    /** SPECint95-like workload name (see specint95Names()). */
    std::string benchmark = "gcc";
    std::uint64_t workloadSeed = 7;
    SimMode mode = SimMode::Fast;
    InstCount maxInsts = 3'000'000;

    std::size_t traceCacheEntries = 256;
    unsigned traceCacheAssoc = 2;
    /** 0 disables preconstruction entirely. */
    std::size_t preconBufferEntries = 0;
    bool prepEnabled = false;
    /**
     * Predecoded block dispatch for Fast mode (DESIGN.md section
     * 14); statistics are bit-identical either way, only wall clock
     * and the block counters change. Default honours
     * TPRE_BLOCK_CACHE.
     */
    bool blockCache = blockCacheDefaultEnabled();
    /**
     * Warm-state reuse (Fast mode): functionally warm the first
     * this-many instructions once per workload, checkpoint, and
     * fork every compatible run from the shared checkpoint instead
     * of re-executing the warm-up. The run's statistics then cover
     * the post-warm-up interval [warmupInsts, maxInsts) — a
     * SMARTS-style measurement window, reported as warm in the
     * result. 0 disables (cold run, statistics from instruction 0).
     * Rows that cannot fork (timing mode, tpt dumps,
     * warmupInsts >= maxInsts) fall back to cold and say so.
     */
    InstCount warmupInsts = 0;

    /**
     * SMARTS-style sampled simulation (Fast mode, DESIGN.md
     * section 16): every sampleEvery instructions, run
     * sampleWarmup detailed instructions to re-warm the frontend
     * and measure a sampleWindow-instruction detailed window; the
     * rest of each period is skipped by functional fast-forward.
     * Per-window rates extrapolate to the whole run with a 95%
     * confidence interval from the window variance. sampleEvery 0
     * disables sampling; the defaults honour the strictly parsed
     * TPRE_SAMPLE_EVERY / TPRE_SAMPLE_WINDOW / TPRE_SAMPLE_WARMUP
     * environment knobs. Runs that cannot sample (timing mode, tpt
     * dumps, window >= budget) fall back to detailed and say so in
     * the result.
     */
    InstCount sampleEvery = sample::knobFromEnv("TPRE_SAMPLE_EVERY");
    InstCount sampleWindow =
        sample::knobFromEnv("TPRE_SAMPLE_WINDOW");
    InstCount sampleWarmup =
        sample::knobFromEnv("TPRE_SAMPLE_WARMUP");

    /** The sampling knobs as a sample::SampleSpec. */
    sample::SampleSpec
    sampleSpec() const
    {
        return {sampleEvery, sampleWindow, sampleWarmup};
    }

    SelectionPolicy selection;
    /** Extra preconstruction knobs (ablations). */
    PreconConfig precon;

    /**
     * When non-empty (Fast mode only), dump the run's committed
     * dynamic stream as a `.tpt` trace file at this path (see
     * DESIGN.md section 13). The dump taps the commit hook, so it
     * records exactly the stream the frontend processed.
     */
    std::string tptDump;

    /** Derived configuration for the fast frontend simulator. */
    FastSimConfig toFastConfig() const;
    /** Derived configuration for the timing simulator. */
    ProcessorConfig toProcessorConfig() const;

    /** Combined TC + buffer capacity in kilobytes (paper x-axis). */
    double combinedKb() const;
};

} // namespace tpre

#endif // TPRE_SIM_CONFIG_HH

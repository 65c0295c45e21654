/**
 * @file
 * SMARTS-style sampled simulation (DESIGN.md section 16, ROADMAP
 * item 2c). The controller alternates cheap functional fast-forward
 * (architectural state advances, frontend structures frozen) with
 * detailed measurement windows, both steps of
 * FastSim::runScheduled(). The run is divided into strata whose lengths
 * grow geometrically from `window` up to the steady period `every`:
 * the earliest strata are measured in full (capturing the cold-start
 * transient, where miss density concentrates, exactly), and each
 * later stratum measures a centered warmup+window slice whose rates
 * extrapolate over that stratum's span only. The stratified total
 * yields the point estimate; the spread of the sampled strata's
 * rates yields a 95% confidence interval, SMARTS-style. Degenerate
 * specifications (window >= budget) run the plain detailed loop and
 * are bit-identical to an unsampled run — check::diffModels enforces
 * both properties on every fuzz seed.
 */

#ifndef TPRE_SAMPLE_SAMPLE_HH
#define TPRE_SAMPLE_SAMPLE_HH

#include <string>
#include <vector>

#include "tproc/fast_sim.hh"

namespace tpre::sample
{

/**
 * One TPRE_SAMPLE_* knob: 0 (disabled) when the variable is unset,
 * otherwise the strictly parsed positive value. fatal() on junk,
 * whitespace, signs, overflow or non-positive input, matching the
 * other TPRE_* knobs.
 */
InstCount knobFromEnv(const char *name);

/**
 * The sampling regime. Strata ramp geometrically: the first stratum
 * is @p window instructions long and fully measured; each stratum
 * doubles until reaching the steady period @p every. A stratum
 * longer than warmup + window skips the leading and trailing
 * remainder functionally and runs @p warmup detailed instructions
 * (measured state discarded) followed by a measured
 * @p window-instruction slice at its center.
 */
struct SampleSpec
{
    /** Steady-state sampling period (0 disables sampling). */
    InstCount every = 0;
    /** Detailed measurement window per stratum. */
    InstCount window = 0;
    /** Detailed warm-up run before each centered window. */
    InstCount warmup = 0;

    bool enabled() const { return every > 0; }

    /** The three TPRE_SAMPLE_* environment knobs, strictly parsed. */
    static SampleSpec fromEnv();

    /**
     * The spec with defaults filled in: an enabled spec with
     * window 0 gets every/10 (at least 1), and warmup stays as
     * given. fatal() when window or warmup is set without every,
     * or when warmup + window exceeds the period.
     */
    SampleSpec resolved() const;
};

/** Default --sample regime for a given instruction budget. */
SampleSpec defaultSpec(InstCount budget);

/** The contract regime's budget (see contractSpec). */
inline constexpr InstCount contractBudget = 1'000'000;

/**
 * The error-contract regime (DESIGN.md section 16): the spec under
 * which the statistical acceptance test pins every golden fig5 grid
 * row's sampled miss-rate estimate within 2% of the same-budget
 * detailed run at contractBudget instructions. High duty cycle by
 * design — the short functional skips bound the frontend-trajectory
 * perturbation each skip introduces, which is what limits accuracy
 * at these budgets, not window variance.
 */
SampleSpec contractSpec();

/**
 * One metric observation from one stratum, ready for the stratified
 * estimator: the window's rate, the span it stands for, and how much
 * of that span was not measured (zero for fully-detailed strata).
 */
struct Stratum
{
    /** Window rate (per-KI, or a 0..1 fraction for coverage). */
    double value = 0.0;
    /** Stratum span in instructions. */
    double span = 0.0;
    /** Unmeasured part of the span (span - window instructions). */
    double unsampled = 0.0;
};

/**
 * Point estimate with a SMARTS-style confidence interval. `mean` is
 * the span-weighted stratified estimate; `sd` is the sample standard
 * deviation of the *sampled* strata's rates (those with unsampled
 * span — fully-measured strata contribute exact totals, not
 * variance); `ci95` is the 95% half-width on the overall mean,
 * 1.96 * sd * sqrt(sum(unsampled_i^2)) / sum(span_i): only the
 * unmeasured spans carry estimation error. With fewer than two
 * sampled strata the variance is undefined and the interval is
 * unbounded (ci95 = 0, bounded() false) — unless everything was
 * measured, in which case the estimate is exact.
 */
struct MetricEstimate
{
    double mean = 0.0;
    double sd = 0.0;
    double ci95 = 0.0;
    /** Strata contributing to the estimate. */
    std::uint64_t windows = 0;
    /** Strata with unmeasured span (the variance sample). */
    std::uint64_t sampledWindows = 0;

    /** The interval is meaningful: exact, or >= 2 variance points. */
    bool bounded() const
    {
        return windows > 0 &&
               (sampledWindows == 0 || sampledWindows >= 2);
    }
};

/** Span-weighted stratified estimate (see MetricEstimate). */
MetricEstimate estimateStratified(const std::vector<Stratum> &xs);

/** Outcome of one sampled run. */
struct SampledRun
{
    /** The controller actually sampled (false on degenerate fall
     *  back, where raw holds a plain detailed run's statistics). */
    bool sampled = false;
    /** Why sampling fell back ("" when sampled). */
    std::string fallback;
    /** The resolved spec the run used. */
    SampleSpec spec;
    /** Completed measurement windows (strata with observations). */
    std::uint64_t windows = 0;
    /** Total forward progress in core instructions (detailed +
     *  warm-up + functionally skipped). */
    InstCount instructions = 0;
    /** Instructions measured inside detailed windows. */
    InstCount sampledInsts = 0;
    /** Instructions advanced by functional fast-forward. */
    InstCount skippedInsts = 0;
    /** Detailed warm-up instructions (executed, not measured). */
    InstCount warmInsts = 0;
    /**
     * The simulator's end-of-run statistics: the full detailed run
     * for a degenerate fall back, otherwise the accumulated
     * detailed portions only (window + warm-up instructions). The
     * precon/provenance ledgers inside stay raw — they are
     * internally conserved and are never extrapolated.
     */
    FastSimStats raw;

    /** Per-metric stratified estimates (rates per 1000
     *  instructions, coverage as a 0..1 fraction). */
    MetricEstimate missesPerKi;
    MetricEstimate tracesPerKi;
    MetricEstimate pbHitsPerKi;
    MetricEstimate cyclesPerKi;
    MetricEstimate coverage;
    MetricEstimate icacheMissesPerKi;
    MetricEstimate icacheSupplyPerKi;
    MetricEstimate icacheMissSupplyPerKi;
};

/**
 * Run @p sim for @p budget core instructions under @p spec.
 * The simulator may have been forked from a functional checkpoint;
 * boundaries are relative to its current instruction cursor. When
 * spec.window >= budget the run degenerates to a plain detailed
 * sim.run(budget) — bit-identical to an unsampled run — with
 * fallback naming the reason. @p spec must be enabled.
 *
 * Otherwise the stratum schedule, which reads only the core's
 * instruction count and halt flag, steps the stream through
 * FastSim::runScheduled(), and a reducer turns the frontend's
 * statistics at each step's mark into the strata. When the calling
 * thread leaves a hardware thread idle, the schedule runs on a
 * helper thread, so the frontend serves one window while the
 * stream skips on to the next (DESIGN.md section 16); the result
 * is bit-identical to the inline run either way.
 */
SampledRun runSampled(FastSim &sim, const SampleSpec &spec,
                      InstCount budget);

} // namespace tpre::sample

#endif // TPRE_SAMPLE_SAMPLE_HH

/**
 * @file
 * Simulator: the library's top-level facade. Give it a SimConfig,
 * get back a SimResult with the paper's metrics. Generated
 * workloads are cached per (benchmark, seed) so sweeps do not
 * regenerate programs.
 */

#ifndef TPRE_SIM_SIMULATOR_HH
#define TPRE_SIM_SIMULATOR_HH

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

#include "mem/checkpoint.hh"
#include "sim/config.hh"
#include "telemetry/attrib.hh"
#include "telemetry/provenance.hh"
#include "workload/generator.hh"

namespace tpre
{

/** Unified result record across simulation modes. */
struct SimResult
{
    SimConfig config;
    InstCount instructions = 0;
    Cycle cycles = 0;
    double ipc = 0.0;
    /** Trace-cache (+ buffers) misses per 1000 instructions. */
    double missesPerKi = 0.0;
    std::uint64_t traces = 0;
    std::uint64_t tcMisses = 0;
    std::uint64_t pbHits = 0;
    /** Instructions supplied by the I-cache per 1000 (Table 1). */
    double icacheSupplyPerKi = 0.0;
    /** I-cache misses per 1000 instructions (Table 2). */
    double icacheMissesPerKi = 0.0;
    /** Instructions supplied by I-cache misses per 1000 (Table 3). */
    double icacheMissSupplyPerKi = 0.0;
    PreconstructionEngine::Stats precon;
    Preprocessor::Stats prep;
    /**
     * Per-origin (fill unit vs preconstruction engine) trace-cache
     * line provenance: builds, hits, first-use latency, eviction
     * reasons.
     */
    ProvenanceTable provenance;
    /**
     * Reuse attribution: the provenance ledger decanted by loop
     * class and instruction type (DESIGN.md section 17). All zeros
     * when attribution is inactive (TPRE_OBS_DISABLED build or
     * TPRE_ATTRIB=0); like provenance it stays raw in sampled runs.
     */
    AttribTable attrib;
    /**
     * The block cache's counters (Fast mode; zero in timing mode
     * and replays). Host-side bookkeeping like wallSeconds —
     * they describe how the simulator executed, not the simulated
     * machine.
     */
    std::uint64_t blocksDecoded = 0;
    std::uint64_t blockHits = 0;
    std::uint64_t blockInvalidations = 0;
    /**
     * Wall-clock seconds spent executing the simulation proper.
     * Workload generation is excluded: workloads are cached and
     * shared, so charging generation to whichever run happens to
     * arrive first would make throughput numbers incomparable.
     */
    double wallSeconds = 0.0;
    /** Millions of simulated instructions per wall-clock second. */
    double mips = 0.0;
    /**
     * The run was forked from a shared warm-up checkpoint; its
     * statistics cover [warmupInsts, maxInsts) rather than the full
     * run from instruction 0.
     */
    bool warm = false;
    /** Requested warm-up length (0 = cold). */
    InstCount warmupInsts = 0;
    /**
     * Why a requested warm-up fell back to a cold run (empty when
     * warm or when no warm-up was requested): "timing-mode",
     * "tpt-dump" or "warmup>=maxInsts".
     */
    std::string warmFallback;
    /**
     * SMARTS-style sampled run (DESIGN.md section 16): the counters
     * above are extrapolated from the measurement windows'
     * per-window rates and `instructions` counts total forward
     * progress (detailed + skipped), so mips is the honest mixed-
     * mode rate. The precon/provenance ledgers stay raw (detailed
     * portions only) — they are conserved, not extrapolated.
     */
    bool sampled = false;
    /** Completed measurement windows (sampled runs). */
    std::uint64_t sampleWindows = 0;
    /** Instructions measured inside detailed windows. */
    InstCount sampledInsts = 0;
    /** Instructions advanced by functional fast-forward. */
    InstCount skippedInsts = 0;
    /**
     * Why requested sampling fell back to a detailed run (empty
     * when sampled or when sampling was off): "timing-mode",
     * "tpt-dump" or "window>=maxInsts".
     */
    std::string sampleFallback;
    /** Fraction of instructions supplied without the slow path. */
    double coverage = 0.0;
    /** 95% confidence half-widths for the sampled estimates (0 when
     *  unsampled or fewer than two windows). */
    double ci95MissesPerKi = 0.0;
    double ci95Coverage = 0.0;
    double ci95IcacheMissesPerKi = 0.0;
};

/**
 * Map a finished fast-frontend run's statistics into a SimResult.
 * Shared by Simulator::run (live) and replayTrace (from a `.tpt`
 * file); wallSeconds/mips are left for the caller to stamp.
 */
SimResult makeFastResult(const SimConfig &config,
                         const FastSimStats &stats);

/**
 * Map a sampled run into a SimResult: counter totals are the
 * per-window mean rates scaled to the run's full forward progress
 * (clamped so tcMisses never exceeds traces), the per-KI metrics
 * are the window means themselves, and the ci95 fields carry the
 * confidence half-widths. A degenerate (unsampled) SampledRun maps
 * through makeFastResult with the fallback reason recorded.
 * wallSeconds/mips are left for the caller to stamp.
 */
SimResult makeSampledResult(const SimConfig &config,
                            const sample::SampledRun &run);

/**
 * Replay a `.tpt` trace file through the fast frontend: no
 * functional execution, no workload generation — the file's
 * embedded program and recorded stream drive the fill unit, trace
 * cache and preconstruction engine directly. @p config supplies
 * the frontend sizing; benchmark/seed are taken from the file's
 * metadata. Exits via fatal() on an unreadable or corrupt file.
 */
SimResult replayTrace(const std::string &tptPath, SimConfig config);

/**
 * Identity of the committed stream a row consumes: benchmark,
 * workload seed, selection policy (maxLen, alignGranule), warm-up
 * and budget. Rows with equal keys segment the same traces and stop
 * at the same trace boundary, whatever their frontend sizing.
 */
using StreamKey = std::tuple<std::string, std::uint64_t, unsigned,
                             unsigned, InstCount, InstCount>;

/**
 * The row's stream key when it can share its stream with other
 * rows (Simulator::runGroup): Fast mode, unsampled and no `.tpt`
 * dump. std::nullopt for every other row, which runs alone: timing
 * rows have no shareable frontend, sampled rows place their windows
 * per run, and a dump needs its own commit windows on the onCommit
 * hook.
 */
std::optional<StreamKey> streamKey(const SimConfig &config);

/**
 * Runs experiments, caching generated workloads. Thread-safe: the
 * parallel sweep engine shares one Simulator across all workers so
 * each (benchmark, seed) program is generated exactly once. Cache
 * entries are created under a mutex, but generation itself runs
 * under a per-entry std::once_flag outside that lock, so two
 * threads generating *different* workloads proceed concurrently
 * while threads demanding the *same* workload block only on its
 * first generation.
 */
class Simulator
{
  public:
    Simulator() = default;

    /**
     * Run one experiment configuration. A row with a stream key
     * runs as runGroup() of one.
     */
    SimResult run(const SimConfig &config);

    /**
     * Run rows that all have the same stream key (streamKey()) as
     * one group: one functional pass, forked from the shared
     * warm-up checkpoint when the rows warm up, whose segmented
     * traces are served to one frontend per row in lockstep
     * (DESIGN.md section 9). Every result is bit-identical to its
     * row's solo run except wallSeconds, which is the group's wall
     * time divided by the row count, and mips, which follows from
     * it. Results come back in input order.
     */
    std::vector<SimResult>
    runGroup(const std::vector<SimConfig> &configs);

    /**
     * Access (and cache) the workload for a config. The returned
     * GeneratedWorkload is immutable after generation and safe to
     * read from any number of threads; holding the shared_ptr keeps
     * it alive even after the cache evicts the entry (the cache is
     * LRU-bounded — see setWorkloadCacheLimit).
     */
    std::shared_ptr<const GeneratedWorkload>
    workload(const std::string &benchmark, std::uint64_t seed);

    /**
     * Bound the workload cache (default 64 entries). Unbounded
     * growth retained every workload for the process lifetime; a
     * long-lived Simulator sweeping many (benchmark, seed) pairs
     * now evicts the least-recently-used generated entries.
     * In-flight users are unaffected: they hold shared_ptrs.
     */
    void setWorkloadCacheLimit(std::size_t limit);
    /** Number of workloads currently cached. */
    std::size_t workloadCacheSize();

  private:
    struct CacheEntry
    {
        std::once_flag once;
        std::shared_ptr<const GeneratedWorkload> workload;
        std::uint64_t lastUse = 0;
    };

    /**
     * One shared warm-up checkpoint per (workload, warm-up length,
     * selection) — every config that generates the same committed
     * stream forks from the same functionally warmed state.
     */
    struct WarmEntry
    {
        std::once_flag once;
        std::shared_ptr<const mem::Checkpoint> checkpoint;
    };

    using WarmKey = std::tuple<std::string, std::uint64_t,
                               InstCount, unsigned, unsigned>;

    /** Get (generating once) the shared warm-up checkpoint. */
    std::shared_ptr<const mem::Checkpoint>
    warmCheckpoint(const SimConfig &config,
                   const GeneratedWorkload &wl);

    /** How a row's warm-up request resolves. */
    struct WarmPlan
    {
        /** The shared checkpoint to fork from; null for a cold run. */
        std::shared_ptr<const mem::Checkpoint> checkpoint;
        /** Why a requested warm-up runs cold (SimResult field). */
        std::string fallback;
    };

    /**
     * Decide before the clock starts whether @p config can fork
     * from the shared warm-up checkpoint; generates the checkpoint
     * (once per workload+selection) outside the timed section, like
     * workload generation.
     */
    WarmPlan planWarmup(const SimConfig &config,
                        const GeneratedWorkload &wl);

    /** Drop LRU generated workloads beyond the cache limit. */
    void evictWorkloadsLocked(
        const std::pair<std::string, std::uint64_t> &current);

    std::mutex mu_;
    std::map<std::pair<std::string, std::uint64_t>,
             std::shared_ptr<CacheEntry>>
        workloads_;
    std::map<WarmKey, std::shared_ptr<WarmEntry>> warm_;
    std::uint64_t useClock_ = 0;
    std::size_t workloadCacheLimit_ = 64;
};

} // namespace tpre

#endif // TPRE_SIM_SIMULATOR_HH

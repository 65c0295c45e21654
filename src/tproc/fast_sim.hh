/**
 * @file
 * FastSim: the frontend-only simulation mode (DESIGN.md section 5).
 * The committed dynamic stream is segmented into traces by the
 * shared selection rules; each trace probes the trace cache and the
 * preconstruction buffers, misses engage the slow path (I-cache
 * fetch + fill unit), and the preconstruction engine runs in the
 * cycles the slow path leaves idle. Backend timing is a fixed
 * dispatch-rate model, which is sufficient for the paper's
 * miss-rate results (Figure 5) and I-cache results (Tables 1-3).
 */

#ifndef TPRE_TPROC_FAST_SIM_HH
#define TPRE_TPROC_FAST_SIM_HH

#include <memory>
#include <unordered_set>
#include <vector>

#include "bpred/bimodal.hh"
#include "cache/icache.hh"
#include "check/hooks.hh"
#include "func/block_cache.hh"
#include "func/core.hh"
#include "mem/checkpoint.hh"
#include "precon/engine.hh"
#include "trace/fill_unit.hh"
#include "trace/trace_cache.hh"

namespace tpre
{

/** Configuration of a fast frontend simulation. */
struct FastSimConfig
{
    std::size_t traceCacheEntries = 256;
    unsigned traceCacheAssoc = 2;
    ICacheConfig icache;
    SelectionPolicy selection;
    /** Slow-path fetch bandwidth (instructions per cycle). */
    unsigned slowFetchWidth = 4;
    /**
     * Effective retire rate (instructions/cycle) used to advance
     * simulated time on trace-cache hits. The paper's execution
     * engine is 8-wide with realistic IPC well below trace width;
     * this sets how much wall-clock the preconstruction engine
     * gets per dispatched trace.
     */
    double assumedIpc = 4.0;
    /** Enable the preconstruction mechanism. */
    bool preconEnabled = false;
    PreconConfig precon;
    /** Track the number of distinct trace identities seen. */
    bool trackTraceWorkingSet = false;
    /**
     * Predecoded block dispatch (ROADMAP items 2a/2b): retire whole
     * basic blocks in bulk instead of stepping instruction by
     * instruction. Bit-identical statistics by construction; run()
     * falls back to the scalar loop automatically when an onCommit
     * hook is armed (consumers of per-instruction dynamic records —
     * the differential oracle, .tpt dumping — need the effective
     * addresses a bulk-retired body never materializes). Defaults
     * to the TPRE_BLOCK_CACHE environment override (on when unset).
     */
    bool blockCache = blockCacheDefaultEnabled();
    /** Commit/trace taps for the tpre::check differential oracle. */
    check::SimHooks hooks;
};

/** Results of a fast frontend simulation. */
struct FastSimStats
{
    InstCount instructions = 0;
    Cycle cycles = 0;
    std::uint64_t traces = 0;
    std::uint64_t tcHits = 0;
    /** Hits served from a preconstruction buffer (copied to TC). */
    std::uint64_t pbHits = 0;
    /** Misses of the combined TC + preconstruction buffers. */
    std::uint64_t tcMisses = 0;
    /** Instructions supplied by the I-cache (Table 1). */
    std::uint64_t slowPathInsts = 0;
    /** Instructions supplied by I-cache *misses* (Table 3). */
    std::uint64_t slowPathInstsFromMisses = 0;
    ICache::Stats icache;
    PreconstructionEngine::Stats precon;
    /** Distinct trace identities (when tracking is enabled). */
    std::uint64_t traceWorkingSet = 0;
    /** Per-origin trace-cache line provenance (copied at run end). */
    ProvenanceTable provenance;
    /**
     * Reuse attribution (origin × loop-class cells with inst-type
     * histograms; copied at run end). All zeros when attribution is
     * inactive (TPRE_OBS_DISABLED build or TPRE_ATTRIB=0).
     */
    AttribTable attrib;
    /**
     * Block-dispatch counters (decoded/hits/invalidations). Host-
     * side bookkeeping like wallSeconds: they describe how the
     * simulator executed, not what it simulated, so replay equality
     * (check::fastStatsEqual) deliberately excludes them.
     */
    BlockCache::Stats blocks;

    /** The paper's favourite unit. */
    double missesPerKiloInst() const
    {
        return instructions == 0
                   ? 0.0
                   : 1000.0 * static_cast<double>(tcMisses) /
                         static_cast<double>(instructions);
    }
};

/**
 * Abstract producer of a committed dynamic instruction stream, the
 * contract between FastSim::replay() and trace-file decoders
 * (tracefmt::ReplayFrontend). next() yields instructions in commit
 * order and returns false at end of stream.
 */
class DynInstSource
{
  public:
    virtual ~DynInstSource() = default;
    virtual bool next(DynInst &out) = 0;
};

/** Frontend-only trace processor simulation. */
class FastSim
{
  public:
    FastSim(const Program &program, FastSimConfig config = {});
    ~FastSim();

    /**
     * Run until @p maxInsts instructions commit or the program
     * halts; returns the collected statistics.
     */
    const FastSimStats &run(InstCount maxInsts);

    /**
     * Run the scalar loop until the functional core has executed
     * @p coreInsts instructions (or the program halts), leaving the
     * segmenter and commit window mid-flight: no partial-trace
     * flush, no end-of-run stats bookkeeping. This is the
     * checkpoint-generation primitive — it can stop mid-block and
     * mid-trace, and a subsequent run() picks up exactly where it
     * stopped.
     */
    const FastSimStats &runUntil(InstCount coreInsts);

    /**
     * Snapshot the simulator into a relocatable checkpoint.
     * Functional checkpoints capture the architectural stream state
     * (core, memory, commit window, segmenter, predictor) and can
     * seed any config that generates the same dynamic stream; Full
     * checkpoints additionally capture the caches, the
     * preconstruction engine and the statistics, and only restore
     * into an identically configured simulator.
     */
    mem::Checkpoint checkpoint(mem::CheckpointKind kind) const;

    /**
     * Restore this (freshly constructed, never-run) simulator from
     * a checkpoint taken by checkpoint(). The config signature must
     * match: stream-affecting knobs for Functional checkpoints,
     * the full microarchitectural config for Full ones.
     */
    void forkFrom(const mem::Checkpoint &checkpoint);

    /**
     * Signature of the configuration fields a checkpoint of @p kind
     * depends on. Host-side knobs (blockCache, hooks) are
     * excluded: they never change simulated behaviour.
     */
    std::uint64_t configSignature(mem::CheckpointKind kind) const;

    /**
     * Drive the frontend from a pre-recorded committed stream
     * instead of the functional core: segmentation, trace cache,
     * preconstruction and predictor training all take the exact
     * same path as run(), so replaying the stream a live run
     * committed reproduces its statistics field by field.
     */
    const FastSimStats &replay(DynInstSource &source,
                               InstCount maxInsts);

    /**
     * Functional fast-forward (sampling skip): advance the
     * architectural state by up to @p coreInsts instructions —
     * through the predecoded block cache when enabled, the scalar
     * core otherwise, with identical resulting state — while the
     * frontend stays frozen: nothing is fed to the fill unit, the
     * trace cache, the predictor or the engine, and the in-flight
     * partial trace is abandoned (the skipped stream is a gap, so
     * segmentation restarts at the landing PC). Returns the
     * instructions actually advanced (short on halt).
     */
    InstCount fastForward(InstCount coreInsts);

    /**
     * Refresh the component statistics (I-cache, engine, blocks,
     * provenance) into stats() and return it — finishRun() without
     * the end-of-run conservation check, safe mid-run. The sampling
     * controller snapshots this around each measurement window.
     */
    const FastSimStats &syncStats();

    /** Core instructions executed (absolute; restored by forks). */
    InstCount instsExecuted() const { return core_.instsExecuted(); }
    bool halted() const { return core_.halted(); }

    const FastSimStats &stats() const { return stats_; }

    const TraceCache &traceCache() const { return traceCache_; }
    const PreconstructionEngine *engine() const
    { return engine_.get(); }
    /** The block cache, when block dispatch is in use. */
    const BlockCache *blockCache() const { return blocks_.get(); }

  private:
    void processTrace(const std::vector<DynInst> &window,
                      Trace &&trace, bool partial);
    /**
     * Commit one instruction on the scalar paths (run, runUntil,
     * replay): extend the commit window, feed the segmenter and
     * process the trace it completes, if any.
     */
    void commitScalar(const DynInst &dyn);
    /** Process the segmenter's partial trace, if any (run end). */
    void flushPartial();
    /** Block-granular main loop (see run()). */
    void runBlocks(InstCount maxInsts);
    /** Shared run()/replay() epilogue: copy stats, check them. */
    void finishRun();

    const Program &program_;
    FastSimConfig config_;
    FunctionalCore core_;
    TraceCache traceCache_;
    ICache icache_;
    BimodalPredictor bimodal_;
    FillUnit segmenter_;
    std::unique_ptr<PreconstructionEngine> engine_;
    std::unique_ptr<BlockCache> blocks_;
    /**
     * Working-set tracking keys on the *full* trace identity, not
     * its 64-bit hash: a hash collision between distinct ids would
     * silently undercount traceWorkingSet.
     */
    std::unordered_set<TraceId> seenTraces_;
    /**
     * Commit window of the in-flight trace (scalar paths). A member
     * rather than a run() local so checkpoints can capture it and a
     * forked run resumes with the restored prefix intact; run() and
     * replay() deliberately do not clear it on entry.
     */
    std::vector<DynInst> window_;
    FastSimStats stats_;
};

} // namespace tpre

#endif // TPRE_TPROC_FAST_SIM_HH

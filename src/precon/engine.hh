/**
 * @file
 * PreconstructionEngine: ties the whole mechanism together. It
 * monitors the processor's dispatch stream for region start points
 * (calls and backward branches), runs up to four regions at a time
 * (one prefetch cache each) with four parallel trace constructors,
 * arbitrates the single spare I-cache port among them on cycles
 * the slow path is idle, fills the preconstruction buffers, and
 * terminates regions when the processor catches up or a resource
 * bound is hit. See Sections 2 and 3 of the paper.
 */

#ifndef TPRE_PRECON_ENGINE_HH
#define TPRE_PRECON_ENGINE_HH

#include <memory>
#include <vector>

#include "cache/icache.hh"
#include "func/core.hh"
#include "mem/checkpoint.hh"
#include "precon/buffers.hh"
#include "precon/constructor.hh"
#include "trace/trace_cache.hh"

namespace tpre
{

/** Full preconstruction configuration. */
struct PreconConfig
{
    /** Preconstruction buffer entries (paper: 32 .. 256). */
    std::size_t bufferEntries = 128;
    unsigned bufferAssoc = 2;
    /** Parallel trace constructors (paper: 4). */
    unsigned numConstructors = 4;
    /** Prefetch caches == concurrently active regions (paper: 4). */
    unsigned numPrefetchCaches = 4;
    /** Capacity of each prefetch cache in instructions. */
    unsigned prefetchCacheInsts = 256;
    /** Region start point stack depth (paper: 16). */
    unsigned stackDepth = 16;
    /** Completed-region memory slots (paper: 4). */
    unsigned completedSlots = 4;
    /** Instructions each constructor can process per cycle. */
    unsigned constructorInstsPerCycle = 4;
    /**
     * Outstanding line fills a region may have in flight (the
     * I-cache is non-blocking; these are its MSHRs). Issue is
     * still one access per idle port cycle.
     */
    unsigned maxOutstandingFetches = 4;
    /**
     * Terminate a region early when its first this-many traces
     * were all already in the trace cache (the region is warm and
     * preconstructing it is redundant work; extends the Section
     * 3.2 redundancy filters). 0 disables.
     */
    unsigned warmRegionThreshold = 3;
    PreconPolicy policy;
};

/** The trace preconstruction engine. */
class PreconstructionEngine : public PreconTraceSink
{
  public:
    struct Stats
    {
        std::uint64_t startPointsPushed = 0;
        std::uint64_t regionsStarted = 0;
        std::uint64_t regionsCompleted = 0;
        std::uint64_t regionsCaughtUp = 0;
        std::uint64_t regionsPrefetchFull = 0;
        std::uint64_t regionsBuffersFull = 0;
        std::uint64_t regionsWarm = 0;
        std::uint64_t tracesConstructed = 0;
        std::uint64_t tracesBuffered = 0;
        std::uint64_t tracesAlreadyInTc = 0;
        std::uint64_t bufferHits = 0;
        std::uint64_t linesFetched = 0;
    };

    /**
     * @param program Static code image the constructors fetch from.
     * @param icache The shared (slow-path) instruction cache.
     * @param bimodal The shared slow-path branch predictor, used
     *        read-only for biased-path pruning.
     * @param traceCache Primary trace cache, probed before
     *        buffering to avoid redundancy.
     */
    PreconstructionEngine(const Program &program, ICache &icache,
                          const BimodalPredictor &bimodal,
                          const TraceCache &traceCache,
                          PreconConfig config = {});
    ~PreconstructionEngine() override;

    // ------------------------------------------------------------
    // Frontend interface
    // ------------------------------------------------------------

    /**
     * Probe the buffers in parallel with the trace cache. On a hit
     * the frontend copies the trace into the trace cache and the
     * buffer entry is invalidated (call consumeHit()).
     */
    const Trace *lookupBuffer(const TraceId &id);

    /** Invalidate a buffer entry just copied into the trace cache. */
    void consumeHit(const TraceId &id);

    // ------------------------------------------------------------
    // Dispatch-stream monitor
    // ------------------------------------------------------------

    /**
     * Observe one dispatched instruction: pushes region start
     * points for calls and taken backward branches, and detects
     * the processor catching up with active regions. Takes the
     * three fields a trace body holds, so FastFrontend feeds it
     * straight from trace bodies with no per-instruction DynInst
     * assembly.
     */
    void observeCommit(Addr pc, const Instruction &inst, bool taken);

    // ------------------------------------------------------------
    // Time
    // ------------------------------------------------------------

    /**
     * Advance the engine by @p cycles cycles. @p icachePortFree
     * tells whether the slow path left the I-cache port idle in
     * this span (preconstruction may fetch only then).
     */
    void tick(Cycle cycles, bool icachePortFree);

    // PreconTraceSink
    bool emitTrace(Region &region, Trace &trace) override;

    const Stats &stats() const { return stats_; }
    const PreconConfig &config() const { return config_; }
    const PreconstructionBuffers &buffers() const { return buffers_; }

    void clear();

    /**
     * Checkpoint/restore the full engine state: buffers, start
     * point stack, every active region (reconstructed from its
     * identity, then overwritten), and every constructor (its
     * region pointer serialized as a region index and re-resolved
     * on restore).
     */
    void save(mem::ByteWriter &w) const;
    void restore(mem::ByteReader &r);

  private:
    /**
     * One engine cycle. The return value reports whether any phase
     * changed state; a false return proves the next cycles are
     * no-ops too until the next fill completes (the only
     * time-triggered phase), which lets tick() skip them wholesale.
     */
    bool tickOneCycle(bool icachePortFree);
    void completeFetches();
    bool issueFetch();
    bool assignConstructors();
    bool retireRegions();
    bool startRegion();
    void terminateRegion(Region &region, RegionEndReason reason);

    const Program &program_;
    ICache &icache_;
    const BimodalPredictor &bimodal_;
    const TraceCache &traceCache_;
    PreconConfig config_;

    PreconstructionBuffers buffers_;
    StartPointStack stack_;
    std::vector<std::unique_ptr<Region>> regions_;
    std::vector<PreconConstructor> constructors_;
    std::uint64_t nextRegionSeq_ = 1;
    /**
     * Superset signature of the start addresses of the regions in
     * regions_ (same one-word scheme as StartPointStack): a clear
     * bit proves no region starts at a pc, letting observeCommit()
     * skip the catch-up scan for almost every commit. Bits of
     * finished-but-unreaped regions linger until the erase — only
     * false positives, never false negatives.
     */
    std::uint64_t regionSig_ = 0;
    /** Line fills in flight across all regions; lets the per-cycle
     *  completion scan bail out without touching the regions. */
    unsigned pendingFetchCount_ = 0;
    /** Earliest readyAt among them: no fill can complete before
     *  this cycle, so the scan is skipped entirely until then. */
    Cycle nextFetchReady_ = 0;
    Cycle now_ = 0;
    Stats stats_;
};

} // namespace tpre

#endif // TPRE_PRECON_ENGINE_HH

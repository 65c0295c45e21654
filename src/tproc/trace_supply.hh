/**
 * @file
 * TraceSupply: the trace supply both simulation modes share
 * (DESIGN.md section 5, Section 3.1 of the paper). The trace cache
 * is probed alongside the preconstruction buffers, a buffer hit is
 * copied into the trace cache, a miss takes the slow path through
 * the I-cache and the fill unit, and the preconstruction engine
 * runs in the cycles the slow path leaves the I-cache port idle.
 * FastFrontend wraps it in a fixed-bandwidth cycle model;
 * TraceProcessor wraps it in the next-trace-predicted fetch
 * pipeline of the timing mode.
 */

#ifndef TPRE_TPROC_TRACE_SUPPLY_HH
#define TPRE_TPROC_TRACE_SUPPLY_HH

#include <memory>

#include "bpred/bimodal.hh"
#include "cache/icache.hh"
#include "mem/checkpoint.hh"
#include "precon/engine.hh"
#include "prep/preprocessor.hh"
#include "trace/trace_cache.hh"

namespace tpre
{

/**
 * The counters both simulators keep about their trace supply;
 * FastSimStats and ProcessorStats extend it with their own.
 */
struct SupplyStats
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
    ICache::Stats icache;
    PreconstructionEngine::Stats precon;
    /**
     * The trace cache's line ledger (origin × loop-class cells with
     * inst-type histograms; copied at run end). Its sum over loop
     * classes is the per-origin provenance table.
     */
    AttribTable attrib;
};

/** A slow-path fetch: its cycles, and the instructions the missed
 *  I-cache lines supplied. */
struct SlowFetch
{
    Cycle cycles = 0;
    unsigned instsFromMisses = 0;
};

/**
 * The trace cache, the I-cache, the slow-path bimodal predictor,
 * the optional preconstruction engine and the optional fill-path
 * preprocessor, wired together once. The engine holds references
 * to the caches and the predictor, so a supply never moves.
 */
class TraceSupply
{
  public:
    /**
     * @param precon Engine configuration, or null for no engine;
     *        its selection policy is replaced by @p selection.
     * @param prep Run the fill-path preprocessor.
     */
    TraceSupply(const Program &program, std::size_t traceCacheEntries,
                unsigned traceCacheAssoc, const ICacheConfig &icache,
                const SelectionPolicy &selection,
                const PreconConfig *precon, bool prep);
    TraceSupply(const TraceSupply &) = delete;
    TraceSupply &operator=(const TraceSupply &) = delete;

    /**
     * Probe the trace cache and, on a miss, the buffers for
     * @p demanded at cycle @p now, counting the outcome in @p stats.
     * A buffer hit is promoted: its (prepared) image is inserted
     * into the trace cache, served at insert, and the buffer entry
     * freed. Returns the stored image, or null on a miss.
     */
    const Trace *probe(const Trace &demanded, Cycle now,
                       SupplyStats &stats);

    /**
     * The slow path: fetch @p trace through the I-cache at @p width
     * instructions per cycle, one access per run of instructions on
     * a line, stalling for L2 on each line miss. Counts the
     * instructions in stats.slowPathInsts.
     */
    SlowFetch slowFetch(const Trace &trace, unsigned width,
                        SupplyStats &stats);

    /**
     * Fill the trace cache with the slow path's build of @p trace,
     * finished at @p buildCycle. Stamps trace.buildCycle, the only
     * field it writes; with preprocessing the stored image is a
     * prepared copy.
     */
    void fill(Trace &trace, Cycle buildCycle);

    /**
     * Train the bimodal predictor on the committed outcomes in
     * @p trace's body and feed them to the engine's start-point
     * monitor. The monitor reads only pc/inst/taken, all embedded
     * in the trace, so no commit window is needed.
     */
    void train(const Trace &trace);

    /** Advance the engine, if any, by @p cycles cycles. */
    void
    tick(Cycle cycles, bool icachePortFree)
    {
        if (engine_)
            engine_->tick(cycles, icachePortFree);
    }

    /** Copy the component ledgers (I-cache, engine, trace-cache
     *  lines) into @p stats. */
    void syncStats(SupplyStats &stats) const;

    /**
     * Checkpoint the supply: the predictor always, and for Full
     * checkpoints the I-cache, the trace cache and the engine too.
     * The preprocessor is not saved: only timing mode uses it, and
     * timing mode takes no checkpoints.
     */
    void save(mem::ByteWriter &w, mem::CheckpointKind kind) const;
    /** Mirror of save(). */
    void restore(mem::ByteReader &r, mem::CheckpointKind kind);

    const TraceCache &traceCache() const { return traceCache_; }
    const BimodalPredictor &bimodal() const { return bimodal_; }
    const PreconstructionEngine *engine() const
    { return engine_.get(); }
    const Preprocessor *prep() const { return prep_.get(); }

  private:
    TraceCache traceCache_;
    ICache icache_;
    BimodalPredictor bimodal_;
    std::unique_ptr<PreconstructionEngine> engine_;
    std::unique_ptr<Preprocessor> prep_;
};

} // namespace tpre

#endif // TPRE_TPROC_TRACE_SUPPLY_HH

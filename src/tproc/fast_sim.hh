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
 *
 * FastSim is a TraceStream (core, block cache, segmenter) feeding
 * a FastFrontend (everything a configuration shapes);
 * runSharedStream() feeds one stream to many frontends. Every
 * consumer pulls its traces from the stream's one block loop.
 */

#ifndef TPRE_TPROC_FAST_SIM_HH
#define TPRE_TPROC_FAST_SIM_HH

#include <memory>
#include <span>
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
     * Commit/trace taps for the tpre::check differential oracle.
     * An armed onCommit makes the stream record commit windows.
     */
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
     * The stream's block-cache counters (decoded/hits/
     * invalidations). Host-side bookkeeping like wallSeconds: they
     * describe how the simulator executed, not what it simulated,
     * so replay equality (check::fastStatsEqual) excludes them.
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
 * Abstract producer of a recorded committed instruction stream, the
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

class FastFrontend;

/** Summed miss latency, and instructions the missed lines supplied. */
struct LineWalk
{
    Cycle missLatency = 0;
    unsigned instsFromMisses = 0;
};

/** Fetch @p trace's I-cache lines in path order, one access per run
 *  of instructions on a line: both simulators' slow path. */
LineWalk fetchTraceLines(ICache &icache, const Trace &trace);

/**
 * The one source of segmented traces (DESIGN.md section 5): the
 * functional core, the predecoded block cache and the fill-unit
 * segmenter, run by one block loop, next(). FastSim's frontends
 * and TraceProcessor's oracle both pull from it. What it commits
 * and where it cuts traces depend only on the program and the
 * selection policy, and no consumer feeds back into it, so one
 * stream can serve any number of frontends in lockstep. Each trace
 * it segments is checked well formed once, here, however many
 * consumers it then serves.
 */
class TraceStream
{
  public:
    /** No core-instruction limit for next(). */
    static constexpr InstCount noLimit = ~InstCount(0);

    /** @param recordWindows Record commit windows: set by the
     *  consumers that read them (TraceProcessor's oracle, a FastSim
     *  with an armed onCommit hook). */
    TraceStream(const Program &program, SelectionPolicy selection,
                bool recordWindows);

    /**
     * The block loop: retire basic blocks until a trace completes
     * and return it checked well formed. It lives in the segmenter
     * until the next call; its commit window is in window(). Null
     * once the core has halted or executed @p coreLimit
     * instructions, possibly mid-block and mid-trace: the next call
     * resumes exactly there.
     */
    Trace *next(InstCount coreLimit = noLimit);

    /**
     * Serve each trace next() returns to every frontend in
     * @p frontends, in order, until the program halts or
     * frontends.front() has processed @p maxInsts instructions.
     * Every frontend must have processed as many instructions as
     * the first, so all of them stop at the same trace boundary.
     */
    void runBlocks(std::span<FastFrontend *const> frontends,
                   InstCount maxInsts);

    /**
     * Segment one recorded instruction (FastSim::replay): returns
     * the trace it completes, checked, or null, as next() does.
     */
    [[gnu::always_inline]] Trace *
    commit(const DynInst &dyn)
    {
        if (recordWindows_)
            window_.push_back(dyn);
        Trace *trace = segmenter_.feed(dyn);
        if (trace)
            complete(*trace, false);
        return trace;
    }

    /** The segmenter's partial trace at replay end, checked, or null. */
    Trace *flush();

    /** The commit window of the trace last returned; a consumer
     *  may swap its storage out. */
    std::vector<DynInst> &window() { return completed_; }

    /** See FastSim::fastForward(). */
    InstCount fastForward(InstCount coreInsts);

    /**
     * Checkpoint the stream: core, in-flight commit window (empty
     * when windowless), segmenter. Equal states save equal bytes.
     */
    void save(mem::ByteWriter &w) const;
    /** Mirror of save(); a windowed stream refuses a mid-trace
     *  checkpoint that carries no window. */
    void restore(mem::ByteReader &r);

    const FunctionalCore &core() const { return core_; }
    const BlockCache &blockCache() const { return blocks_; }

  private:
    /** The block loop of next() and, with Segment false (no
     *  segmenter, no window), of fastForward(). */
    template <bool Segment>
    Trace *run(InstCount coreLimit);
    /** Check @p trace, then move the commit window into completed_. */
    void complete(const Trace &trace, bool partial);

    FunctionalCore core_;
    FillUnit segmenter_;
    BlockCache blocks_;
    /** The block run() stopped in and how many of its body
     *  instructions ran; null: look it up at the core's PC. */
    const DecodedBlock *block_ = nullptr;
    unsigned bodyDone_ = 0;
    const bool recordWindows_;
    /**
     * Commit window of the in-flight trace. A member rather than a
     * loop local so checkpoints can capture it and a forked run
     * resumes with the restored prefix intact.
     */
    std::vector<DynInst> window_;
    /** Commit window of the trace last completed (see window()). */
    std::vector<DynInst> completed_;
};

/**
 * The config-shaped half of FastSim (DESIGN.md section 5): trace
 * cache, preconstruction buffers and engine, I-cache, the slow-path
 * bimodal predictor and the statistics. It consumes the traces a
 * TraceStream segments and feeds nothing back into it.
 */
class FastFrontend
{
  public:
    FastFrontend(const Program &program, const FastSimConfig &config);
    FastFrontend(const FastFrontend &) = delete;
    FastFrontend &operator=(const FastFrontend &) = delete;

    /**
     * Serve one segmented trace: probe the trace cache and the
     * buffers, train the predictor and feed the engine's dispatch
     * monitor from the trace body, take the slow path on a miss and
     * tick the engine. On a miss the frontend stamps
     * trace.buildCycle just before filling its trace cache; it
     * writes no other field and reads no stamp, so frontends that
     * share one trace cannot see each other.
     */
    void processTrace(Trace &trace);

    /**
     * Refresh the component statistics (I-cache, engine,
     * provenance, and the block counters of @p blocks, the stream's
     * block cache) into stats() and return it.
     */
    const FastSimStats &syncStats(const BlockCache &blocks);
    /** syncStats() plus the end-of-run conservation check. */
    const FastSimStats &finishRun(const BlockCache &blocks);

    /**
     * Checkpoint the frontend: the predictor always, and for Full
     * checkpoints the caches, the engine and the statistics too.
     */
    void save(mem::ByteWriter &w, mem::CheckpointKind kind) const;
    /** Mirror of save(); a Functional restore zeroes the stats. */
    void restore(mem::ByteReader &r, mem::CheckpointKind kind);

    const FastSimConfig &config() const { return config_; }
    const FastSimStats &stats() const { return stats_; }
    const TraceCache &traceCache() const { return traceCache_; }
    const PreconstructionEngine *engine() const
    { return engine_.get(); }

  private:
    FastSimConfig config_;
    TraceCache traceCache_;
    ICache icache_;
    BimodalPredictor bimodal_;
    std::unique_ptr<PreconstructionEngine> engine_;
    /**
     * Working-set tracking keys on the *full* trace identity, not
     * its 64-bit hash: a hash collision between distinct ids would
     * silently undercount traceWorkingSet.
     */
    std::unordered_set<TraceId> seenTraces_;
    FastSimStats stats_;
};

/** Frontend-only trace processor simulation: one TraceStream
 *  feeding one FastFrontend. */
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
     * Run until the functional core has executed @p coreInsts
     * instructions (or the program halts), leaving the segmenter
     * and commit window mid-flight: no partial-trace flush, no
     * end-of-run stats bookkeeping. This is the checkpoint-
     * generation primitive — it can stop mid-block and mid-trace,
     * and a subsequent run() picks up exactly where it stopped.
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
     * depends on. The hooks are excluded: they never change
     * simulated behaviour.
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
     * architectural state by up to @p coreInsts instructions
     * through the predecoded block cache while the frontend stays
     * frozen: nothing is fed to the fill unit, the
     * trace cache, the predictor or the engine, and the in-flight
     * partial trace is abandoned (the skipped stream is a gap, so
     * segmentation restarts at the landing PC). Returns the
     * instructions actually advanced (short on halt).
     */
    InstCount fastForward(InstCount coreInsts);

    /**
     * Refresh the component statistics (I-cache, engine, blocks,
     * provenance) into stats() and return it — the end of run()
     * without the conservation check, safe mid-run. The sampling
     * controller snapshots this around each measurement window.
     */
    const FastSimStats &syncStats();

    /** Core instructions executed (absolute; restored by forks). */
    InstCount instsExecuted() const
    { return stream_.core().instsExecuted(); }
    bool halted() const { return stream_.core().halted(); }

    const FastSimStats &stats() const { return frontend_.stats(); }

    const TraceCache &traceCache() const
    { return frontend_.traceCache(); }
    const PreconstructionEngine *engine() const
    { return frontend_.engine(); }

  private:
    /** Let the frontend process @p trace, if any, then hand its
     *  commit window to the onCommit hook. */
    void serve(Trace *trace);

    const Program &program_;
    TraceStream stream_;
    FastFrontend frontend_;
};

/**
 * Run every configuration in @p configs over one shared TraceStream:
 * one functional pass, segmented once, served to one FastFrontend
 * per configuration in lockstep (DESIGN.md section 5). Each
 * frontend's statistics are bit-identical to its own
 * FastSim::run(maxInsts). The configurations must share one
 * selection policy and arm no onCommit hook.
 * With @p fork, the stream and every frontend first restore that
 * Functional checkpoint. Returns one record per configuration, in
 * order; the frontends are freed on return.
 */
std::vector<FastSimStats>
runSharedStream(const Program &program,
                const std::vector<FastSimConfig> &configs,
                InstCount maxInsts,
                const mem::Checkpoint *fork = nullptr);

} // namespace tpre

#endif // TPRE_TPROC_FAST_SIM_HH

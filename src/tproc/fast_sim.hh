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

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "check/hooks.hh"
#include "func/block_cache.hh"
#include "func/core.hh"
#include "mem/checkpoint.hh"
#include "tproc/trace_supply.hh"
#include "trace/fill_unit.hh"

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
    /**
     * Commit/trace taps for the tpre::check differential oracle.
     * An armed onCommit makes the stream record commit windows.
     */
    check::SimHooks hooks;
};

/** Results of a fast frontend simulation. */
struct FastSimStats : SupplyStats
{
    /** Instructions supplied by I-cache *misses* (Table 3). */
    std::uint64_t slowPathInstsFromMisses = 0;
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

class FastFrontend;

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
     * When the calling thread leaves a hardware thread idle (it is
     * no ThreadPool worker, and the process may run on more than
     * one), the block loop runs on a helper thread and hands its
     * traces over through a bounded ring (DESIGN.md section 5);
     * the stream stops at the same trace either way, and a trace
     * that fails its check fails on the calling thread, before any
     * frontend sees it.
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
        Trace *trace = segment(dyn);
        if (trace)
            checkTrace(*trace, false);
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
    /** FastSim::runScheduled's helper cuts traces with run() and
     *  leaves their checks to the calling thread, as runBlocks'
     *  does. */
    friend class FastSim;

    /** The block loop of next() and, with Segment false (no
     *  segmenter, no window), of fastForward(); its traces are
     *  not checked yet. */
    template <bool Segment>
    Trace *run(InstCount coreLimit);
    /** Record @p dyn in the window and segment it: the trace it
     *  completes, not checked yet, or null. */
    [[gnu::always_inline]] Trace *
    segment(const DynInst &dyn)
    {
        if (recordWindows_)
            window_.push_back(dyn);
        Trace *trace = segmenter_.feed(dyn);
        if (trace)
            closeWindow();
        return trace;
    }
    /** Move the commit window into completed_. */
    void closeWindow();
    /** The per-trace check every trace the stream cuts passes,
     *  once (TPRE_CHECK builds). */
    void checkTrace(const Trace &trace, bool partial) const;

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
 * The config-shaped half of FastSim (DESIGN.md section 5): a
 * TraceSupply (trace cache, preconstruction buffers and engine,
 * I-cache, slow-path bimodal predictor) under a fixed-bandwidth
 * cycle model, and the statistics. It consumes the traces a
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
     * share one trace cannot see each other. A @p partial trace (a
     * replay's final flush) may share its id with a longer stored
     * trace, so it skips the probe and takes the slow path.
     */
    void processTrace(Trace &trace, bool partial = false);

    /**
     * Refresh the component statistics (I-cache, engine,
     * provenance, and the block counters of @p blocks, the stream's
     * block cache) into stats() and return it.
     */
    const FastSimStats &syncStats(const BlockCache &blocks);
    /** syncStats() but for the block counters, which stay as they
     *  were: it reads nothing of the stream. */
    const FastSimStats &syncSupplyStats();
    /** syncStats() plus the end-of-run conservation check. */
    const FastSimStats &finishRun(const BlockCache &blocks);

    /**
     * Checkpoint the frontend: the supply's predictor always, and
     * for Full checkpoints the rest of the supply and the
     * statistics too.
     */
    void save(mem::ByteWriter &w, mem::CheckpointKind kind) const;
    /** Mirror of save(); a Functional restore zeroes the stats. */
    void restore(mem::ByteReader &r, mem::CheckpointKind kind);

    const FastSimConfig &config() const { return config_; }
    const FastSimStats &stats() const { return stats_; }
    const TraceCache &traceCache() const
    { return supply_.traceCache(); }
    const PreconstructionEngine *engine() const
    { return supply_.engine(); }

  private:
    FastSimConfig config_;
    TraceSupply supply_;
    FastSimStats stats_;
};

/**
 * A boundary in a scheduled run (FastSim::runScheduled). It reaches
 * the frontend's side after every trace of the step it ends.
 */
struct StreamMark
{
    /** The schedule's name for the step that ended here. */
    unsigned tag = 0;
    /** Core instructions executed (absolute) when it ended. */
    InstCount coreInsts = 0;
};

/**
 * The stream side of FastSim::runScheduled(): what a schedule may
 * read (the core's instruction count and halt flag) and the steps
 * it may take. Each step ends with a mark. A schedule reads nothing
 * else, so it can run on a helper thread while the calling thread
 * serves the frontend.
 */
class StreamSteps
{
  public:
    /** Core instructions executed (absolute). */
    InstCount instsExecuted() const
    { return stream_.core().instsExecuted(); }
    bool halted() const { return stream_.core().halted(); }

    /** Segment the stream for the frontend until the core has
     *  executed @p coreInsts instructions or halts, as
     *  FastSim::runUntil() does, then mark @p tag. */
    virtual void detailed(InstCount coreInsts, unsigned tag) = 0;
    /** Fast-forward up to @p coreInsts instructions, as
     *  FastSim::fastForward() does, then mark @p tag. */
    void
    skip(InstCount coreInsts, unsigned tag)
    {
        stream_.fastForward(coreInsts);
        mark(tag);
    }
    /** Mark @p tag without a step. */
    virtual void mark(unsigned tag) = 0;

  protected:
    explicit StreamSteps(TraceStream &stream) : stream_(stream) {}
    ~StreamSteps() = default;

    TraceStream &stream_;
};

/** Frontend-only trace processor simulation: one TraceStream
 *  feeding one FastFrontend. */
class FastSim
{
  public:
    /** Where runScheduled() delivers each mark. */
    using MarkSink = std::function<void(const StreamMark &,
                                        const FastSimStats &)>;

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
     * same path as run(), so a replay of the stream a live run
     * committed reproduces its statistics field by field.
     * @p flushed, when given, receives whether the replay ended
     * mid-trace and flushed that partial trace (counted among the
     * traces).
     */
    const FastSimStats &replay(DynInstSource &source,
                               InstCount maxInsts,
                               bool *flushed = nullptr);

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
     * Run @p schedule, which steps the stream, while the frontend
     * serves every trace the steps segment (sample::runSampled).
     * @p onMark gets each mark, in stream order, once the frontend
     * has served every trace before it, with the frontend's
     * statistics synced as FastFrontend::syncSupplyStats() syncs
     * them. When the calling thread leaves a hardware thread idle
     * (as for runBlocks) and no onCommit hook is armed, the
     * schedule runs on a helper thread and its traces and marks
     * reach the calling thread through runBlocks' ring (DESIGN.md
     * section 16); otherwise it runs inline. The frontend sees the
     * same traces and marks either way, a trace that fails its
     * check fails on the calling thread, and the helper is joined
     * before this returns or throws.
     */
    void runScheduled(const std::function<void(StreamSteps &)> &schedule,
                      const MarkSink &onMark);

    /**
     * Refresh the component statistics (I-cache, engine, blocks,
     * provenance) into stats() and return it — the end of run()
     * without the conservation check, safe mid-run.
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
    void serve(Trace *trace, bool partial = false);

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
 * order; the frontends are freed on return. @p segmentedInsts, when
 * given, receives the instructions the stream segmented.
 */
std::vector<FastSimStats>
runSharedStream(const Program &program,
                const std::vector<FastSimConfig> &configs,
                InstCount maxInsts,
                const mem::Checkpoint *fork = nullptr,
                InstCount *segmentedInsts = nullptr);

} // namespace tpre

#endif // TPRE_TPROC_FAST_SIM_HH

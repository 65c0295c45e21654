#include "tproc/fast_sim.hh"

#include <algorithm>
#include <cstring>
#include <deque>

#include "check/check.hh"
#include "check/invariants.hh"
#include "check/stats_check.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "obs/obs.hh"

namespace tpre
{

namespace
{

/**
 * Signature of the configuration fields a checkpoint of @p kind
 * depends on (see FastSim::configSignature()).
 */
std::uint64_t
signatureOf(const Program &program, const FastSimConfig &config,
            mem::CheckpointKind kind)
{
    // Chain the fields through mix64 so any single-knob change
    // flips the signature. The stream signature covers exactly what
    // shapes the committed dynamic stream and its segmentation; the
    // full signature additionally covers every microarchitectural
    // knob a Full checkpoint embeds state for. The hooks are
    // excluded on purpose.
    std::uint64_t sig = 0x7472'6163'6570'7265ULL; // "tracepre"
    const auto chain = [&sig](std::uint64_t v) {
        sig = mix64(sig ^ v);
    };
    chain(program.entry());
    chain(program.end());
    chain(config.selection.maxLen);
    chain(config.selection.alignGranule);
    if (kind == mem::CheckpointKind::Functional)
        return sig;

    chain(config.traceCacheEntries);
    chain(config.traceCacheAssoc);
    chain(config.icache.geometry.sizeBytes);
    chain(config.icache.geometry.assoc);
    chain(config.icache.geometry.lineBytes);
    chain(config.icache.hitLatency);
    chain(config.icache.missLatency);
    chain(config.slowFetchWidth);
    std::uint64_t ipc_bits;
    static_assert(sizeof(ipc_bits) == sizeof(config.assumedIpc));
    std::memcpy(&ipc_bits, &config.assumedIpc, sizeof(ipc_bits));
    chain(ipc_bits);
    chain(config.preconEnabled);
    chain(config.precon.bufferEntries);
    chain(config.precon.bufferAssoc);
    chain(config.precon.numConstructors);
    chain(config.precon.numPrefetchCaches);
    chain(config.precon.prefetchCacheInsts);
    chain(config.precon.stackDepth);
    chain(config.precon.completedSlots);
    chain(config.precon.constructorInstsPerCycle);
    chain(config.precon.maxOutstandingFetches);
    chain(config.precon.warmRegionThreshold);
    chain(config.precon.policy.worklistMax);
    chain(config.precon.policy.decisionDepth);
    chain(config.precon.policy.maxTracesPerStart);
    chain(config.precon.policy.loopExitAlignSeeds);
    chain(config.precon.policy.callStackDepth);
    chain(config.trackTraceWorkingSet);
    return sig;
}

void
checkSignature(const char *who, const mem::Checkpoint &checkpoint,
               std::uint64_t expected)
{
    if (checkpoint.configSig != expected) {
        fatal("%s: config signature %llx does not match the "
              "checkpoint's %llx", who,
              static_cast<unsigned long long>(expected),
              static_cast<unsigned long long>(checkpoint.configSig));
    }
}

/** The per-trace check every segmented trace passes, once. */
void
checkSegmented([[maybe_unused]] const Trace &trace,
               [[maybe_unused]] const SelectionPolicy &selection,
               [[maybe_unused]] bool partial)
{
    tpre_check_run(check::enforce(
        check::traceWellFormed(trace, selection, partial),
        "segmented trace"));
}

} // namespace

LineWalk
fetchTraceLines(ICache &icache, const Trace &trace)
{
    LineWalk walk;
    Addr cur_line = invalidAddr;
    bool line_missed = false;
    for (const TraceInst &ti : trace.insts) {
        const Addr line = icache.lineAddr(ti.pc);
        if (line != cur_line) {
            const ICache::AccessResult res =
                icache.fetchLine(line, false);
            line_missed = !res.hit;
            if (line_missed)
                walk.missLatency += res.latency;
            cur_line = line;
        }
        walk.instsFromMisses += line_missed;
    }
    return walk;
}

// ------------------------------------------------------------------
// TraceStream

TraceStream::TraceStream(const Program &program,
                         SelectionPolicy selection, bool recordWindows)
    : core_(program), segmenter_(selection), blocks_(program),
      recordWindows_(recordWindows)
{
    if (recordWindows_)
        window_.reserve(maxTraceLen);
}

void
TraceStream::complete(const Trace &trace, bool partial)
{
    checkSegmented(trace, segmenter_.policy(), partial);
    completed_.swap(window_);
    window_.clear();
}

Trace *
TraceStream::flush()
{
    Trace *trace = segmenter_.flush();
    if (trace)
        complete(*trace, true);
    return trace;
}

template <bool Segment>
Trace *
TraceStream::run(InstCount coreLimit)
{
    // Segmenting a body in chunks equals feeding it one instruction
    // at a time: a straight-line chunk of at most roomLeft()
    // instructions hits no selection rule before its last one, so
    // feedRun() cuts exactly where n feed() calls would.
    while (!core_.halted() && core_.instsExecuted() < coreLimit) {
        if (!block_) {
            block_ = &blocks_.lookup(core_.pc());
            bodyDone_ = 0;
        }
        const DecodedBlock &block = *block_;
        if (bodyDone_ < block.bodyLen) {
            InstCount room =
                std::min<InstCount>(block.bodyLen - bodyDone_,
                                    coreLimit - core_.instsExecuted());
            if constexpr (Segment)
                room = std::min<InstCount>(room, segmenter_.roomLeft());
            const auto chunk = static_cast<unsigned>(room);
            const Instruction *insts = block.insts + bodyDone_;
            const Addr pc = core_.pc();
            if (Segment && recordWindows_) {
                const std::size_t at = window_.size();
                window_.resize(at + chunk);
                core_.execBody(insts, chunk, window_.data() + at);
            } else {
                core_.execBody(insts, chunk);
            }
            bodyDone_ += chunk;
            if constexpr (Segment) {
                if (Trace *trace = segmenter_.feedRun(insts, pc, chunk)) {
                    complete(*trace, false);
                    return trace;
                }
            }
            continue;
        }

        // The terminator goes through the core: control transfers
        // need the dynamic next-PC, the link-register write and the
        // halt flag.
        block_ = nullptr;
        if (block.end == BlockEnd::Clipped)
            continue;
        if constexpr (Segment) {
            if (Trace *trace = commit(core_.step()))
                return trace;
        } else {
            core_.step();
        }
    }
    return nullptr;
}

Trace *
TraceStream::next(InstCount coreLimit)
{
    return run<true>(coreLimit);
}

void
TraceStream::runBlocks(std::span<FastFrontend *const> frontends,
                       InstCount maxInsts)
{
    // A frontend's instruction count only advances inside
    // processTrace, so the budget is checked after each trace.
    const FastSimStats &lead = frontends.front()->stats();
    while (lead.instructions < maxInsts) {
        Trace *trace = next();
        if (!trace)
            return;
        for (FastFrontend *frontend : frontends)
            frontend->processTrace(*trace);
    }
}

InstCount
TraceStream::fastForward(InstCount coreInsts)
{
    // Abandon the in-flight trace: the skipped instructions are a
    // gap in the frontend's view of the stream, so the partially
    // assembled trace can never complete — segmentation restarts
    // fresh at the landing PC.
    segmenter_.squash();
    window_.clear();

    const InstCount start = core_.instsExecuted();
    run<false>(start + coreInsts);
    return core_.instsExecuted() - start;
}

void
TraceStream::save(mem::ByteWriter &w) const
{
    core_.save(w);
    w.put<std::uint32_t>(static_cast<std::uint32_t>(window_.size()));
    for (const DynInst &dyn : window_) {
        w.put(dyn.pc);
        saveInst(w, dyn.inst);
        w.put(dyn.nextPc);
        w.put(dyn.taken);
        w.put(dyn.effAddr);
    }
    segmenter_.save(w);
}

void
TraceStream::restore(mem::ByteReader &r)
{
    core_.restore(r);
    block_ = nullptr;
    window_.resize(r.get<std::uint32_t>());
    for (DynInst &dyn : window_) {
        // Braced initializers evaluate left to right.
        dyn = {r.get<Addr>(), restoreInst(r), r.get<Addr>(),
               r.get<bool>(), r.get<Addr>()};
    }
    segmenter_.restore(r);
    if (!recordWindows_) {
        window_.clear();
    } else if (window_.empty() && segmenter_.building()) {
        fatal("TraceStream::restore: a windowed stream cannot resume "
              "from a windowless mid-trace checkpoint");
    }
}

// ------------------------------------------------------------------
// FastFrontend

FastFrontend::FastFrontend(const Program &program,
                           const FastSimConfig &config)
    : config_(config),
      traceCache_(config.traceCacheEntries, config.traceCacheAssoc),
      icache_(config.icache),
      bimodal_(16 * 1024)
{
    if (config_.preconEnabled) {
        config_.precon.policy.selection = config_.selection;
        engine_ = std::make_unique<PreconstructionEngine>(
            program, icache_, bimodal_, traceCache_, config_.precon);
    }
}

void
FastFrontend::processTrace(Trace &trace)
{
    ++stats_.traces;
    stats_.instructions += trace.len();

    if (config_.trackTraceWorkingSet &&
        seenTraces_.insert(trace.id).second)
        ++stats_.traceWorkingSet;

    traceCache_.advanceTo(stats_.cycles);
    const Trace *stored = traceCache_.lookup(trace.id);
    const bool hit = stored != nullptr;
    bool pb_hit = false;
    if (!hit && engine_) {
        const Trace *buffered = engine_->lookupBuffer(trace.id);
        if (buffered) {
            // Copy the preconstructed trace into the trace cache
            // and free the buffer entry (Section 3.1). insert()
            // hands back the stored image directly, so the served
            // trace needs no second probe; servedAtInsert makes
            // the provenance ledger count the serve as the line's
            // first use (its latency is the engine's lead time).
            stored = traceCache_.insert(*buffered,
                                        /*servedAtInsert=*/true);
            engine_->consumeHit(trace.id);
            pb_hit = true;
        }
    }

    // The stored image must carry exactly the instructions the
    // architectural path demands.
    if (stored) {
        tpre_check_run(check::enforce(
            check::tracesMatch(trace, *stored),
            "FastSim trace-cache service"));
    }
    if (config_.hooks.onTrace)
        config_.hooks.onTrace(trace, stored ? *stored : trace,
                              stored != nullptr);

    // Train the slow-path branch predictor on the committed
    // outcomes and feed the dispatch-stream monitor, from the trace
    // body and before the body is donated to the trace cache below.
    // The commit events touch only bimodal_ and the engine's
    // dispatch state, which the icache/trace-cache section neither
    // reads nor writes, and follow the buffer probe above (the one
    // engine interaction that must precede them).
    for (const TraceInst &ti : trace.insts) {
        if (ti.inst.isCondBranch())
            bimodal_.update(ti.pc, ti.taken);
        // The dispatch monitor reads only pc/inst/taken, all
        // embedded in the trace: the stored outcome equals the
        // committed one for conditional branches, and the
        // start-point heuristics ignore it everywhere else.
        if (engine_)
            engine_->observeCommit(ti.pc, ti.inst, ti.taken);
    }

    Cycle trace_cycles = 0;
    bool slow_path_busy = false;

    if (hit || pb_hit) {
        // Dispatch takes one cycle; the backend drains the trace
        // at the assumed retire rate.
        trace_cycles = std::max<Cycle>(
            1, static_cast<Cycle>(trace.len() / config_.assumedIpc));
        if (hit)
            ++stats_.tcHits;
        else
            ++stats_.pbHits;
    } else {
        ++stats_.tcMisses;
        TPRE_TRACE_INSTANT("tcache", "miss", obs::Domain::Cycles,
                           stats_.cycles, trace.len());
        slow_path_busy = true;

        // Slow path: fetch the trace's instructions through the
        // I-cache at slowFetchWidth per cycle, stalling for L2 on
        // line misses, while the fill unit assembles the trace.
        const LineWalk walk = fetchTraceLines(icache_, trace);
        trace_cycles =
            (trace.len() + config_.slowFetchWidth - 1) /
                config_.slowFetchWidth +
            walk.missLatency;
        stats_.slowPathInstsFromMisses += walk.instsFromMisses;
        stats_.slowPathInsts += trace.len();
        TPRE_TRACE_COMPLETE("fill", "slow_build", obs::Domain::Cycles,
                            stats_.cycles, trace_cycles, trace.len());

        // The slow path finishes assembling the trace trace_cycles
        // from now; stamp that as the build cycle of this
        // frontend's copy.
        trace.buildCycle = stats_.cycles + trace_cycles;
        traceCache_.insert(trace);
    }

    stats_.cycles += trace_cycles;

    if (engine_)
        engine_->tick(trace_cycles, !slow_path_busy);
}

const FastSimStats &
FastFrontend::syncStats(const BlockCache &blocks)
{
    stats_.icache = icache_.stats();
    if (engine_)
        stats_.precon = engine_->stats();
    stats_.blocks = blocks.stats();
    stats_.provenance = traceCache_.provenance();
    stats_.attrib = traceCache_.attrib();
    return stats_;
}

const FastSimStats &
FastFrontend::finishRun(const BlockCache &blocks)
{
    syncStats(blocks);
    tpre_check_run(check::enforce(check::statsConserved(stats_),
                                  "FastSim end of run"));
    return stats_;
}

void
FastFrontend::save(mem::ByteWriter &w, mem::CheckpointKind kind) const
{
    bimodal_.save(w);
    if (kind != mem::CheckpointKind::Full)
        return;
    w.put(engine_ != nullptr);
    icache_.save(w);
    traceCache_.save(w);
    if (engine_)
        engine_->save(w);
    w.put(stats_);
    w.put<std::uint32_t>(static_cast<std::uint32_t>(seenTraces_.size()));
    for (const TraceId &id : seenTraces_)
        w.put(id);
}

void
FastFrontend::restore(mem::ByteReader &r, mem::CheckpointKind kind)
{
    bimodal_.restore(r);
    if (kind == mem::CheckpointKind::Functional) {
        // Functional forks inherit only the stream state; the
        // fork's own statistics start from zero (SMARTS-style
        // measurement of the post-warm-up interval).
        stats_ = FastSimStats();
        if (r.remaining() != 0) {
            fatal("FastSim::forkFrom: %zu trailing bytes in a "
                  "functional checkpoint", r.remaining());
        }
        return;
    }
    const bool hasEngine = r.get<bool>();
    if (hasEngine != (engine_ != nullptr)) {
        fatal("FastSim::forkFrom: checkpoint %s a preconstruction "
              "engine but this simulator %s one",
              hasEngine ? "has" : "lacks",
              engine_ ? "has" : "lacks");
    }
    icache_.restore(r);
    traceCache_.restore(r);
    if (engine_)
        engine_->restore(r);
    stats_ = r.get<FastSimStats>();
    seenTraces_.clear();
    const auto numSeen = r.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < numSeen; ++i)
        seenTraces_.insert(r.get<TraceId>());
    if (r.remaining() != 0) {
        fatal("FastSim::forkFrom: %zu trailing bytes in a full "
              "checkpoint", r.remaining());
    }
}

// ------------------------------------------------------------------
// FastSim

FastSim::FastSim(const Program &program, FastSimConfig config)
    : program_(program),
      stream_(program, config.selection,
              static_cast<bool>(config.hooks.onCommit)),
      frontend_(program, config)
{}

FastSim::~FastSim() = default;

void
FastSim::serve(Trace *trace)
{
    if (!trace)
        return;
    frontend_.processTrace(*trace);
    if (const auto &onCommit = frontend_.config().hooks.onCommit) {
        for (const DynInst &dyn : stream_.window())
            onCommit(dyn);
    }
}

const FastSimStats &
FastSim::run(InstCount maxInsts)
{
    while (frontend_.stats().instructions < maxInsts) {
        Trace *trace = stream_.next();
        if (!trace)
            break;
        serve(trace);
    }
    return frontend_.finishRun(stream_.blockCache());
}

const FastSimStats &
FastSim::runUntil(InstCount coreInsts)
{
    // No flush, no finishRun — the segmenter, commit window and
    // block cursor stay armed for checkpoint() or a later run().
    while (Trace *trace = stream_.next(coreInsts))
        serve(trace);
    return frontend_.stats();
}

const FastSimStats &
FastSim::replay(DynInstSource &source, InstCount maxInsts)
{
    // Mirror run()'s loop exactly — same segmentation, same trace
    // processing — with the recorded stream standing in for the
    // block loop.
    DynInst dyn;
    while (frontend_.stats().instructions < maxInsts &&
           source.next(dyn))
        serve(stream_.commit(dyn));
    serve(stream_.flush());
    return frontend_.finishRun(stream_.blockCache());
}

std::uint64_t
FastSim::configSignature(mem::CheckpointKind kind) const
{
    return signatureOf(program_, frontend_.config(), kind);
}

mem::Checkpoint
FastSim::checkpoint(mem::CheckpointKind kind) const
{
    // The stream state first, then the frontend's. Order matters
    // and is mirrored exactly by forkFrom().
    mem::ByteWriter w;
    stream_.save(w);
    frontend_.save(w, kind);
    mem::Checkpoint cp;
    cp.kind = kind;
    cp.configSig = configSignature(kind);
    cp.bytes = w.take();
    return cp;
}

void
FastSim::forkFrom(const mem::Checkpoint &checkpoint)
{
    if (stats().traces != 0 || stats().instructions != 0 ||
        instsExecuted() != 0) {
        fatal("FastSim::forkFrom: target simulator has already "
              "run; fork into a freshly constructed one");
    }
    checkSignature("FastSim::forkFrom", checkpoint,
                   configSignature(checkpoint.kind));
    mem::ByteReader r(checkpoint.bytes);
    stream_.restore(r);
    frontend_.restore(r, checkpoint.kind);
}

InstCount
FastSim::fastForward(InstCount coreInsts)
{
    return stream_.fastForward(coreInsts);
}

const FastSimStats &
FastSim::syncStats()
{
    return frontend_.syncStats(stream_.blockCache());
}

// ------------------------------------------------------------------
// Shared-stream groups

std::vector<FastSimStats>
runSharedStream(const Program &program,
                const std::vector<FastSimConfig> &configs,
                InstCount maxInsts, const mem::Checkpoint *fork)
{
    tpre_assert(!configs.empty(), "runSharedStream: no configs");
    const SelectionPolicy &selection = configs.front().selection;
    // A deque builds the frontends in place: each engine holds
    // references into its own frontend, so frontends never move.
    std::deque<FastFrontend> frontends;
    std::vector<FastFrontend *> served;
    for (const FastSimConfig &config : configs) {
        tpre_assert(!config.hooks.onCommit &&
                        config.selection.maxLen == selection.maxLen &&
                        config.selection.alignGranule ==
                            selection.alignGranule,
                    "runSharedStream: config cannot share the stream");
        served.push_back(&frontends.emplace_back(program, config));
    }

    TraceStream stream(program, selection, false);
    if (fork) {
        tpre_assert(fork->kind == mem::CheckpointKind::Functional,
                    "runSharedStream forks Functional checkpoints");
        checkSignature("runSharedStream", *fork,
                       signatureOf(program, configs.front(),
                                   fork->kind));
        // Every frontend restores the same predictor bytes that
        // follow the stream state.
        mem::ByteReader r(fork->bytes);
        stream.restore(r);
        for (FastFrontend &frontend : frontends) {
            mem::ByteReader own = r;
            frontend.restore(own, fork->kind);
        }
    }

    stream.runBlocks(served, maxInsts);
    std::vector<FastSimStats> stats;
    stats.reserve(frontends.size());
    for (FastFrontend &frontend : frontends)
        stats.push_back(frontend.finishRun(stream.blockCache()));
    return stats;
}

} // namespace tpre

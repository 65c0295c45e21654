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
      supply_(program, config.traceCacheEntries, config.traceCacheAssoc,
              config.icache, config.selection,
              config.preconEnabled ? &config.precon : nullptr, false)
{}

void
FastFrontend::processTrace(Trace &trace, bool partial)
{
    ++stats_.traces;
    stats_.instructions += trace.len();

    // A TraceId does not carry the length, so a partial trace can
    // name a longer stored one; it is decided before the probe,
    // which records a provenance use when it hits.
    const Trace *stored = nullptr;
    if (partial)
        ++stats_.tcMisses;
    else
        stored = supply_.probe(trace, stats_.cycles, stats_);

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

    // Training touches only the predictor and the engine's
    // dispatch state, which the slow path neither reads nor writes;
    // it must follow the buffer probe above.
    supply_.train(trace);

    Cycle trace_cycles;
    if (stored) {
        // Dispatch takes one cycle; the backend drains the trace
        // at the assumed retire rate.
        trace_cycles = std::max<Cycle>(
            1, static_cast<Cycle>(trace.len() / config_.assumedIpc));
    } else {
        // Slow path: the fill unit assembles the trace while the
        // I-cache supplies it.
        const SlowFetch fetch =
            supply_.slowFetch(trace, config_.slowFetchWidth, stats_);
        trace_cycles = fetch.cycles;
        stats_.slowPathInstsFromMisses += fetch.instsFromMisses;
        TPRE_TRACE_COMPLETE("fill", "slow_build", obs::Domain::Cycles,
                            stats_.cycles, trace_cycles, trace.len());

        // The slow path finishes assembling the trace trace_cycles
        // from now.
        supply_.fill(trace, stats_.cycles + trace_cycles);
    }

    stats_.cycles += trace_cycles;
    supply_.tick(trace_cycles, stored != nullptr);
}

const FastSimStats &
FastFrontend::syncStats(const BlockCache &blocks)
{
    supply_.syncStats(stats_);
    stats_.blocks = blocks.stats();
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
    supply_.save(w, kind);
    if (kind != mem::CheckpointKind::Full)
        return;
    w.put(stats_);
}

void
FastFrontend::restore(mem::ByteReader &r, mem::CheckpointKind kind)
{
    supply_.restore(r, kind);
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
    stats_ = r.get<FastSimStats>();
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
FastSim::serve(Trace *trace, bool partial)
{
    if (!trace)
        return;
    frontend_.processTrace(*trace, partial);
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
FastSim::replay(DynInstSource &source, InstCount maxInsts,
                bool *flushed)
{
    // Mirror run()'s loop exactly — same segmentation, same trace
    // processing — with the recorded stream standing in for the
    // block loop.
    DynInst dyn;
    while (frontend_.stats().instructions < maxInsts &&
           source.next(dyn))
        serve(stream_.commit(dyn));
    Trace *partial = stream_.flush();
    if (flushed)
        *flushed = partial != nullptr;
    serve(partial, true);
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
                InstCount maxInsts, const mem::Checkpoint *fork,
                InstCount *segmentedInsts)
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

    const InstCount coreStart = stream.core().instsExecuted();
    stream.runBlocks(served, maxInsts);
    if (segmentedInsts)
        *segmentedInsts = stream.core().instsExecuted() - coreStart;
    std::vector<FastSimStats> stats;
    stats.reserve(frontends.size());
    for (FastFrontend &frontend : frontends)
        stats.push_back(frontend.finishRun(stream.blockCache()));
    return stats;
}

} // namespace tpre

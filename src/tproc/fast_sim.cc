#include "tproc/fast_sim.hh"

#include <algorithm>
#include <cstring>

#include "check/check.hh"
#include "check/invariants.hh"
#include "check/stats_check.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "obs/obs.hh"

namespace tpre
{

FastSim::FastSim(const Program &program, FastSimConfig config)
    : program_(program), config_(config),
      core_(program),
      traceCache_(config.traceCacheEntries, config.traceCacheAssoc),
      icache_(config.icache),
      bimodal_(16 * 1024),
      segmenter_(config.selection)
{
    window_.reserve(maxTraceLen);
    if (config_.preconEnabled) {
        config_.precon.policy.selection = config_.selection;
        config_.precon.blockWalk = config_.blockCache;
        engine_ = std::make_unique<PreconstructionEngine>(
            program_, icache_, bimodal_, traceCache_,
            config_.precon);
    }
}

FastSim::~FastSim() = default;

void
FastSim::processTrace(const std::vector<DynInst> &window,
                      Trace &&trace, bool partial)
{
    tpre_check_run(check::enforce(
        check::traceWellFormed(trace, config_.selection, partial),
        "FastSim segmented trace"));

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

    // Block dispatch hands in an empty window: the commit-order
    // events normally derived from it are reconstructed from the
    // trace body instead, and must run before the body is donated
    // to the trace cache below. The scalar path trains after the
    // miss handling; hoisting is behaviour-identical because the
    // commit events touch only bimodal_ and the engine's dispatch
    // state, which the icache/trace-cache section neither reads nor
    // writes — while the buffer probe above (the one engine
    // interaction that must precede dispatch observation) has
    // already happened in both orders.
    if (window.empty() && engine_) {
        for (const TraceInst &ti : trace.insts) {
            if (ti.inst.isCondBranch())
                bimodal_.update(ti.pc, ti.taken);
            // The dispatch monitor reads only pc/inst/taken, all
            // embedded in the trace: stored_taken equals the
            // committed outcome for conditional branches, and the
            // start-point heuristics ignore it everywhere else.
            engine_->observeCommit(ti.pc, ti.inst, ti.taken);
        }
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
        trace_cycles =
            (trace.len() + config_.slowFetchWidth - 1) /
            config_.slowFetchWidth;
        Addr cur_line = invalidAddr;
        unsigned insts_on_line = 0;
        bool line_missed = false;
        for (const TraceInst &ti : trace.insts) {
            const Addr line = icache_.lineAddr(ti.pc);
            if (line != cur_line) {
                if (cur_line != invalidAddr && line_missed)
                    stats_.slowPathInstsFromMisses += insts_on_line;
                const ICache::AccessResult res =
                    icache_.fetchLine(line, false);
                if (!res.hit)
                    trace_cycles += res.latency;
                cur_line = line;
                line_missed = !res.hit;
                insts_on_line = 0;
            }
            ++insts_on_line;
        }
        if (cur_line != invalidAddr && line_missed)
            stats_.slowPathInstsFromMisses += insts_on_line;
        stats_.slowPathInsts += trace.len();
        TPRE_TRACE_COMPLETE("fill", "slow_build", obs::Domain::Cycles,
                            stats_.cycles, trace_cycles, trace.len());

        // Last use of the segmented trace: donate it to the cache
        // instead of copying. The slow path finishes assembling it
        // trace_cycles from now; stamp that as the build cycle.
        trace.buildCycle = stats_.cycles + trace_cycles;
        traceCache_.insert(std::move(trace));
    }

    stats_.cycles += trace_cycles;

    // Train the slow-path branch predictor on the committed
    // outcomes and feed the dispatch-stream monitor.
    for (const DynInst &dyn : window) {
        if (dyn.inst.isCondBranch())
            bimodal_.update(dyn.pc, dyn.taken);
        if (engine_)
            engine_->observeDispatch(dyn);
        if (config_.hooks.onCommit)
            config_.hooks.onCommit(dyn);
    }

    if (engine_)
        engine_->tick(trace_cycles, !slow_path_busy);
}

// Runs once per committed instruction of the scalar loops (every
// sampled detailed window goes through runUntil). GCC keeps it out
// of line on its own, which cost perfbench sampled_grid a few
// percent of its MIPS.
[[gnu::always_inline]] inline void
FastSim::commitScalar(const DynInst &dyn)
{
    window_.push_back(dyn);
    if (auto trace = segmenter_.feed(dyn)) {
        processTrace(window_, std::move(*trace), false);
        window_.clear();
    }
}

void
FastSim::flushPartial()
{
    if (auto trace = segmenter_.flush()) {
        processTrace(window_, std::move(*trace), true);
        window_.clear();
    }
}

const FastSimStats &
FastSim::run(InstCount maxInsts)
{
    // Block dispatch requires windowless trace processing: an armed
    // onCommit hook consumes full dynamic records (nextPc, effective
    // addresses) that bulk retirement never materializes, so its
    // presence forces the scalar loop.
    if (config_.blockCache && !config_.hooks.onCommit) {
        runBlocks(maxInsts);
        finishRun();
        return stats_;
    }

    // window_ is deliberately not cleared here: a forked run
    // resumes mid-trace with the restored commit prefix in place.
    while (!core_.halted() && stats_.instructions < maxInsts)
        commitScalar(core_.step());
    flushPartial();
    finishRun();
    return stats_;
}

const FastSimStats &
FastSim::runUntil(InstCount coreInsts)
{
    // Scalar loop only: the stop condition is an exact core
    // instruction count, which block retirement cannot honour
    // mid-chunk. No flush, no finishRun — the segmenter, commit
    // window and any partial block stay armed for checkpoint().
    while (!core_.halted() && core_.instsExecuted() < coreInsts)
        commitScalar(core_.step());
    return stats_;
}

void
FastSim::runBlocks(InstCount maxInsts)
{
    // Bit-identity with the scalar loop rests on two facts. First,
    // stats_.instructions only advances inside processTrace, so the
    // scalar loop can only exit at a trace completion (or at a halt,
    // which itself completes a trace); checking the budget after
    // each completion reproduces its exit points exactly, including
    // mid-block. Second, a straight-line body chunked to the
    // builder's roomLeft() hits no selection rule before the
    // chunk's last instruction, so feedRun() segments exactly as n
    // feed() calls would.
    if (!blocks_)
        blocks_ = std::make_unique<BlockCache>(program_);
    static const std::vector<DynInst> kNoWindow;

    while (!core_.halted() && stats_.instructions < maxInsts) {
        const DecodedBlock &block = blocks_->lookup(core_.pc());

        unsigned done = 0;
        while (done < block.bodyLen) {
            const unsigned chunk =
                std::min(block.bodyLen - done, segmenter_.roomLeft());
            const Addr pc = core_.pc();
            core_.execBody(block.insts + done, chunk);
            if (auto trace = segmenter_.feedRun(block.insts + done,
                                                pc, chunk)) {
                processTrace(kNoWindow, std::move(*trace), false);
                if (stats_.instructions >= maxInsts)
                    return;     // budget spill, possibly mid-block
            }
            done += chunk;
        }

        if (block.end == BlockEnd::Clipped)
            continue;
        // The terminator goes through the scalar core: control
        // transfers need the dynamic next-PC, the link-register
        // write, and the halt flag, with semantics guaranteed
        // identical by construction.
        const DynInst &dyn = core_.step();
        if (auto trace = segmenter_.feed(dyn))
            processTrace(kNoWindow, std::move(*trace), false);
    }

    // Unreachable while the loop only exits at trace boundaries;
    // kept so the two loops stay structurally parallel.
    if (auto trace = segmenter_.flush())
        processTrace(kNoWindow, std::move(*trace), true);
}

const FastSimStats &
FastSim::replay(DynInstSource &source, InstCount maxInsts)
{
    // Mirror run()'s loop exactly — same segmentation, same trace
    // processing — with the recorded stream standing in for the
    // functional core.
    DynInst dyn;
    while (stats_.instructions < maxInsts && source.next(dyn))
        commitScalar(dyn);
    flushPartial();
    finishRun();
    return stats_;
}

std::uint64_t
FastSim::configSignature(mem::CheckpointKind kind) const
{
    // Chain the fields through mix64 so any single-knob change
    // flips the signature. The stream signature covers exactly what
    // shapes the committed dynamic stream and its segmentation; the
    // full signature additionally covers every microarchitectural
    // knob a Full checkpoint embeds state for. Host-side knobs
    // (blockCache, hooks) are excluded on purpose.
    std::uint64_t sig = 0x7472'6163'6570'7265ULL; // "tracepre"
    const auto chain = [&sig](std::uint64_t v) {
        sig = mix64(sig ^ v);
    };
    chain(program_.entry());
    chain(program_.end());
    chain(config_.selection.maxLen);
    chain(config_.selection.alignGranule);
    if (kind == mem::CheckpointKind::Functional)
        return sig;

    chain(config_.traceCacheEntries);
    chain(config_.traceCacheAssoc);
    chain(config_.icache.geometry.sizeBytes);
    chain(config_.icache.geometry.assoc);
    chain(config_.icache.geometry.lineBytes);
    chain(config_.icache.hitLatency);
    chain(config_.icache.missLatency);
    chain(config_.slowFetchWidth);
    std::uint64_t ipc_bits;
    static_assert(sizeof(ipc_bits) == sizeof(config_.assumedIpc));
    std::memcpy(&ipc_bits, &config_.assumedIpc, sizeof(ipc_bits));
    chain(ipc_bits);
    chain(config_.preconEnabled);
    chain(config_.precon.bufferEntries);
    chain(config_.precon.bufferAssoc);
    chain(config_.precon.numConstructors);
    chain(config_.precon.numPrefetchCaches);
    chain(config_.precon.prefetchCacheInsts);
    chain(config_.precon.stackDepth);
    chain(config_.precon.completedSlots);
    chain(config_.precon.constructorInstsPerCycle);
    chain(config_.precon.maxOutstandingFetches);
    chain(config_.precon.warmRegionThreshold);
    chain(config_.precon.policy.worklistMax);
    chain(config_.precon.policy.decisionDepth);
    chain(config_.precon.policy.maxTracesPerStart);
    chain(config_.precon.policy.loopExitAlignSeeds);
    chain(config_.precon.policy.callStackDepth);
    chain(config_.trackTraceWorkingSet);
    return sig;
}

mem::Checkpoint
FastSim::checkpoint(mem::CheckpointKind kind) const
{
    mem::ByteWriter w;
    // Common prefix: the architectural stream state. Order matters
    // and is mirrored exactly by forkFrom().
    core_.save(w);
    w.put<std::uint32_t>(static_cast<std::uint32_t>(window_.size()));
    w.putBytes(window_.data(), window_.size() * sizeof(DynInst));
    segmenter_.save(w);
    bimodal_.save(w);
    if (kind == mem::CheckpointKind::Full) {
        w.put(engine_ != nullptr);
        icache_.save(w);
        traceCache_.save(w);
        if (engine_)
            engine_->save(w);
        w.put(stats_);
        w.put<std::uint32_t>(
            static_cast<std::uint32_t>(seenTraces_.size()));
        for (const TraceId &id : seenTraces_)
            w.put(id);
    }
    mem::Checkpoint cp;
    cp.kind = kind;
    cp.configSig = configSignature(kind);
    cp.bytes = w.take();
    return cp;
}

void
FastSim::forkFrom(const mem::Checkpoint &checkpoint)
{
    if (stats_.traces != 0 || stats_.instructions != 0 ||
        core_.instsExecuted() != 0) {
        fatal("FastSim::forkFrom: target simulator has already "
              "run; fork into a freshly constructed one");
    }
    if (checkpoint.configSig != configSignature(checkpoint.kind)) {
        fatal("FastSim::forkFrom: config signature %llx does not "
              "match the checkpoint's %llx",
              static_cast<unsigned long long>(
                  configSignature(checkpoint.kind)),
              static_cast<unsigned long long>(checkpoint.configSig));
    }
    mem::ByteReader r(checkpoint.bytes);
    core_.restore(r);
    window_.resize(r.get<std::uint32_t>());
    r.getBytes(window_.data(), window_.size() * sizeof(DynInst));
    segmenter_.restore(r);
    bimodal_.restore(r);
    if (checkpoint.kind == mem::CheckpointKind::Functional) {
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

InstCount
FastSim::fastForward(InstCount coreInsts)
{
    // Abandon the in-flight trace: the skipped instructions are a
    // gap in the frontend's view of the stream, so the partially
    // assembled trace can never complete — segmentation restarts
    // fresh at the landing PC.
    segmenter_.squash();
    window_.clear();

    const InstCount start = core_.instsExecuted();
    const InstCount target = start + coreInsts;
    if (!config_.blockCache) {
        core_.skip(coreInsts);
        return core_.instsExecuted() - start;
    }

    if (!blocks_)
        blocks_ = std::make_unique<BlockCache>(program_);
    while (!core_.halted() && core_.instsExecuted() < target) {
        const DecodedBlock &block = blocks_->lookup(core_.pc());
        const InstCount room = target - core_.instsExecuted();
        const unsigned body = static_cast<unsigned>(
            std::min<InstCount>(block.bodyLen, room));
        if (body)
            core_.execBody(block.insts, body);
        if (body < block.bodyLen)
            break;      // budget hit mid-body
        if (block.end == BlockEnd::Clipped ||
            core_.instsExecuted() >= target) {
            continue;   // chain into the next block, or done
        }
        // Terminators need the scalar core: the dynamic next-PC,
        // link-register write and halt flag.
        core_.step();
    }
    return core_.instsExecuted() - start;
}

const FastSimStats &
FastSim::syncStats()
{
    stats_.icache = icache_.stats();
    if (engine_)
        stats_.precon = engine_->stats();
    if (blocks_)
        stats_.blocks = blocks_->stats();
    stats_.provenance = traceCache_.provenance();
    stats_.attrib = traceCache_.attrib();
    return stats_;
}

void
FastSim::finishRun()
{
    syncStats();
    tpre_check_run(check::enforce(check::statsConserved(stats_),
                                  "FastSim end of run"));
}

} // namespace tpre

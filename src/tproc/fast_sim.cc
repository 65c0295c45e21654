#include "tproc/fast_sim.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <deque>
#include <exception>
#include <optional>
#include <thread>

#include "check/check.hh"
#include "check/invariants.hh"
#include "check/stats_check.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "obs/obs.hh"
#include "par/thread_pool.hh"

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

/** Where a segmented trace's violation is reported. */
constexpr const char *kSegmentedTrace = "segmented trace";

/** The per-trace check every segmented trace passes, once; never a
 *  violation in a build without TPRE_CHECK. */
check::Violation
segmentViolation([[maybe_unused]] const Trace &trace,
                 [[maybe_unused]] const SelectionPolicy &selection,
                 [[maybe_unused]] bool partial)
{
#if TPRE_CHECK
    return check::traceWellFormed(trace, selection, partial);
#else
    return std::nullopt;
#endif
}

/**
 * Whether a stream may run on a helper thread: only when the
 * caller leaves a hardware thread idle. A ThreadPool worker does
 * not, since a sweep's pool already has a worker per hardware
 * thread, and neither does a process with one hardware thread,
 * where the helper would take turns with its consumer.
 */
bool
helperThreadIdle()
{
    return !par::onPoolWorker() && par::usableHardwareThreads() > 1;
}

/**
 * The bounded buffer between a stream run on a helper thread and
 * the frontends on the calling thread (DESIGN.md section 5): a
 * single-producer, single-consumer ring of checked traces and
 * schedule marks. Each side hands slots over in batches, so the
 * other side's counter moves once per batch, and hands over what
 * it holds back before it waits, so neither side waits on slots
 * the other has not passed on. A wait spins briefly, then sleeps
 * on the counter.
 */
class TraceRing
{
  public:
    /** A trace and its check, or a mark. */
    struct Slot
    {
        Trace trace;
        /** The trace's check, enforced where it is served. */
        check::Violation violation;
        /** Set: the slot is this mark, not a trace. */
        std::optional<StreamMark> mark;
    };

    // Producer side.
    /** The next free slot; null once the consumer has cancelled. */
    Slot *
    claim()
    {
        while (written_ - (tailSeen_ >> 1) == kSlots) {
            if (tailSeen_ & 1)
                return nullptr;
            publish();
            tailSeen_ = waitPast(tail_, tailSeen_);
        }
        return &slots_[written_ % kSlots];
    }
    /** Hand the claimed slot over, with its batch. */
    void
    push()
    {
        if (++written_ - published_ == kBatch)
            publish();
    }
    /** Hand every pushed slot over now. */
    void
    publish()
    {
        if (published_ == written_)
            return;
        published_ = written_;
        head_.store(published_ << 1, std::memory_order_release);
        head_.notify_one();
    }
    /** Hand every slot over and mark the end of the stream. */
    void
    close()
    {
        head_.store(written_ << 1 | 1, std::memory_order_release);
        head_.notify_one();
    }

    // Consumer side.
    /** The oldest filled slot; null at the end of the stream. */
    Slot *
    front()
    {
        while (read_ == headSeen_ >> 1) {
            if (headSeen_ & 1)
                return nullptr;
            release();
            headSeen_ = waitPast(head_, headSeen_);
        }
        return &slots_[read_ % kSlots];
    }
    /** Give the slot front() returned back, with its batch. */
    void
    pop()
    {
        if (++read_ - released_ == kBatch)
            release();
    }
    /** Make every later claim() return null. */
    void
    cancel()
    {
        tail_.store(read_ << 1 | 1, std::memory_order_release);
        tail_.notify_one();
    }

  private:
    static constexpr std::uint64_t kSlots = 1024;
    static constexpr std::uint64_t kBatch = 32;
    /** Loads before a wait sleeps: enough to bridge the usual gap
     *  between two batches without a system call. */
    static constexpr int kSpins = 4096;

    void
    release()
    {
        if (released_ == read_)
            return;
        released_ = read_;
        tail_.store(released_ << 1, std::memory_order_release);
        tail_.notify_one();
    }

    /** Wait until @p word no longer holds @p seen; its new value. */
    static std::uint64_t
    waitPast(const std::atomic<std::uint64_t> &word, std::uint64_t seen)
    {
        for (int i = 0; i < kSpins; ++i) {
            const std::uint64_t now =
                word.load(std::memory_order_acquire);
            if (now != seen)
                return now;
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();
#endif
        }
        word.wait(seen, std::memory_order_acquire);
        return word.load(std::memory_order_acquire);
    }

    std::array<Slot, kSlots> slots_;
    // Each counter is twice the slots handed over, plus a flag: the
    // stream ended (head_) or the consumer cancelled (tail_).
    alignas(64) std::atomic<std::uint64_t> head_{0};
    alignas(64) std::atomic<std::uint64_t> tail_{0};
    // The producer's own counts.
    alignas(64) std::uint64_t written_ = 0;
    std::uint64_t published_ = 0;
    std::uint64_t tailSeen_ = 0;
    // The consumer's own counts.
    alignas(64) std::uint64_t read_ = 0;
    std::uint64_t released_ = 0;
    std::uint64_t headSeen_ = 0;
};

/**
 * Claim a slot for @p trace and hand it over with its check; false
 * once the producer must stop: the consumer cancelled, or the trace
 * failed its check (the consumer enforces it when it gets there).
 */
bool
pushTrace(TraceRing &ring, const Trace &trace,
          const SelectionPolicy &selection)
{
    TraceRing::Slot *slot = ring.claim();
    if (!slot)
        return false;
    slot->trace = trace;
    slot->violation = segmentViolation(trace, selection, false);
    slot->mark.reset();
    const bool failed = slot->violation.has_value();
    ring.push();
    return !failed;
}

/**
 * Run @p produce, which fills a TraceRing, on a helper thread while
 * the calling thread hands each slot to @p consume, in order; a
 * trace's check is enforced before @p consume sees it. The helper
 * is joined on every exit, an exception from @p consume included,
 * which cancels the ring first; an exception on the helper is
 * rethrown here.
 */
template <typename Produce, typename Consume>
void
pipeline(Produce &&produce, Consume &&consume)
{
    const auto ring = std::make_unique<TraceRing>();
    std::exception_ptr failure;
    std::thread helper([&] {
        try {
            produce(*ring);
        } catch (...) {
            failure = std::current_exception();
        }
        ring->close();
    });
    struct Joiner
    {
        TraceRing &ring;
        std::thread &helper;
        ~Joiner()
        {
            ring.cancel();
            helper.join();
        }
    };
    {
        const Joiner joiner{*ring, helper};
        while (TraceRing::Slot *slot = ring->front()) {
            if (!slot->mark)
                check::enforce(slot->violation, kSegmentedTrace);
            consume(*slot);
            ring->pop();
        }
    }
    if (failure)
        std::rethrow_exception(failure);
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
TraceStream::closeWindow()
{
    completed_.swap(window_);
    window_.clear();
}

void
TraceStream::checkTrace([[maybe_unused]] const Trace &trace,
                        [[maybe_unused]] bool partial) const
{
    tpre_check_run(check::enforce(
        segmentViolation(trace, segmenter_.policy(), partial),
        kSegmentedTrace));
}

Trace *
TraceStream::flush()
{
    Trace *trace = segmenter_.flush();
    if (trace) {
        closeWindow();
        checkTrace(*trace, true);
    }
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
                    closeWindow();
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
            if (Trace *trace = segment(core_.step()))
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
    Trace *trace = run<true>(coreLimit);
    if (trace)
        checkTrace(*trace, false);
    return trace;
}

void
TraceStream::runBlocks(std::span<FastFrontend *const> frontends,
                       InstCount maxInsts)
{
    // A frontend's instruction count only advances inside
    // processTrace, so the budget is checked after each trace.
    const FastSimStats &lead = frontends.front()->stats();
    if (!helperThreadIdle()) {
        while (lead.instructions < maxInsts) {
            Trace *trace = next();
            if (!trace)
                return;
            for (FastFrontend *frontend : frontends)
                frontend->processTrace(*trace);
        }
        return;
    }

    // The helper stops where the loop above stops: the lead's count
    // after a trace is its count before the run plus the lengths of
    // the traces served so far. It stops early only after a trace
    // that fails its check, which the calling thread then enforces.
    pipeline(
        [&, served = lead.instructions](TraceRing &ring) mutable {
            while (served < maxInsts) {
                Trace *trace = run<true>(noLimit);
                if (!trace ||
                    !pushTrace(ring, *trace, segmenter_.policy()))
                    return;
                served += trace->len();
            }
        },
        [&](TraceRing::Slot &slot) {
            for (FastFrontend *frontend : frontends)
                frontend->processTrace(slot.trace);
        });
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
FastFrontend::syncSupplyStats()
{
    supply_.syncStats(stats_);
    return stats_;
}

const FastSimStats &
FastFrontend::syncStats(const BlockCache &blocks)
{
    syncSupplyStats();
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

void
FastSim::runScheduled(const std::function<void(StreamSteps &)> &schedule,
                      const MarkSink &onMark)
{
    // Inline: each step serves its traces as it cuts them, and
    // each mark reaches onMark at once.
    class InlineSteps final : public StreamSteps
    {
      public:
        InlineSteps(FastSim &sim, const MarkSink &onMark)
            : StreamSteps(sim.stream_), sim_(sim), onMark_(onMark)
        {}
        void
        detailed(InstCount coreInsts, unsigned tag) override
        {
            sim_.runUntil(coreInsts);
            mark(tag);
        }
        void
        mark(unsigned tag) override
        {
            onMark_({tag, instsExecuted()},
                    sim_.frontend_.syncSupplyStats());
        }

      private:
        FastSim &sim_;
        const MarkSink &onMark_;
    };
    if (frontend_.config().hooks.onCommit || !helperThreadIdle()) {
        InlineSteps steps(*this, onMark);
        schedule(steps);
        return;
    }

    // Pipelined: each step hands its traces and its mark over
    // through the ring, and publishes the mark at once, so the
    // frontend can finish a window while the helper skips on.
    struct Stopped
    {};
    class RingSteps final : public StreamSteps
    {
      public:
        RingSteps(TraceStream &stream, TraceRing &ring)
            : StreamSteps(stream), ring_(ring)
        {}
        void
        detailed(InstCount coreInsts, unsigned tag) override
        {
            while (Trace *trace = stream_.run<true>(coreInsts)) {
                if (!pushTrace(ring_, *trace,
                               stream_.segmenter_.policy()))
                    throw Stopped{};
            }
            mark(tag);
        }
        void
        mark(unsigned tag) override
        {
            TraceRing::Slot *slot = ring_.claim();
            if (!slot)
                throw Stopped{};
            slot->mark = StreamMark{tag, instsExecuted()};
            ring_.push();
            ring_.publish();
        }

      private:
        TraceRing &ring_;
    };
    pipeline(
        [&](TraceRing &ring) {
            RingSteps steps(stream_, ring);
            try {
                schedule(steps);
            } catch (const Stopped &) {
            }
        },
        [&](TraceRing::Slot &slot) {
            if (slot.mark)
                onMark(*slot.mark, frontend_.syncSupplyStats());
            else
                frontend_.processTrace(slot.trace);
        });
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

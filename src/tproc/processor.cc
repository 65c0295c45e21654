#include "tproc/processor.hh"

#include <algorithm>

#include "check/check.hh"
#include "check/invariants.hh"
#include "check/stats_check.hh"
#include "common/logging.hh"
#include "obs/obs.hh"

namespace tpre
{

TraceProcessor::TraceProcessor(const Program &program,
                               ProcessorConfig config)
    : config_(config), stream_(program, config.selection, true),
      supply_(program, config.traceCacheEntries, config.traceCacheAssoc,
              config.icache, config.selection,
              config.preconEnabled ? &config.precon : nullptr,
              config.prepEnabled),
      ntp_(config.ntp), backend_(config.backend)
{}

TraceProcessor::~TraceProcessor() = default;

void
TraceProcessor::advanceOracle()
{
    // A halt ends its trace (selection rule 1), so a halted stream
    // holds no partial trace to flush.
    while (!oracle_.full()) {
        Trace *trace = stream_.next();
        if (!trace)
            return;
        PendingTrace &pending = oracle_.back();
        pending.trace = std::move(*trace);
        // Take the trace's commit window; the stream reuses the
        // slot's old storage.
        std::swap(pending.window, stream_.window());
        oracle_.push();
    }
}

void
TraceProcessor::commitCompleted()
{
    while (!backend_.empty()) {
        const Cycle done = backend_.headCompletionTime();
        if (done == TimingBackend::noCompletion || done > now_)
            break;
        tpre_assert(!dispatchedLens_.empty());
        stats_.instructions += dispatchedLens_.front();
        dispatchedLens_.pop_front();
        backend_.retireHead();
    }
}

Cycle
TraceProcessor::slowFetch(const PendingTrace &pending)
{
    Cycle cycles =
        supply_.slowFetch(pending.trace, config_.slowFetchWidth, stats_)
            .cycles;

    // Conventional prediction drives the slow path: bimodal for
    // conditional branches, RAS for returns, BTB for other
    // indirect jumps. Each wrong prediction stalls fetch.
    for (const DynInst &dyn : pending.window) {
        bool wrong = false;
        if (dyn.inst.isCondBranch()) {
            wrong = supply_.bimodal().predict(dyn.pc) != dyn.taken;
        } else if (dyn.inst.isReturn()) {
            wrong = ras_.pop() != dyn.nextPc;
        } else if (dyn.inst.isIndirectJump()) {
            wrong = btb_.predict(dyn.pc) != dyn.nextPc;
            btb_.update(dyn.pc, dyn.nextPc);
        }
        if (wrong) {
            cycles += config_.slowMispredictPenalty;
            ++stats_.slowMispredicts;
        }
        if (dyn.inst.isCall())
            ras_.push(Instruction::fallThrough(dyn.pc));
    }
    tpre_check_run(check::enforce(check::rasWellFormed(ras_),
                                  "TraceProcessor slow-path RAS"));
    return cycles;
}

void
TraceProcessor::doLookup()
{
    tpre_assert(!oracle_.empty());
    syncEngine(now_ - 1);
    PendingTrace &front = oracle_.front();
    const Trace *stored = supply_.probe(front.trace, now_, stats_);

    const bool knows_target =
        predValidForFront_ || afterResolve_;

    if (stored && knows_target) {
        dispatchTrace_ = *stored;
        fetchReadyAt_ = now_ + 1;
        fetchWasSlow_ = false;
    } else {
        // Slow path: no usable prediction, or the trace cache
        // cannot supply the trace.
        const Cycle cost = slowFetch(front);
        fetchReadyAt_ = now_ + cost;
        slowBusyUntil_ = std::max(slowBusyUntil_, fetchReadyAt_);
        fetchWasSlow_ = true;
        dispatchTrace_ = front.trace;
        // The fill unit finishes assembling the line when the slow
        // fetch completes.
        if (!stored)
            supply_.fill(front.trace, fetchReadyAt_);
    }
    afterResolve_ = false;
    fetchState_ = FetchState::WaitReady;
}

void
TraceProcessor::dispatchFront()
{
    tpre_assert(!oracle_.empty());
    syncEngine(now_ - 1);
    // Nothing is queued before this function returns, so the popped
    // slot stays intact throughout.
    const PendingTrace &front = oracle_.pop();

    const std::uint64_t handle =
        backend_.dispatch(dispatchTrace_, front.window, now_);
    dispatchedLens_.push_back(front.trace.len());
    ++stats_.traces;

    // The dispatched image must carry the instructions the oracle
    // demands (preprocessed images are compared by identity only).
    tpre_check_run(check::enforce(
        check::tracesMatch(front.trace, dispatchTrace_),
        "TraceProcessor dispatch"));
    if (config_.hooks.onTrace)
        config_.hooks.onTrace(front.trace, dispatchTrace_,
                              !fetchWasSlow_);

    // Train the slow-path structures and feed the dispatch-stream
    // monitor with the dispatched instructions.
    supply_.train(front.trace);
    if (config_.hooks.onCommit) {
        for (const DynInst &dyn : front.window)
            config_.hooks.onCommit(dyn);
    }

    // Misprediction discovered inside this trace: the next fetch
    // stalls until the divergent branch resolves. armResolveIdx_
    // indexes the *original* trace; map it into the dispatched
    // (possibly preprocessed) trace via srcPos.
    if (armResolveAfterDispatch_) {
        fetchState_ = FetchState::WaitResolve;
        resolveHandle_ = handle;
        unsigned idx = dispatchTrace_.len() - 1;
        for (unsigned i = 0; i < dispatchTrace_.len(); ++i) {
            if (dispatchTrace_.insts[i].srcPos == armResolveIdx_) {
                idx = i;
                break;
            }
        }
        resolveIdx_ = idx;
        armResolveAfterDispatch_ = false;
    } else {
        fetchState_ = FetchState::Lookup;
    }

    // Advance the next-trace predictor with the actual trace and
    // predict the successor.
    ntp_.advance(front.trace.id, front.trace.containsCall(),
                 front.trace.endsInReturn());
    predValidForFront_ = false;

    if (oracle_.empty())
        return;
    const TraceId &next_id = oracle_.front().trace.id;
    const TraceId pred = ntp_.predict();

    if (!pred.valid()) {
        ++stats_.ntpNone;
    } else if (pred == next_id) {
        ++stats_.ntpCorrect;
        predValidForFront_ = true;
    } else {
        ++stats_.ntpWrong;
        TPRE_TRACE_INSTANT("ntp", "mispredict", obs::Domain::Cycles,
                           now_);
        if (pred.startPc == next_id.startPc &&
            fetchState_ != FetchState::WaitResolve) {
            // Outcome mismatch: the shared prefix dispatches; the
            // divergence resolves at the first differing branch.
            unsigned branch_index = 0;
            const std::uint16_t diff =
                pred.branchFlags ^ next_id.branchFlags;
            while (branch_index < 15 &&
                   !((diff >> branch_index) & 1)) {
                ++branch_index;
            }
            // Map branch ordinal to instruction position.
            unsigned idx = oracle_.front().trace.len() - 1;
            unsigned seen = 0;
            const auto &insts = oracle_.front().trace.insts;
            for (unsigned i = 0; i < insts.size(); ++i) {
                if (insts[i].inst.isCondBranch()) {
                    if (seen == branch_index) {
                        idx = i;
                        break;
                    }
                    ++seen;
                }
            }
            // The prefix (and prediction timing) behaves like a
            // hit; the resolve is armed for after its dispatch.
            predValidForFront_ = true;
            armResolveAfterDispatch_ = true;
            armResolveIdx_ = idx;
        } else if (fetchState_ != FetchState::WaitResolve) {
            // Start mismatch: discovered when the just-dispatched
            // trace's last instruction resolves.
            fetchState_ = FetchState::WaitResolve;
            resolveHandle_ = handle;
            resolveIdx_ = dispatchTrace_.len() - 1;
        }
    }
}

void
TraceProcessor::fetchAndDispatch()
{
    if (oracle_.empty())
        return;

    if (fetchState_ == FetchState::WaitResolve) {
        const Cycle done =
            backend_.completionOf(resolveHandle_, resolveIdx_);
        if (done == TimingBackend::noCompletion ||
            now_ < done + config_.redirectPenalty) {
            return;
        }
        afterResolve_ = true;
        fetchState_ = FetchState::Lookup;
    }

    if (fetchState_ == FetchState::Lookup)
        doLookup();

    if (fetchState_ == FetchState::WaitReady &&
        now_ >= fetchReadyAt_ && backend_.hasFreePe()) {
        dispatchFront();
        // Chain the next lookup in the dispatch cycle so hits
        // sustain one trace per cycle.
        if (fetchState_ == FetchState::Lookup && !oracle_.empty())
            doLookup();
    }
}

Cycle
TraceProcessor::nextCycle() const
{
    Cycle next = backend_.nextEvent(now_);
    if (!oracle_.empty()) {
        switch (fetchState_) {
          case FetchState::Lookup:
            return now_ + 1;
          case FetchState::WaitReady:
            // With every PE busy, dispatch waits for a retirement,
            // which is a backend event.
            if (backend_.hasFreePe())
                next = std::min(next, std::max(fetchReadyAt_, now_ + 1));
            break;
          case FetchState::WaitResolve: {
            // An unissued resolving instruction issues at a backend
            // event; after that its completion is known.
            const Cycle done =
                backend_.completionOf(resolveHandle_, resolveIdx_);
            if (done != TimingBackend::noCompletion) {
                next = std::min(
                    next,
                    std::max(done + config_.redirectPenalty, now_ + 1));
            }
            break;
          }
        }
    }
    return next == TimingBackend::noCompletion ? now_ + 1 : next;
}

void
TraceProcessor::syncEngine(Cycle upTo)
{
    if (!supply_.engine() || upTo <= engineNow_)
        return;
    // The I-cache port is free for the engine in cycle c iff
    // c >= slowBusyUntil_, which only doLookup() moves, after a
    // sync: split the span there so every cycle sees the flag the
    // cycle-by-cycle loop gave it.
    if (engineNow_ + 1 < slowBusyUntil_) {
        const Cycle busy_end = std::min(upTo, slowBusyUntil_ - 1);
        supply_.tick(busy_end - engineNow_, false);
        engineNow_ = busy_end;
    }
    if (upTo > engineNow_) {
        supply_.tick(upTo - engineNow_, true);
        engineNow_ = upTo;
    }
}

const ProcessorStats &
TraceProcessor::run(InstCount maxInsts)
{
    advanceOracle();
    while (stats_.instructions < maxInsts &&
           (!oracle_.empty() || !backend_.empty())) {
        // Jump to the next cycle in which the backend, commit or
        // fetch can act; the cycles in between are no-ops. The jump
        // is taken only after the loop condition, so the run never
        // moves past the cycle of its final commit.
        now_ = nextCycle();
        backend_.tick(now_);
        commitCompleted();
        fetchAndDispatch();
        advanceOracle();
    }
    syncEngine(now_);
    stats_.cycles = now_;
    supply_.syncStats(stats_);
    stats_.backend = backend_.stats();
    if (supply_.prep())
        stats_.prep = supply_.prep()->stats();
    tpre_check_run(check::enforce(check::statsConserved(stats_),
                                  "TraceProcessor end of run"));
    return stats_;
}

} // namespace tpre

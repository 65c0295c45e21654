#include "precon/engine.hh"

#include <algorithm>

#include "check/check.hh"
#include "check/invariants.hh"
#include "common/logging.hh"
#include "obs/obs.hh"

namespace tpre
{

namespace
{

/** Signature bit of an address (mirrors StartPointStack's). */
std::uint64_t
addrSigBit(Addr addr)
{
    return std::uint64_t(1) << ((addr / instBytes) & 63);
}

} // namespace

PreconstructionEngine::PreconstructionEngine(
    const Program &program, ICache &icache,
    const BimodalPredictor &bimodal, const TraceCache &traceCache,
    PreconConfig config)
    : program_(program), icache_(icache), bimodal_(bimodal),
      traceCache_(traceCache), config_(config),
      buffers_(config.bufferEntries, config.bufferAssoc),
      stack_(config.stackDepth, config.completedSlots)
{
    tpre_assert(config_.numConstructors >= 1);
    tpre_assert(config_.numPrefetchCaches >= 1);
    constructors_.reserve(config_.numConstructors);
    for (unsigned i = 0; i < config_.numConstructors; ++i)
        constructors_.emplace_back(program_, bimodal_,
                                   config_.policy);
}

PreconstructionEngine::~PreconstructionEngine() = default;

const Trace *
PreconstructionEngine::lookupBuffer(const TraceId &id)
{
    const Trace *trace = buffers_.lookup(id);
    TPRE_OBS_COUNT("pb.probes");
    if (trace) {
        ++stats_.bufferHits;
        TPRE_OBS_COUNT("pb.hits");
    }
    return trace;
}

void
PreconstructionEngine::consumeHit(const TraceId &id)
{
    buffers_.invalidate(id);
}

void
PreconstructionEngine::observeCommit(Addr pc,
                                     const Instruction &inst,
                                     bool taken)
{
    // Catch-up detection: the processor reached the start of an
    // active region, so further preconstruction there is pointless
    // (any traces already buffered stay useful).
    if (regionSig_ & addrSigBit(pc)) {
        for (auto &region : regions_) {
            if (region->state() == RegionState::Active &&
                pc == region->startAddr()) {
                terminateRegion(*region, RegionEndReason::CaughtUp);
            }
        }
    }
    stack_.removeReached(pc);

    // New start points: the return point of a call, or the
    // fall-through (loop exit) of a taken backward branch.
    Addr candidate = invalidAddr;
    StartPointKind kind = StartPointKind::CallReturn;
    if (inst.isCall()) {
        candidate = Instruction::fallThrough(pc);
        kind = StartPointKind::CallReturn;
    } else if (inst.isBackwardBranch() && taken) {
        candidate = Instruction::fallThrough(pc);
        kind = StartPointKind::LoopExit;
    }
    if (candidate == invalidAddr)
        return;

    // Skip regions already being preconstructed.
    if (regionSig_ & addrSigBit(candidate)) {
        for (const auto &region : regions_) {
            if (region->state() == RegionState::Active &&
                region->startAddr() == candidate) {
                return;
            }
        }
    }
    if (stack_.push(candidate, kind)) {
        ++stats_.startPointsPushed;
        TPRE_OBS_COUNT("precon.start_points");
        TPRE_OBS_HIST("precon.stack_depth", stack_.size());
        TPRE_TRACE_COUNTER("precon", "stack_depth",
                           obs::Domain::Cycles, now_, stack_.size());
    }
}

void
PreconstructionEngine::observeMisspeculation(
    const std::vector<Addr> &addrs)
{
    stack_.removeMisspeculated(addrs);
}

bool
PreconstructionEngine::emitTrace(Region &region, Trace &trace)
{
    tpre_check_run(check::enforce(
        check::traceWellFormed(trace, config_.policy.selection),
        "PreconstructionEngine emitTrace"));

    ++stats_.tracesConstructed;
    ++region.tracesEmitted;
    TPRE_OBS_COUNT("precon.traces_constructed");
    // Provenance stamp: this trace exists because the engine built
    // it ahead of demand, at this engine cycle. The stamp survives
    // buffering, promotion into the trace cache and preprocessing,
    // so the cache can attribute the line's eventual outcome.
    trace.origin = TraceOrigin::Precon;
    trace.buildCycle = now_;
    // Avoid redundancy with the primary trace cache (Section 3.1).
    if (traceCache_.contains(trace.id)) {
        ++stats_.tracesAlreadyInTc;
        if (region.tracesEmitted == region.leadingWarmTraces + 1)
            ++region.leadingWarmTraces;
        if (config_.warmRegionThreshold &&
            region.leadingWarmTraces >= config_.warmRegionThreshold)
            terminateRegion(region, RegionEndReason::Warm);
        return true;
    }
    const TraceId id = trace.id;
    if (!buffers_.insert(trace, region.seq()))
        return false;
    ++stats_.tracesBuffered;
    TPRE_OBS_COUNT("precon.traces_buffered");
    if (diagLog_)
        bufferedLog_.push_back(id);
    return true;
}

std::vector<TraceId>
PreconstructionEngine::drainBufferedLog()
{
    std::vector<TraceId> out = std::move(bufferedLog_);
    bufferedLog_.clear();
    return out;
}

void
PreconstructionEngine::terminateRegion(Region &region,
                                       RegionEndReason reason)
{
    if (region.state() == RegionState::Done)
        return;
    region.finish(reason);
}

void
PreconstructionEngine::completeFetches()
{
    if (pendingFetchCount_ == 0 || now_ < nextFetchReady_)
        return;
    Cycle next = ~static_cast<Cycle>(0);
    for (auto &region : regions_) {
        auto &pending = region->pendingFetches;
        for (std::size_t i = 0; i < pending.size();) {
            if (now_ < pending[i].readyAt) {
                next = std::min(next, pending[i].readyAt);
                ++i;
                continue;
            }
            const Addr line = pending[i].line;
            pending.erase(pending.begin() + i);
            --pendingFetchCount_;
            if (region->state() != RegionState::Active)
                continue;
            if (!region->prefetch().insertLine(line))
                terminateRegion(*region,
                                RegionEndReason::PrefetchFull);
            std::erase(region->neededLines, line);
        }
    }
    nextFetchReady_ = next;
}

bool
PreconstructionEngine::issueFetch()
{
    // One spare I-cache port (one access per idle cycle); the
    // cache is non-blocking, so a region may have several fills
    // outstanding. Newest region first.
    Region *chosen = nullptr;
    Addr chosen_line = invalidAddr;
    for (auto &region : regions_) {
        if (region->state() != RegionState::Active ||
            region->pendingFetches.size() >=
                config_.maxOutstandingFetches) {
            continue;
        }
        if (chosen && region->seq() <= chosen->seq())
            continue;
        for (Addr line : region->neededLines) {
            if (!region->hasPending(line)) {
                chosen = region.get();
                chosen_line = line;
                break;
            }
        }
    }
    if (!chosen)
        return false;

    const ICache::AccessResult res =
        icache_.fetchLine(chosen_line, true);
    ++stats_.linesFetched;
    TPRE_OBS_COUNT("precon.lines_fetched");
    chosen->pendingFetches.push_back(
        {chosen_line, now_ + res.latency});
    if (pendingFetchCount_++ == 0)
        nextFetchReady_ = now_ + res.latency;
    else
        nextFetchReady_ = std::min(nextFetchReady_,
                                   now_ + res.latency);
    return true;
}

bool
PreconstructionEngine::assignConstructors()
{
    // Highest-priority (newest) region with pending work. The scan
    // result is reused across constructors: assign() only drains
    // the chosen region's worklist, so while that region stays
    // active and non-empty a rescan would pick it again.
    Region *chosen = nullptr;
    bool assigned = false;
    for (auto &constructor : constructors_) {
        if (!constructor.idle())
            continue;
        if (chosen && (chosen->state() != RegionState::Active ||
                       chosen->worklistEmpty())) {
            chosen = nullptr;
        }
        if (!chosen) {
            for (auto &region : regions_) {
                if (region->state() == RegionState::Active &&
                    !region->worklistEmpty() &&
                    (!chosen || region->seq() > chosen->seq())) {
                    chosen = region.get();
                }
            }
            if (!chosen)
                return assigned;
        }
        constructor.assign(*chosen, chosen->takeStartPoint());
        assigned = true;
    }
    return assigned;
}

bool
PreconstructionEngine::retireRegions()
{
    // Single pass: work-exhaustion detection, then the reap of any
    // finished region in the same iteration (a region terminated by
    // the first check is immediately reapable, exactly as when
    // these were two sequential loops). The erase pass below runs
    // only when this one saw a removable region.
    bool removable = false;
    bool changed = false;
    for (auto &region : regions_) {
        if (region->state() == RegionState::Active &&
            region->worklistEmpty() && region->workers == 0 &&
            region->pendingFetches.empty()) {
            terminateRegion(*region, RegionEndReason::Completed);
            changed = true;
        }
        // Reap every finished region exactly once: detach any
        // constructors still pointed at it (a region can be
        // finished from within a constructor), remember it as
        // recently completed, and account for the termination
        // reason.
        if (region->state() != RegionState::Done || region->reaped) {
            removable |= region->state() == RegionState::Done &&
                         region->pendingFetches.empty();
            continue;
        }
        region->reaped = true;
        changed = true;
        removable |= region->pendingFetches.empty();
        TPRE_TRACE_COMPLETE("precon", "region", obs::Domain::Cycles,
                            region->obsStartCycle,
                            now_ - region->obsStartCycle,
                            region->tracesEmitted);
        for (auto &constructor : constructors_) {
            if (constructor.region() == region.get())
                constructor.abandon();
        }
        stack_.markCompleted(region->startAddr());
        switch (region->endReason()) {
          case RegionEndReason::Completed:
            ++stats_.regionsCompleted;
            break;
          case RegionEndReason::CaughtUp:
            ++stats_.regionsCaughtUp;
            break;
          case RegionEndReason::PrefetchFull:
            ++stats_.regionsPrefetchFull;
            break;
          case RegionEndReason::BuffersFull:
            ++stats_.regionsBuffersFull;
            break;
          case RegionEndReason::Warm:
            ++stats_.regionsWarm;
            break;
        }
    }

    // Free prefetch caches of finished regions (a region slot ==
    // one prefetch cache). Keep regions with a fetch in flight
    // until it drains.
    if (removable) {
        std::erase_if(regions_,
                      [](const auto &r) {
                          return r->state() == RegionState::Done &&
                                 r->reaped &&
                                 r->pendingFetches.empty();
                      });
        regionSig_ = 0;
        for (const auto &region : regions_)
            regionSig_ |= addrSigBit(region->startAddr());
    }
    return changed || removable;
}

bool
PreconstructionEngine::startRegion()
{
    bool started = false;
    while (regions_.size() < config_.numPrefetchCaches &&
           !stack_.empty()) {
        const StartPoint sp = stack_.pop();
        if (!program_.contains(sp.addr))
            continue;
        regions_.push_back(std::make_unique<Region>(
            nextRegionSeq_++, sp, config_.prefetchCacheInsts,
            config_.policy));
        regionSig_ |= addrSigBit(sp.addr);
        regions_.back()->obsStartCycle = now_;
        ++stats_.regionsStarted;
        started = true;
        TPRE_OBS_COUNT("precon.regions_started");
        TPRE_TRACE_INSTANT("precon", "region_start",
                           obs::Domain::Cycles, now_, sp.addr);
    }
    return started;
}

bool
PreconstructionEngine::tickOneCycle(bool icachePortFree)
{
    ++now_;
    bool busy = false;
    const unsigned fetches_before = pendingFetchCount_;
    completeFetches();
    busy |= pendingFetchCount_ != fetches_before;
    busy |= retireRegions();
    busy |= startRegion();
    if (icachePortFree)
        busy |= issueFetch();
    busy |= assignConstructors();
    for (auto &constructor : constructors_) {
        if (constructor.idle())
            continue;
        const bool was_stalled = constructor.stalled();
        const unsigned n = constructor.tick(
            config_.constructorInstsPerCycle, *this);
        // A fresh stall registers a needed line with the region —
        // state issueFetch acts on — so it counts as progress; a
        // re-confirmed stall changes nothing.
        busy |= n > 0 || (constructor.stalled() && !was_stalled);
    }
    return busy;
}

void
PreconstructionEngine::tick(Cycle cycles, bool icachePortFree)
{
    // Fast path: absolutely nothing to do.
    if (regions_.empty() && stack_.empty()) {
        now_ += cycles;
        return;
    }
    for (Cycle i = 0; i < cycles; ++i) {
        const bool busy = tickOneCycle(icachePortFree);
        if (regions_.empty() && stack_.empty()) {
            now_ += cycles - i - 1;
            return;
        }
        if (busy)
            continue;
        // Quiescent cycle: every phase is purely state-driven, so
        // the engine stays quiescent until the next line fill
        // completes (the only time-triggered event). Skip straight
        // there — or to the end of the span when nothing is in
        // flight (the port-free flag is constant within a span, so
        // no issue can unblock either). nextFetchReady_ is the
        // exact minimum readyAt, making the skip bit-identical to
        // ticking through the no-op cycles one by one.
        Cycle skip = cycles - i - 1;
        if (pendingFetchCount_ != 0) {
            skip = nextFetchReady_ > now_ + 1
                       ? std::min<Cycle>(skip,
                                         nextFetchReady_ - now_ - 1)
                       : 0;
        }
        now_ += skip;
        i += skip;
    }
}

void
PreconstructionEngine::save(mem::ByteWriter &w) const
{
    buffers_.save(w);
    stack_.save(w);
    w.put<std::uint32_t>(static_cast<std::uint32_t>(regions_.size()));
    for (const auto &region : regions_) {
        w.put(region->seq());
        w.put(StartPoint{region->startAddr(), region->kind()});
        region->save(w);
    }
    w.put<std::uint32_t>(
        static_cast<std::uint32_t>(constructors_.size()));
    for (const PreconConstructor &constructor : constructors_) {
        // The pointer fix-up: a constructor's region association is
        // serialized as the region's index in regions_ and
        // re-resolved against the reconstructed vector on restore.
        std::uint32_t index = ~std::uint32_t{0};
        for (std::size_t i = 0; i < regions_.size(); ++i) {
            if (regions_[i].get() == constructor.region())
                index = static_cast<std::uint32_t>(i);
        }
        w.put(index);
        constructor.save(w);
    }
    w.put(nextRegionSeq_);
    w.put(regionSig_);
    w.put(pendingFetchCount_);
    w.put(nextFetchReady_);
    w.put(now_);
    w.put(stats_);
    w.put<std::uint32_t>(
        static_cast<std::uint32_t>(bufferedLog_.size()));
    w.putBytes(bufferedLog_.data(),
               bufferedLog_.size() * sizeof(TraceId));
}

void
PreconstructionEngine::restore(mem::ByteReader &r)
{
    buffers_.restore(r);
    stack_.restore(r);
    regions_.clear();
    const auto numRegions = r.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < numRegions; ++i) {
        const auto seq = r.get<std::uint64_t>();
        const auto origin = r.get<StartPoint>();
        regions_.push_back(std::make_unique<Region>(
            seq, origin, config_.prefetchCacheInsts, config_.policy));
        regions_.back()->restore(r);
    }
    const auto numConstructors = r.get<std::uint32_t>();
    if (numConstructors != constructors_.size()) {
        fatal("PreconstructionEngine::restore: %u constructors in "
              "the checkpoint, %zu configured",
              numConstructors, constructors_.size());
    }
    for (PreconConstructor &constructor : constructors_) {
        const auto index = r.get<std::uint32_t>();
        Region *region = nullptr;
        if (index != ~std::uint32_t{0}) {
            if (index >= regions_.size()) {
                fatal("PreconstructionEngine::restore: region "
                      "index %u out of range", index);
            }
            region = regions_[index].get();
        }
        constructor.restore(r, region);
    }
    nextRegionSeq_ = r.get<std::uint64_t>();
    regionSig_ = r.get<std::uint64_t>();
    pendingFetchCount_ = r.get<unsigned>();
    nextFetchReady_ = r.get<Cycle>();
    now_ = r.get<Cycle>();
    stats_ = r.get<Stats>();
    bufferedLog_.resize(r.get<std::uint32_t>());
    r.getBytes(bufferedLog_.data(),
               bufferedLog_.size() * sizeof(TraceId));
}

void
PreconstructionEngine::clear()
{
    for (auto &constructor : constructors_)
        constructor.abandon();
    regions_.clear();
    buffers_.clear();
    stack_.clear();
    stats_ = Stats();
    regionSig_ = 0;
    pendingFetchCount_ = 0;
    nextFetchReady_ = 0;
    now_ = 0;
}

} // namespace tpre

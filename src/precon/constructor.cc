#include "precon/constructor.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tpre
{

PreconConstructor::PreconConstructor(const Program &program,
                                     const BimodalPredictor &bimodal,
                                     const PreconPolicy &policy)
    : program_(program), bimodal_(bimodal), policy_(policy),
      builder_(policy.selection)
{
}

void
PreconConstructor::save(mem::ByteWriter &w) const
{
    w.put(startPc_);
    builder_.save(w);
    w.put(pc_);
    w.put(decisions_);
    w.put<std::uint64_t>(decIndex_);
    w.put<std::uint32_t>(
        static_cast<std::uint32_t>(pendingPaths_.size()));
    w.putBytes(pendingPaths_.data(),
               pendingPaths_.size() * sizeof(DecisionPath));
    w.put(forkBudget_);
    w.put<std::uint32_t>(
        static_cast<std::uint32_t>(callStack_.size()));
    w.putBytes(callStack_.data(), callStack_.size() * sizeof(Addr));
    w.put(callStackBroken_);
    w.put(tracesFromStart_);
    w.put(pathActive_);
    w.put(stalled_);
    w.put<std::uint64_t>(stallFill_);
}

void
PreconConstructor::restore(mem::ByteReader &r, Region *region)
{
    region_ = region;
    startPc_ = r.get<Addr>();
    builder_.restore(r);
    pc_ = r.get<Addr>();
    decisions_ = r.get<DecisionPath>();
    decIndex_ = static_cast<std::size_t>(r.get<std::uint64_t>());
    pendingPaths_.resize(r.get<std::uint32_t>());
    r.getBytes(pendingPaths_.data(),
               pendingPaths_.size() * sizeof(DecisionPath));
    forkBudget_ = r.get<unsigned>();
    callStack_.resize(r.get<std::uint32_t>());
    r.getBytes(callStack_.data(), callStack_.size() * sizeof(Addr));
    callStackBroken_ = r.get<bool>();
    tracesFromStart_ = r.get<unsigned>();
    pathActive_ = r.get<bool>();
    stalled_ = r.get<bool>();
    stallFill_ = static_cast<std::size_t>(r.get<std::uint64_t>());
}

void
PreconConstructor::assign(Region &region, Addr startPc)
{
    tpre_assert(idle(), "assign() to a busy constructor");
    region_ = &region;
    ++region.workers;
    startPc_ = startPc;
    pendingPaths_.clear();
    forkBudget_ = policy_.decisionDepth;
    tracesFromStart_ = 0;
    beginPath({});
}

void
PreconConstructor::abandon()
{
    if (region_) {
        tpre_assert(region_->workers > 0);
        --region_->workers;
    }
    region_ = nullptr;
    pathActive_ = false;
    stalled_ = false;
    if (builder_.active())
        builder_.abandon();
    pendingPaths_.clear();
}

void
PreconConstructor::beginPath(DecisionPath prescribed)
{
    decisions_ = prescribed;
    decIndex_ = 0;
    pc_ = startPc_;
    callStack_.clear();
    callStackBroken_ = false;
    if (builder_.active())
        builder_.abandon();
    builder_.begin(startPc_);
    pathActive_ = true;
    stalled_ = false;
}

void
PreconConstructor::pathDone(bool regionStopped)
{
    pathActive_ = false;
    if (builder_.active())
        builder_.abandon();

    if (regionStopped) {
        abandon();
        return;
    }

    // Backtrack to the most recent decision point, if any.
    if (tracesFromStart_ < policy_.maxTracesPerStart &&
        !pendingPaths_.empty()) {
        const DecisionPath next = pendingPaths_.back();
        pendingPaths_.pop_back();
        beginPath(next);
        return;
    }

    // Done with this trace start point.
    tpre_assert(region_ && region_->workers > 0);
    --region_->workers;
    region_ = nullptr;
}

bool
PreconConstructor::stepOne(PreconTraceSink &sink)
{
    // Path left the program image (e.g. fell off a generated
    // region): nothing more can be fetched.
    if (!program_.contains(pc_)) {
        pathDone(false);
        return true;
    }

    PrefetchCache &prefetch = region_->prefetch();
    if (!prefetch.contains(pc_)) {
        if (prefetch.full()) {
            // Fill-up semantics: region terminates (Section 3.3.1).
            Region *region = region_;
            abandon();
            region->finish(RegionEndReason::PrefetchFull);
            return true;
        }
        region_->noteNeededLine(prefetch.lineAddr(pc_));
        stalled_ = true;
        stallFill_ = prefetch.numLines();
        return false; // stalled awaiting the line
    }

    const Instruction &inst = program_.instAt(pc_);
    const Addr pc = pc_;
    bool dir = false;
    Addr next_pc = Instruction::fallThrough(pc);
    Addr resume_after_return = invalidAddr;

    if (inst.isCondBranch()) {
        if (decIndex_ < decisions_.size()) {
            // Replaying the prescribed prefix of this path.
            dir = decisions_[decIndex_++];
        } else {
            // Bias pruning applies to *forward* branches only
            // (Section 2.1): a backward branch is a loop-closing
            // branch whose exit path is guaranteed to be needed,
            // so both directions are explored. Iterate (taken)
            // first so the common in-loop trace is built before
            // the once-per-loop exit trace.
            const BranchBias bias = bimodal_.bias(pc);
            if (inst.isBackwardBranch()) {
                dir = true;
                if (forkBudget_ > 0) {
                    --forkBudget_;
                    DecisionPath alt = decisions_;
                    alt.push_back(false);
                    pendingPaths_.push_back(alt);
                }
            } else if (bias.strong) {
                dir = bias.taken;
            } else {
                // Follow not-taken first; push the taken
                // alternative on the decision stack.
                dir = false;
                if (forkBudget_ > 0) {
                    --forkBudget_;
                    DecisionPath alt = decisions_;
                    alt.push_back(true);
                    pendingPaths_.push_back(alt);
                }
            }
            decisions_.push_back(dir);
            ++decIndex_;
        }
        if (dir)
            next_pc = inst.targetOf(pc);
    } else if (inst.isDirectJump()) {
        next_pc = inst.targetOf(pc);
        if (inst.isCall()) {
            if (callStack_.size() < policy_.callStackDepth)
                callStack_.push_back(Instruction::fallThrough(pc));
            else
                callStackBroken_ = true;
        }
    } else if (inst.isReturn()) {
        if (!callStack_.empty() && !callStackBroken_) {
            resume_after_return = callStack_.back();
            callStack_.pop_back();
        }
        next_pc = invalidAddr;
    } else if (inst.isIndirectJump()) {
        // Indirect target unknown to the constructor: the trace
        // ends here and the path cannot continue (Section 2.1).
        next_pc = invalidAddr;
    } else if (inst.op == Opcode::Halt) {
        next_pc = invalidAddr;
    }

    const bool completed = builder_.append(inst, pc, dir, next_pc);
    pc_ = next_pc;

    if (completed)
        finishTrace(resume_after_return, sink);
    return true;
}

void
PreconConstructor::finishTrace(Addr resumeAfterReturn,
                               PreconTraceSink &sink)
{
    Trace &trace = builder_.finalize();
    const Addr continuation =
        trace.endsInReturn() ? resumeAfterReturn
                             : trace.fallThrough;
    ++tracesFromStart_;
    ++region_->tracesConstructed;

    Region *region = region_;
    if (!sink.emitTrace(*region, trace)) {
        // The preconstruction buffers refused the trace: all
        // eviction candidates belong to this or a newer region.
        // This is the buffer-availability bound of Section 3.1;
        // after a few refusals the region is out of useful space
        // and terminates.
        if (++region->bufferRefusals >= 4) {
            abandon();
            region->finish(RegionEndReason::BuffersFull);
            return;
        }
    }

    // The instruction following a completed trace is a new
    // potential trace start point (Section 2.1).
    if (continuation != invalidAddr)
        region->addStartPoint(continuation);

    pathDone(false);
}

unsigned
PreconConstructor::tick(unsigned instBudget, PreconTraceSink &sink)
{
    unsigned processed = 0;
    while (processed < instBudget && region_ && pathActive_) {
        // Still stalled: with the prefetch line count unchanged the
        // missing line cannot have arrived (lines only accrete), so
        // a re-attempt would stall again without side effects —
        // noteNeededLine() already dedups and full() was false when
        // the stall was recorded.
        if (stalled_) {
            if (region_->prefetch().numLines() == stallFill_)
                break;
            stalled_ = false;
        }
        // Bulk path: append the straight-line run at pc_ in one go,
        // clipped to the first control transfer, the end of the
        // current trace, the tick budget, the image end, and the
        // contiguous prefix of prefetched lines. Each clip leaves
        // pc_ exactly where the per-instruction walk would stop, so
        // the stall, fork and completion logic in stepOne() fires
        // unchanged.
        if (program_.contains(pc_) &&
            !program_.instAt(pc_).isControl()) {
            const unsigned limit = std::min(
                {static_cast<unsigned>(
                     (program_.end() - pc_) / instBytes),
                 builder_.roomLeft(), instBudget - processed});
            const Instruction *insts = &program_.instAt(pc_);
            const PrefetchCache &prefetch = region_->prefetch();
            unsigned n = 0;
            Addr line = invalidAddr;
            while (n < limit) {
                const Addr addr = pc_ + n * instBytes;
                if (prefetch.lineAddr(addr) != line) {
                    if (!prefetch.contains(addr))
                        break;
                    line = prefetch.lineAddr(addr);
                }
                if (insts[n].isControl())
                    break;
                ++n;
            }
            if (n > 0) {
                const bool completed =
                    builder_.appendRun(insts, pc_, n);
                pc_ += n * instBytes;
                processed += n;
                if (completed)
                    finishTrace(invalidAddr, sink);
                continue;
            }
        }
        if (!stepOne(sink))
            break; // stalled on a line fetch
        ++processed;
    }
    return processed;
}

} // namespace tpre

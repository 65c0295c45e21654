#include "trace/selector.hh"

#include <utility>

#include "common/logging.hh"

namespace tpre
{

TraceBuilder::TraceBuilder(SelectionPolicy policy) : policy_(policy)
{
    tpre_assert(policy_.maxLen >= 1 && policy_.maxLen <= 16,
                "trace length cap must be in [1,16]");
}

void
TraceBuilder::begin(Addr startPc)
{
    tpre_assert(!active_, "begin() while a trace is in flight");
    // Reset in place rather than `trace_ = Trace()` so starting a
    // trace is a handful of scalar stores, not a full-object copy.
    trace_.insts.clear();
    trace_.id = TraceId();
    trace_.id.startPc = startPc;
    trace_.fallThrough = invalidAddr;
    trace_.endReason = TraceEndReason::MaxLength;
    trace_.preprocessed = false;
    // Consumers stamp the finished trace's build cycle in place;
    // clear it so an in-flight trace checkpoints the same bytes
    // whichever stamp its predecessor got.
    trace_.buildCycle = 0;
    active_ = true;
    lastBackward_ = -1;
    targetLen_ = policy_.maxLen;
    nextPc_ = startPc;
}

Trace
TraceBuilder::take()
{
    return std::move(finalize());
}

Trace &
TraceBuilder::finalize()
{
    tpre_assert(active_ && !trace_.insts.empty(),
                "take() with no trace content");
    active_ = false;
    // A partial trace flushed mid-assembly still knows where it
    // would have continued.
    if (trace_.fallThrough == invalidAddr &&
        trace_.endReason == TraceEndReason::MaxLength &&
        len() < policy_.maxLen) {
        trace_.fallThrough = nextPc_;
    }
    // The identity is final from here on: warm its hash cache once
    // so every downstream probe (TC, buffers, working set) reuses
    // it.
    trace_.id.rehash();
    return trace_;
}

void
TraceBuilder::save(mem::ByteWriter &w) const
{
    saveTrace(w, trace_);
    w.put(active_);
    w.put(lastBackward_);
    w.put(targetLen_);
    w.put(nextPc_);
}

void
TraceBuilder::restore(mem::ByteReader &r)
{
    restoreTrace(r, trace_);
    active_ = r.get<bool>();
    lastBackward_ = r.get<int>();
    targetLen_ = r.get<unsigned>();
    nextPc_ = r.get<Addr>();
}

void
TraceBuilder::abandon()
{
    active_ = false;
    trace_ = Trace();
    lastBackward_ = -1;
    targetLen_ = policy_.maxLen;
}

} // namespace tpre

#include "precon/region.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tpre
{

Region::Region(std::uint64_t seq, StartPoint origin,
               unsigned prefetchCapacity, const PreconPolicy &policy)
    : seq_(seq), origin_(origin), policy_(policy),
      prefetch_(prefetchCapacity)
{
    addStartPoint(origin.addr);
    if (origin.kind == StartPointKind::LoopExit) {
        // Seed the alignment grid past a loop exit so that one of
        // the generated trace sequences matches wherever the
        // processor's trace crossing the exit happened to end.
        const unsigned granule =
            policy_.selection.alignGranule
                ? policy_.selection.alignGranule
                : 4;
        for (unsigned j = 1; j < policy_.loopExitAlignSeeds; ++j)
            addStartPoint(origin.addr + j * granule * instBytes);
    }
}

void
Region::addStartPoint(Addr addr)
{
    if (addr == invalidAddr || state_ != RegionState::Active)
        return;
    if (seenStarts_.contains(addr))
        return;
    if (worklist_.size() >= policy_.worklistMax)
        return;
    seenStarts_.insert(addr);
    worklist_.push_back(addr);
}

Addr
Region::takeStartPoint()
{
    tpre_assert(!worklist_.empty());
    const Addr addr = worklist_.front();
    worklist_.erase(worklist_.begin());
    return addr;
}

void
Region::finish(RegionEndReason reason)
{
    if (state_ == RegionState::Done)
        return;
    state_ = RegionState::Done;
    endReason_ = reason;
    worklist_.clear();
    neededLines.clear();
}

bool
Region::hasPending(Addr line) const
{
    return std::any_of(pendingFetches.begin(), pendingFetches.end(),
                       [line](const PendingFetch &pf) {
                           return pf.line == line;
                       });
}

void
Region::noteNeededLine(Addr line)
{
    if (std::find(neededLines.begin(), neededLines.end(), line) ==
        neededLines.end()) {
        neededLines.push_back(line);
    }
}

void
Region::save(mem::ByteWriter &w) const
{
    prefetch_.save(w);
    w.put<std::uint32_t>(
        static_cast<std::uint32_t>(worklist_.size()));
    w.putArray(worklist_.data(), worklist_.size());
    seenStarts_.save(w);
    w.put(state_);
    w.put(endReason_);
    w.put(workers);
    w.put<std::uint32_t>(
        static_cast<std::uint32_t>(pendingFetches.size()));
    w.putArray(pendingFetches.data(), pendingFetches.size());
    w.put<std::uint32_t>(
        static_cast<std::uint32_t>(neededLines.size()));
    w.putArray(neededLines.data(), neededLines.size());
    w.put(tracesConstructed);
    w.put(reaped);
    w.put(bufferRefusals);
    w.put(leadingWarmTraces);
    w.put(tracesEmitted);
    w.put(obsStartCycle);
}

void
Region::restore(mem::ByteReader &r)
{
    prefetch_.restore(r);
    worklist_.resize(r.get<std::uint32_t>());
    r.getArray(worklist_.data(), worklist_.size());
    seenStarts_.restore(r);
    state_ = r.get<RegionState>();
    endReason_ = r.get<RegionEndReason>();
    workers = r.get<unsigned>();
    pendingFetches.resize(r.get<std::uint32_t>());
    r.getArray(pendingFetches.data(), pendingFetches.size());
    neededLines.resize(r.get<std::uint32_t>());
    r.getArray(neededLines.data(), neededLines.size());
    tracesConstructed = r.get<std::uint64_t>();
    reaped = r.get<bool>();
    bufferRefusals = r.get<unsigned>();
    leadingWarmTraces = r.get<unsigned>();
    tracesEmitted = r.get<unsigned>();
    obsStartCycle = r.get<Cycle>();
}

} // namespace tpre

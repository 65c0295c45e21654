#include "precon/start_point_stack.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tpre
{

StartPointStack::StartPointStack(unsigned depth,
                                 unsigned completedSlots)
    : depth_(depth), completedSlots_(completedSlots)
{
    tpre_assert(depth >= 1);
    stack_.reserve(depth);
    completed_.reserve(completedSlots);
}

void
StartPointStack::save(mem::ByteWriter &w) const
{
    w.put<std::uint32_t>(static_cast<std::uint32_t>(stack_.size()));
    for (const StartPoint &sp : stack_)
        saveStartPoint(w, sp);
    w.put(sig_);
    w.put<std::uint32_t>(
        static_cast<std::uint32_t>(completed_.size()));
    w.putArray(completed_.data(), completed_.size());
}

void
StartPointStack::restore(mem::ByteReader &r)
{
    stack_.resize(r.get<std::uint32_t>());
    for (StartPoint &sp : stack_)
        sp = restoreStartPoint(r);
    sig_ = r.get<std::uint64_t>();
    completed_.resize(r.get<std::uint32_t>());
    r.getArray(completed_.data(), completed_.size());
}

bool
StartPointStack::push(Addr addr, StartPointKind kind)
{
    tpre_assert(addr != invalidAddr);

    // Redundancy filters (Section 3.2): skip if the region is
    // already anywhere on the stack (a loop closing branch is seen
    // on every iteration) or was completed recently.
    if (contains(addr))
        return false;
    if (completedRecently(addr))
        return false;

    if (stack_.size() >= depth_) {
        stack_.erase(stack_.begin()); // discard the oldest
        rebuildSig();
    }
    stack_.push_back({addr, kind});
    sig_ |= sigBit(addr);
    return true;
}

StartPoint
StartPointStack::pop()
{
    tpre_assert(!stack_.empty());
    StartPoint sp = stack_.back();
    stack_.pop_back();
    rebuildSig();
    return sp;
}

const StartPoint &
StartPointStack::top() const
{
    tpre_assert(!stack_.empty());
    return stack_.back();
}

void
StartPointStack::eraseAll(Addr addr)
{
    std::erase_if(stack_, [addr](const StartPoint &sp) {
        return sp.addr == addr;
    });
    rebuildSig();
}

bool
StartPointStack::contains(Addr addr) const
{
    return std::any_of(stack_.begin(), stack_.end(),
                       [addr](const StartPoint &sp) {
                           return sp.addr == addr;
                       });
}

void
StartPointStack::markCompleted(Addr addr)
{
    if (completedSlots_ == 0)
        return;
    auto it = std::find(completed_.begin(), completed_.end(), addr);
    if (it != completed_.end())
        completed_.erase(it);
    if (completed_.size() >= completedSlots_)
        completed_.erase(completed_.begin());
    completed_.push_back(addr);
}

bool
StartPointStack::completedRecently(Addr addr) const
{
    return std::find(completed_.begin(), completed_.end(), addr) !=
           completed_.end();
}

void
StartPointStack::clear()
{
    stack_.clear();
    sig_ = 0;
    completed_.clear();
}

} // namespace tpre

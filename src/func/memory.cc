#include "func/memory.hh"

#include "common/logging.hh"
#include "common/random.hh"

namespace tpre
{

namespace
{

/** Slot index a page number hashes to under @p mask. */
inline std::size_t
slotHash(Addr pageNum, std::size_t mask)
{
    return static_cast<std::size_t>(mix64(pageNum)) & mask;
}

} // namespace

const Memory::Page *
Memory::find(Addr pageNum) const
{
    if (slots_.empty())
        return nullptr;
    std::size_t i = slotHash(pageNum, slotMask_);
    while (true) {
        const Slot &slot = slots_[i];
        if (slot.pageNum == pageNum)
            return slot.page;
        if (slot.pageNum == kEmptySlot)
            return nullptr;
        i = (i + 1) & slotMask_;
    }
}

Memory::Page &
Memory::findOrCreate(Addr pageNum)
{
    if (slots_.empty())
        rehash(initialSlots);
    std::size_t i = slotHash(pageNum, slotMask_);
    while (true) {
        Slot &slot = slots_[i];
        if (slot.pageNum == pageNum)
            return *slot.page;
        if (slot.pageNum == kEmptySlot)
            break;
        i = (i + 1) & slotMask_;
    }

    // Grow at ~70% occupancy so probe chains stay short; the table
    // holds page *pointers*, so rehashing never moves page data.
    if ((pool_.size() + 1) * 10 > slots_.size() * 7) {
        rehash(slots_.size() * 2);
        i = slotHash(pageNum, slotMask_);
        while (slots_[i].pageNum != kEmptySlot)
            i = (i + 1) & slotMask_;
    }

    pool_.emplace_back();
    slots_[i] = {pageNum, &pool_.back()};
    return pool_.back();
}

void
Memory::rehash(std::size_t newCapacity)
{
    tpre_assert((newCapacity & (newCapacity - 1)) == 0,
                "page table capacity must be a power of two");
    std::vector<Slot> fresh(newCapacity);
    const std::size_t mask = newCapacity - 1;
    for (const Slot &slot : slots_) {
        if (slot.pageNum == kEmptySlot)
            continue;
        std::size_t i = slotHash(slot.pageNum, mask);
        while (fresh[i].pageNum != kEmptySlot)
            i = (i + 1) & mask;
        fresh[i] = slot;
    }
    slots_ = std::move(fresh);
    slotMask_ = mask;
}

void
Memory::save(mem::ByteWriter &w) const
{
    // Recover each pool entry's page number from the slot table so
    // pages can be written in allocation order. The scan is
    // quadratic in the page count, which is fine off the hot path:
    // checkpointing happens once per warm-up, not per access.
    w.put<std::uint64_t>(pool_.size());
    for (const Page &page : pool_) {
        Addr num = kEmptySlot;
        for (const Slot &slot : slots_) {
            if (slot.page == &page) {
                num = slot.pageNum;
                break;
            }
        }
        tpre_assert(num != kEmptySlot,
                    "page pool entry missing from the slot table");
        w.put(num);
        w.putArray(page.words, wordsPerPage);
    }
}

void
Memory::restore(mem::ByteReader &r)
{
    clear();
    const auto n = r.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto num = r.get<Addr>();
        Page &page = findOrCreate(num);
        r.getArray(page.words, wordsPerPage);
    }
}

void
Memory::clear()
{
    pool_.clear();
    slots_.clear();
    slotMask_ = 0;
    cache_.fill({});
}

} // namespace tpre

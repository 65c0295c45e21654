/**
 * @file
 * Sparse simulated data memory. Pages are allocated on first write
 * and zero-initialized, so any generated address stream is legal.
 * Data accesses are 64-bit and hardware-aligned: the low three
 * address bits are ignored.
 *
 * The page table is a flat open-addressing hash table (linear
 * probing, power-of-two capacity) instead of the seed's
 * std::unordered_map<Addr, unique_ptr<Page>>: a load or store is
 * the per-instruction hot path of every functional step, and the
 * node-based map paid a hash-bucket pointer chase plus allocator
 * traffic per page. A 64-entry direct-mapped page cache in front
 * of the table, indexed by the low page-number bits, serves the
 * workloads' small working sets with no hash work. (A one-entry
 * MRU cache missed on about half the loads and stores: the
 * generated workloads switch page that often.)
 */

#ifndef TPRE_FUNC_MEMORY_HH
#define TPRE_FUNC_MEMORY_HH

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hh"
#include "mem/checkpoint.hh"

namespace tpre
{

/** Sparse, page-granular 64-bit-word memory. */
class Memory
{
  public:
    static constexpr unsigned pageShift = 12;
    static constexpr Addr pageBytes = Addr(1) << pageShift;
    static constexpr std::size_t wordsPerPage = pageBytes / 8;
    /** Page-table slots allocated on first write (power of two). */
    static constexpr std::size_t initialSlots = 64;

    Memory() = default;

    // Pages live in a stable pool; moving is fine, copying is not
    // meaningful for a simulation component.
    Memory(const Memory &) = delete;
    Memory &operator=(const Memory &) = delete;
    Memory(Memory &&) = default;
    Memory &operator=(Memory &&) = default;

    /**
     * Read the 64-bit word containing @p addr (low bits ignored).
     * Reading an untouched page returns zero without allocating.
     */
    std::uint64_t
    read(Addr addr) const
    {
        const Addr page_num = addr >> pageShift;
        CacheEntry &entry = cache_[page_num % cacheEntries];
        if (entry.pageNum == page_num)
            return entry.page->words[wordOf(addr)];
        const Page *page = find(page_num);
        if (!page)
            return 0;
        entry = {page_num, const_cast<Page *>(page)};
        return page->words[wordOf(addr)];
    }

    /** Write the 64-bit word containing @p addr (low bits ignored). */
    void
    write(Addr addr, std::uint64_t value)
    {
        const Addr page_num = addr >> pageShift;
        CacheEntry &entry = cache_[page_num % cacheEntries];
        if (entry.pageNum == page_num) {
            entry.page->words[wordOf(addr)] = value;
            return;
        }
        Page &page = findOrCreate(page_num);
        entry = {page_num, &page};
        page.words[wordOf(addr)] = value;
    }

    /** Number of pages that have been touched (written). */
    std::size_t numPages() const { return pool_.size(); }

    /** Drop all contents. */
    void clear();

    /**
     * Checkpoint the page set. Pages are recorded in allocation
     * order with their page numbers, so restore() replays the
     * exact insertion sequence and reproduces the original slot
     * layout (and therefore every future probe/growth decision).
     */
    void save(mem::ByteWriter &w) const;
    void restore(mem::ByteReader &r);

  private:
    struct Page
    {
        std::uint64_t words[wordsPerPage] = {};
    };

    struct Slot
    {
        Addr pageNum = kEmptySlot;
        Page *page = nullptr;
    };

    /**
     * Empty-slot marker. Physical page numbers are addr >> 12, so
     * the all-ones value can never name a real page.
     */
    static constexpr Addr kEmptySlot = ~static_cast<Addr>(0);

    static std::size_t
    wordOf(Addr addr)
    {
        return (addr & (pageBytes - 1)) >> 3;
    }

    const Page *find(Addr pageNum) const;
    Page &findOrCreate(Addr pageNum);
    /** Rebuild the slot table with @p newCapacity slots. */
    void rehash(std::size_t newCapacity);

    /** Page storage; deque keeps page addresses stable on growth. */
    std::deque<Page> pool_;
    /** Open-addressing page table (linear probing). */
    std::vector<Slot> slots_;
    std::size_t slotMask_ = 0;

    /** Direct-mapped page cache in front of the table. */
    struct CacheEntry
    {
        Addr pageNum = kEmptySlot;
        Page *page = nullptr;
    };
    static constexpr std::size_t cacheEntries = 64;
    mutable std::array<CacheEntry, cacheEntries> cache_ = {};
};

} // namespace tpre

#endif // TPRE_FUNC_MEMORY_HH

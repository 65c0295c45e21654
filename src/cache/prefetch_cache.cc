#include "cache/prefetch_cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tpre
{

PrefetchCache::PrefetchCache(unsigned capacityInsts)
    : capacityLines_(capacityInsts / instsPerLine)
{
    tpre_assert(capacityInsts >= instsPerLine &&
                capacityInsts % instsPerLine == 0,
                "capacity must be a whole number of lines");
    lines_.reserve(capacityLines_);
}

void
PrefetchCache::save(mem::ByteWriter &w) const
{
    w.put<std::uint32_t>(
        static_cast<std::uint32_t>(lines_.size()));
    w.putArray(lines_.data(), lines_.size());
}

void
PrefetchCache::restore(mem::ByteReader &r)
{
    const auto n = r.get<std::uint32_t>();
    if (n > capacityLines_) {
        fatal("PrefetchCache::restore: %u lines exceed the %u-line "
              "capacity",
              n, capacityLines_);
    }
    lines_.resize(n);
    r.getArray(lines_.data(), n);
}

bool
PrefetchCache::insertLine(Addr addr)
{
    const Addr line = lineAddr(addr);
    if (contains(addr))
        return true;
    if (full())
        return false;
    lines_.push_back(line);
    return true;
}

} // namespace tpre

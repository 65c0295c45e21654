#include "cache/set_assoc.hh"

#include "common/logging.hh"
#include "common/random.hh"

namespace tpre
{

SetAssocCache::SetAssocCache(CacheGeometry geometry)
    : geometry_(geometry)
{
    tpre_assert(geometry_.assoc >= 1);
    tpre_assert(geometry_.lineBytes > 0 &&
                (geometry_.lineBytes & (geometry_.lineBytes - 1)) == 0,
                "line size must be a power of two");
    tpre_assert(geometry_.numLines() % geometry_.assoc == 0,
                "lines must divide evenly into sets");
    numSets_ = geometry_.numSets();
    tpre_assert(numSets_ >= 1);
    lines_.resize(geometry_.numLines());
}

std::size_t
SetAssocCache::setOf(Addr addr) const
{
    const Addr line = addr / geometry_.lineBytes;
    return static_cast<std::size_t>(line % numSets_);
}

bool
SetAssocCache::access(Addr addr)
{
    const Addr tag = lineAddr(addr);
    // One contiguous probe over the set's ways (sets are laid out
    // back to back in lines_).
    Line *const base = &lines_[setOf(addr) * geometry_.assoc];
    Line *const end = base + geometry_.assoc;
    Line *victim = base;

    for (Line *line = base; line != end; ++line) {
        if (line->valid && line->tag == tag) {
            line->lastUse = ++useClock_;
            return true;
        }
        if (!line->valid)
            victim = line;
        else if (victim->valid && line->lastUse < victim->lastUse)
            victim = line;
    }

    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = ++useClock_;
    return false;
}

bool
SetAssocCache::contains(Addr addr) const
{
    const Addr tag = lineAddr(addr);
    const Line *const base =
        &lines_[setOf(addr) * geometry_.assoc];
    for (const Line *line = base, *const end = base + geometry_.assoc;
         line != end; ++line) {
        if (line->valid && line->tag == tag)
            return true;
    }
    return false;
}

void
SetAssocCache::invalidate(Addr addr)
{
    const Addr tag = lineAddr(addr);
    Line *const base = &lines_[setOf(addr) * geometry_.assoc];
    for (Line *line = base, *const end = base + geometry_.assoc;
         line != end; ++line) {
        if (line->valid && line->tag == tag)
            line->valid = false;
    }
}

void
SetAssocCache::save(mem::ByteWriter &w) const
{
    w.put<std::uint64_t>(lines_.size());
    // Field by field: a Line has padding after `valid`.
    for (const Line &line : lines_) {
        w.put(line.valid);
        w.put(line.tag);
        w.put(line.lastUse);
    }
    w.put(useClock_);
}

void
SetAssocCache::restore(mem::ByteReader &r)
{
    const auto n = r.get<std::uint64_t>();
    if (n != lines_.size()) {
        fatal("SetAssocCache::restore: %llu lines in checkpoint, "
              "%zu configured",
              static_cast<unsigned long long>(n), lines_.size());
    }
    for (Line &line : lines_) {
        line.valid = r.get<bool>();
        line.tag = r.get<Addr>();
        line.lastUse = r.get<std::uint64_t>();
    }
    useClock_ = r.get<std::uint64_t>();
}

void
SetAssocCache::clear()
{
    for (Line &line : lines_)
        line.valid = false;
    useClock_ = 0;
}

} // namespace tpre

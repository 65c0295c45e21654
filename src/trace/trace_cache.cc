#include "trace/trace_cache.hh"

#include <utility>

#include "common/logging.hh"

namespace tpre
{

TraceCache::TraceCache(std::size_t numEntries, unsigned assoc)
    : assoc_(assoc)
{
    tpre_assert(assoc >= 1);
    tpre_assert(numEntries >= assoc && numEntries % assoc == 0,
                "entry count must be a multiple of associativity");
    numSets_ = numEntries / assoc;
    entries_.resize(numEntries);
}

void
TraceCache::save(mem::ByteWriter &w) const
{
    w.put<std::uint64_t>(entries_.size());
    w.put(assoc_);
    for (const Entry &e : entries_) {
        w.put(e.valid);
        if (!e.valid)
            continue;
        w.put(e.lastUse);
        w.put(e.hits);
        saveTrace(w, e.trace);
    }
    w.put(useClock_);
    w.put(now_);
    w.put(attrib_);
}

void
TraceCache::restore(mem::ByteReader &r)
{
    const auto n = r.get<std::uint64_t>();
    const auto assoc = r.get<unsigned>();
    if (n != entries_.size() || assoc != assoc_) {
        fatal("TraceCache::restore: geometry %llux%u does not match "
              "the configured %zux%u",
              static_cast<unsigned long long>(n), assoc,
              entries_.size(), assoc_);
    }
    for (Entry &e : entries_) {
        e.valid = r.get<bool>();
        if (!e.valid) {
            e.lastUse = 0;
            e.hits = 0;
            e.trace = Trace();
            continue;
        }
        e.lastUse = r.get<std::uint64_t>();
        e.hits = r.get<std::uint64_t>();
        restoreTrace(r, e.trace);
        // The class is a pure function of the body; recompute it
        // rather than widening the checkpoint codec.
        e.cls = classifyTrace(e.trace);
    }
    useClock_ = r.get<std::uint64_t>();
    now_ = r.get<Cycle>();
    attrib_ = r.get<AttribTable>();
}

std::size_t
TraceCache::setOf(const TraceId &id) const
{
    return static_cast<std::size_t>(id.hash() % numSets_);
}

TraceCache::Entry &
TraceCache::entryAt(std::size_t set, unsigned way)
{
    return entries_[set * assoc_ + way];
}

TraceCache::Entry *
TraceCache::findEntry(const TraceId &id)
{
    // Probe the set's ways as one contiguous run; entries_ lays
    // sets out back to back, so this is a short linear scan.
    Entry *const base = &entries_[setOf(id) * assoc_];
    for (Entry *e = base, *const end = base + assoc_; e != end; ++e) {
        if (e->valid && e->trace.id == id)
            return e;
    }
    return nullptr;
}

const TraceCache::Entry *
TraceCache::findEntry(const TraceId &id) const
{
    return const_cast<TraceCache *>(this)->findEntry(id);
}

void
TraceCache::recordUse(Entry &entry)
{
    AttribCell &cell = attrib_.of(entry.trace.origin, entry.cls.loopClass);
    ++cell.hits;
    for (std::size_t k = 0; k < kNumInstKinds; ++k)
        cell.instServed[k] += entry.cls.instCounts[k];
    if (entry.hits++ == 0) {
        ++cell.firstUses;
        // The clocks agree by construction (the owning simulator
        // drives both), but a zero provenance clock (unit tests)
        // must not underflow against a stamped build cycle.
        if (now_ > entry.trace.buildCycle)
            cell.firstUseLatencySum += now_ - entry.trace.buildCycle;
    }
}

void
TraceCache::recordEviction(const Entry &entry, EvictReason reason)
{
    AttribCell &cell = attrib_.of(entry.trace.origin, entry.cls.loopClass);
    switch (reason) {
      case EvictReason::Capacity: ++cell.evictCapacity; break;
      case EvictReason::Refresh: ++cell.evictRefresh; break;
      case EvictReason::Invalidate: ++cell.evictInvalidate; break;
      case EvictReason::Clear: ++cell.evictClear; break;
    }
    if (entry.hits == 0)
        ++cell.evictedUnused;
}

const Trace *
TraceCache::lookup(const TraceId &id)
{
    Entry *entry = findEntry(id);
    if (!entry)
        return nullptr;
    entry->lastUse = tick();
    recordUse(*entry);
    return &entry->trace;
}

bool
TraceCache::contains(const TraceId &id) const
{
    return findEntry(id) != nullptr;
}

TraceCache::Entry &
TraceCache::victimIn(std::size_t set)
{
    Entry *const base = &entries_[set * assoc_];
    Entry *victim = base;
    for (Entry *e = base, *const end = base + assoc_; e != end; ++e) {
        if (!e->valid)
            return *e;
        if (e->lastUse < victim->lastUse)
            victim = e;
    }
    return *victim;
}

const Trace *
TraceCache::insert(const Trace &trace, bool servedAtInsert)
{
    tpre_assert(trace.id.valid(), "inserting invalid trace");
    // Classify once per insert (the only place a body enters the
    // cache); hits and evictions reuse the cached class.
    const TraceClass cls = classifyTrace(trace);
    AttribCell &cell = attrib_.of(trace.origin, cls.loopClass);
    ++cell.builds;
    for (std::size_t k = 0; k < kNumInstKinds; ++k)
        cell.instBuilt[k] += cls.instCounts[k];
    // Refresh in place when the identical trace is already present.
    if (Entry *existing = findEntry(trace.id)) {
        recordEviction(*existing, EvictReason::Refresh);
        existing->trace = trace;
        existing->cls = cls;
        existing->lastUse = tick();
        existing->hits = 0;
        if (servedAtInsert)
            recordUse(*existing);
        return &existing->trace;
    }
    Entry &victim = victimIn(setOf(trace.id));
    if (victim.valid)
        recordEviction(victim, EvictReason::Capacity);
    victim.valid = true;
    victim.trace = trace;
    victim.cls = cls;
    victim.lastUse = tick();
    victim.hits = 0;
    if (servedAtInsert)
        recordUse(victim);
    return &victim.trace;
}

bool
TraceCache::invalidate(const TraceId &id)
{
    if (Entry *entry = findEntry(id)) {
        recordEviction(*entry, EvictReason::Invalidate);
        entry->valid = false;
        entry->trace = Trace();
        entry->hits = 0;
        return true;
    }
    return false;
}

void
TraceCache::clear()
{
    for (Entry &entry : entries_) {
        if (entry.valid)
            recordEviction(entry, EvictReason::Clear);
        entry.valid = false;
        entry.trace = Trace();
        entry.lastUse = 0;
        entry.hits = 0;
    }
}

std::size_t
TraceCache::numValid() const
{
    std::size_t count = 0;
    for (const Entry &entry : entries_)
        count += entry.valid ? 1 : 0;
    return count;
}

} // namespace tpre

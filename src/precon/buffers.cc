#include "precon/buffers.hh"

#include <utility>

#include "common/logging.hh"

namespace tpre
{

PreconstructionBuffers::PreconstructionBuffers(std::size_t numEntries,
                                               unsigned assoc)
    : assoc_(assoc)
{
    tpre_assert(assoc >= 1);
    tpre_assert(numEntries >= assoc && numEntries % assoc == 0);
    numSets_ = numEntries / assoc;
    entries_.resize(numEntries);
}

void
PreconstructionBuffers::save(mem::ByteWriter &w) const
{
    w.put<std::uint64_t>(entries_.size());
    w.put(assoc_);
    for (const Entry &entry : entries_) {
        w.put(entry.valid);
        if (!entry.valid)
            continue;
        w.put(entry.regionSeq);
        saveTrace(w, entry.trace);
    }
}

void
PreconstructionBuffers::restore(mem::ByteReader &r)
{
    const auto n = r.get<std::uint64_t>();
    const auto assoc = r.get<unsigned>();
    if (n != entries_.size() || assoc != assoc_) {
        fatal("PreconstructionBuffers::restore: geometry %llux%u "
              "does not match the configured %zux%u",
              static_cast<unsigned long long>(n), assoc,
              entries_.size(), assoc_);
    }
    for (Entry &entry : entries_) {
        entry.valid = r.get<bool>();
        if (!entry.valid) {
            entry.regionSeq = 0;
            entry.trace = Trace();
            continue;
        }
        entry.regionSeq = r.get<std::uint64_t>();
        restoreTrace(r, entry.trace);
    }
}

std::size_t
PreconstructionBuffers::setOf(const TraceId &id) const
{
    return static_cast<std::size_t>(id.hash() % numSets_);
}

const Trace *
PreconstructionBuffers::lookup(const TraceId &id) const
{
    const Entry *const base = &entries_[setOf(id) * assoc_];
    for (const Entry *e = base, *const end = base + assoc_; e != end;
         ++e) {
        if (e->valid && e->trace.id == id)
            return &e->trace;
    }
    return nullptr;
}

bool
PreconstructionBuffers::contains(const TraceId &id) const
{
    return lookup(id) != nullptr;
}

bool
PreconstructionBuffers::insert(const Trace &trace,
                               std::uint64_t regionSeq)
{
    tpre_assert(trace.id.valid());
    const std::size_t set = setOf(trace.id);

    // Already present (possibly from an older exploration): refresh
    // ownership and contents.
    for (unsigned way = 0; way < assoc_; ++way) {
        Entry &entry = entries_[set * assoc_ + way];
        if (entry.valid && entry.trace.id == trace.id) {
            entry.trace = trace;
            entry.regionSeq = regionSeq;
            return true;
        }
    }

    // Victim: an invalid way, else the entry of the *oldest* region
    // (lowest sequence number), provided it is older than ours.
    Entry *victim = nullptr;
    for (unsigned way = 0; way < assoc_; ++way) {
        Entry &entry = entries_[set * assoc_ + way];
        if (!entry.valid) {
            victim = &entry;
            break;
        }
        if (!victim || entry.regionSeq < victim->regionSeq)
            victim = &entry;
    }

    if (victim->valid && victim->regionSeq >= regionSeq)
        return false; // never displace own-or-newer region traces

    victim->valid = true;
    victim->regionSeq = regionSeq;
    victim->trace = trace;
    return true;
}

bool
PreconstructionBuffers::invalidate(const TraceId &id)
{
    const std::size_t set = setOf(id);
    for (unsigned way = 0; way < assoc_; ++way) {
        Entry &entry = entries_[set * assoc_ + way];
        if (entry.valid && entry.trace.id == id) {
            entry.valid = false;
            entry.trace = Trace();
            return true;
        }
    }
    return false;
}

void
PreconstructionBuffers::clear()
{
    for (Entry &entry : entries_) {
        entry.valid = false;
        entry.trace = Trace();
        entry.regionSeq = 0;
    }
}

std::size_t
PreconstructionBuffers::numValid() const
{
    std::size_t count = 0;
    for (const Entry &entry : entries_)
        count += entry.valid ? 1 : 0;
    return count;
}

void
PreconstructionBuffers::forEachValid(
    const std::function<void(const Trace &, std::uint64_t)> &fn) const
{
    for (const Entry &entry : entries_) {
        if (entry.valid)
            fn(entry.trace, entry.regionSeq);
    }
}

} // namespace tpre

#include "obs/tracer.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/logging.hh"
#include "common/parse.hh"

namespace tpre::obs
{

std::uint64_t
wallMicros()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point anchor = clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            clock::now() - anchor)
            .count());
}

EventRing::EventRing(std::size_t capacity)
    : capacity_(capacity ? capacity
                         : Tracer::instance().ringCapacity())
{
    // Grow on demand: a large TPRE_TRACE_BUF must not commit
    // capacity_ * sizeof(TraceEvent) bytes per idle thread.
    buf_.reserve(std::min<std::size_t>(capacity_, 1024));
    Tracer::instance().attachRing(this);
}

EventRing::~EventRing()
{
    Tracer::instance().detachRing(this);
}

void
EventRing::push(const TraceEvent &event)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (buf_.size() < capacity_) {
        buf_.push_back(event);
    } else {
        // Wrap: overwrite the oldest slot, keep the newest events.
        buf_[head_ % capacity_] = event;
    }
    ++head_;
}

std::vector<TraceEvent>
EventRing::snapshotOrdered() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<TraceEvent> out;
    out.reserve(buf_.size());
    if (head_ <= capacity_) {
        out = buf_;
    } else {
        // buf_[head_ % capacity_] is the oldest surviving event.
        std::size_t oldest = head_ % capacity_;
        out.insert(out.end(), buf_.begin() + oldest, buf_.end());
        out.insert(out.end(), buf_.begin(), buf_.begin() + oldest);
    }
    return out;
}

std::uint64_t
EventRing::dropped() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return head_ > capacity_ ? head_ - capacity_ : 0;
}

std::size_t
EventRing::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return buf_.size();
}

void
EventRing::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    buf_.clear();
    head_ = 0;
}

EventRing &
threadRing()
{
    thread_local EventRing ring;
    return ring;
}

std::size_t
traceRingCapacityFromEnv()
{
    const char *env = std::getenv("TPRE_TRACE_BUF");
    if (!env)
        return 65536;
    // Upper bound keeps an overflowing value (2^33 once truncated
    // silently through unsigned) or a fat-fingered ring size from
    // turning into a multi-gigabyte per-thread allocation.
    const std::int64_t v = static_cast<std::int64_t>(
        parseUnsigned(env, "TPRE_TRACE_BUF",
                      std::uint64_t(1) << 28));
    if (v < 16)
        fatal("TPRE_TRACE_BUF: %lld is below the minimum ring "
              "capacity of 16",
              static_cast<long long>(v));
    return static_cast<std::size_t>(v);
}

Tracer::Tracer()
{
    capacity_ = traceRingCapacityFromEnv();
    enabled_.store(parseFlag("TPRE_TRACE", false),
                   std::memory_order_relaxed);
}

Tracer &
Tracer::instance()
{
    // Immortal for the same reason as the metrics registry: rings
    // detach during thread/static destruction.
    static Tracer *tracer = new Tracer;
    return *tracer;
}

void
Tracer::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

std::uint64_t
Tracer::numEvents() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t n = retired_.size();
    for (const EventRing *ring : rings_)
        n += ring->size();
    return n;
}

std::uint64_t
Tracer::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t n = retiredDropped_;
    for (const EventRing *ring : rings_)
        n += ring->dropped();
    return n;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    retired_.clear();
    retiredDropped_ = 0;
    for (EventRing *ring : rings_)
        ring->clear();
}

void
Tracer::attachRing(EventRing *ring)
{
    std::lock_guard<std::mutex> lock(mu_);
    ring->tid_ = nextTid_++;
    rings_.push_back(ring);
}

void
Tracer::detachRing(EventRing *ring)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find(rings_.begin(), rings_.end(), ring);
    tpre_assert(it != rings_.end(), "obs event ring detached twice");
    // Preserve the exiting thread's events for later export.
    std::vector<TraceEvent> events = ring->snapshotOrdered();
    retired_.insert(retired_.end(), events.begin(), events.end());
    retiredDropped_ += ring->dropped();
    rings_.erase(it);
}

namespace
{

/** Append @p s as a quoted JSON string. */
void
appendQuoted(std::string &out, const std::string &s)
{
    out += '"';
    out += jsonEscape(s);
    out += '"';
}

void
appendEvent(std::string &out, const TraceEvent &e)
{
    out += "{\"pid\":" +
           std::to_string(static_cast<std::uint32_t>(e.domain));
    out += ",\"tid\":" + std::to_string(e.tid);
    out += ",\"ph\":\"";
    out += e.phase;
    out += "\",\"cat\":";
    appendQuoted(out, e.cat);
    out += ",\"name\":";
    appendQuoted(out, e.name);
    out += ",\"ts\":" + std::to_string(e.ts);
    if (e.phase == 'X')
        out += ",\"dur\":" + std::to_string(e.dur);
    if (e.phase == 'i')
        out += ",\"s\":\"t\"";
    out += ",\"args\":{\"v\":" + std::to_string(e.value) + "}}";
}

void
appendMetadata(std::string &out, std::uint32_t pid, std::uint32_t tid,
               const char *metaName, const std::string &value,
               bool &first)
{
    if (!first)
        out += ",\n";
    first = false;
    out += "{\"pid\":" + std::to_string(pid);
    out += ",\"tid\":" + std::to_string(tid);
    out += ",\"ph\":\"M\",\"name\":";
    appendQuoted(out, metaName);
    out += ",\"args\":{\"name\":";
    appendQuoted(out, value);
    out += "}}";
}

} // namespace

std::string
Tracer::renderChromeJson() const
{
    std::vector<TraceEvent> events;
    {
        std::lock_guard<std::mutex> lock(mu_);
        events = retired_;
        for (const EventRing *ring : rings_) {
            std::vector<TraceEvent> part = ring->snapshotOrdered();
            events.insert(events.end(), part.begin(), part.end());
        }
    }

    std::string out = "{\"traceEvents\":[\n";
    bool first = true;

    // Name the two timestamp domains and every thread track.
    std::set<std::pair<std::uint32_t, std::uint32_t>> tracks;
    for (const TraceEvent &e : events) {
        tracks.emplace(static_cast<std::uint32_t>(e.domain), e.tid);
    }
    std::set<std::uint32_t> pids;
    for (const auto &[pid, tid] : tracks)
        pids.insert(pid);
    for (std::uint32_t pid : pids) {
        appendMetadata(out, pid, 0, "process_name",
                       pid == static_cast<std::uint32_t>(Domain::Wall)
                           ? "wall-clock (us)"
                           : "sim-cycles",
                       first);
    }
    for (const auto &[pid, tid] : tracks) {
        appendMetadata(out, pid, tid, "thread_name",
                       "tpre-thread-" + std::to_string(tid), first);
    }

    for (const TraceEvent &e : events) {
        if (!first)
            out += ",\n";
        first = false;
        appendEvent(out, e);
    }
    out += "\n]}\n";
    return out;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::string json = renderChromeJson();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::size_t wrote = std::fwrite(json.data(), 1, json.size(), f);
    bool ok = wrote == json.size();
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

namespace
{

inline void
record(const char *cat, const char *name, Domain domain,
       std::uint64_t ts, std::uint64_t dur, std::uint64_t value,
       char phase)
{
    TraceEvent e;
    e.cat = cat;
    e.name = name;
    e.ts = ts;
    e.dur = dur;
    e.value = value;
    e.domain = domain;
    e.phase = phase;
    EventRing &ring = threadRing();
    e.tid = ring.tid();
    ring.push(e);
}

} // namespace

void
traceInstant(const char *cat, const char *name, Domain domain,
             std::uint64_t ts, std::uint64_t value)
{
    if (!Tracer::instance().enabled())
        return;
    record(cat, name, domain, ts, 0, value, 'i');
}

void
traceComplete(const char *cat, const char *name, Domain domain,
              std::uint64_t ts, std::uint64_t dur,
              std::uint64_t value)
{
    if (!Tracer::instance().enabled())
        return;
    record(cat, name, domain, ts, dur, value, 'X');
}

void
traceCounter(const char *cat, const char *name, Domain domain,
             std::uint64_t ts, std::uint64_t value)
{
    if (!Tracer::instance().enabled())
        return;
    record(cat, name, domain, ts, 0, value, 'C');
}

} // namespace tpre::obs

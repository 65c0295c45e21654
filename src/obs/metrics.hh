/**
 * @file
 * tpre::obs metrics registry: process-wide named counters, gauges
 * and fixed-bucket histograms (DESIGN.md section 11).
 *
 * Writes are thread-local: every thread owns a flat block of
 * relaxed-atomic cells, each metric is a fixed cell offset handed
 * out once at registration, and the hot-path update is a single
 * relaxed load+store into the caller's own block (no RMW, no
 * contention, no allocation). Readers aggregate across all live
 * thread blocks plus the folded cells of exited threads under the
 * registry mutex, so reads are exact but cost a lock — callers are
 * report generators and tests, never simulators.
 *
 * Hot-path call sites use the TPRE_OBS_* macros from obs/obs.hh,
 * which compile to nothing under -DTPRE_OBS_DISABLED=ON; the
 * registry itself is always built so reports and tests link in
 * every configuration.
 */

#ifndef TPRE_OBS_METRICS_HH
#define TPRE_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tpre::obs
{

/** Total metric cells available per thread block (panic beyond). */
inline constexpr std::size_t kMaxCells = 4096;

/** What a registered metric name denotes. */
enum class MetricKind : std::uint8_t
{
    Counter,    ///< monotonically increasing uint64
    Gauge,      ///< signed up/down value (stored two's-complement)
    Histogram,  ///< fixed upper-bound buckets + sum
};

/** One thread's metric cells; owned writes, racing relaxed reads. */
struct ThreadBlock
{
    std::array<std::atomic<std::uint64_t>, kMaxCells> cells{};

    ThreadBlock();
    ~ThreadBlock();
    ThreadBlock(const ThreadBlock &) = delete;
    ThreadBlock &operator=(const ThreadBlock &) = delete;

    /** Owner-only increment: no RMW, readers tolerate staleness. */
    void
    add(std::size_t cell, std::uint64_t n)
    {
        std::atomic<std::uint64_t> &c = cells[cell];
        c.store(c.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
    }
};

/** The calling thread's cell block (registered on first use). */
ThreadBlock &threadBlock();

/** Aggregated histogram state at read time. */
struct HistogramData
{
    /** Inclusive upper bounds; one overflow bucket follows. */
    std::vector<std::uint64_t> bounds;
    /** bounds.size() + 1 observation counts. */
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
};

/** One metric row of a full registry snapshot. */
struct MetricRow
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    /** Counter value, or gauge value (cast) for gauges. */
    std::int64_t value = 0;
    /** Histogram payload (kind == Histogram only). */
    HistogramData hist;
};

/**
 * The process-wide metric name table. Registration is idempotent:
 * the same (name, kind, bounds) returns the same cell offset from
 * any thread; re-registering a name with a different kind or
 * bucket layout panics (the name *is* the contract).
 */
class MetricsRegistry
{
  public:
    /** The process-wide registry (immortal). */
    static MetricsRegistry &instance();

    /**
     * Register @p name and return its first cell offset. Counters
     * and gauges occupy one cell; a histogram occupies
     * bounds.size() + 2 cells (buckets then sum).
     */
    std::size_t registerMetric(std::string_view name, MetricKind kind,
                               const std::vector<std::uint64_t>
                                   &bounds = {});

    /** Aggregated counter value; 0 for unregistered names. */
    std::uint64_t counterValue(std::string_view name) const;

    /** Aggregated gauge value; 0 for unregistered names. */
    std::int64_t gaugeValue(std::string_view name) const;

    /** Aggregated histogram; empty for unregistered names. */
    HistogramData histogramValue(std::string_view name) const;

    /** Every registered metric, aggregated, sorted by name. */
    std::vector<MetricRow> snapshot() const;

    // --- thread block lifecycle (ThreadBlock ctor/dtor only) ----
    void attachBlock(ThreadBlock *block);
    void detachBlock(ThreadBlock *block);

  private:
    struct MetricInfo
    {
        MetricKind kind = MetricKind::Counter;
        std::size_t cell = 0;
        std::size_t numCells = 1;
        std::vector<std::uint64_t> bounds;
    };

    MetricsRegistry() = default;

    const MetricInfo *find(std::string_view name) const;
    /** Sum @p cell over live blocks + retired cells. Lock held. */
    std::uint64_t sumCell(std::size_t cell) const;

    mutable std::mutex mu_;
    std::vector<std::pair<std::string, MetricInfo>> metrics_;
    std::vector<ThreadBlock *> blocks_;
    /** Cells folded in from exited threads. */
    std::array<std::uint64_t, kMaxCells> retired_{};
    std::size_t nextCell_ = 0;
};

/**
 * Hot-path counter handle: resolve the name once (function-local
 * static at the call site), then add() is a thread-local store.
 */
class Counter
{
  public:
    explicit Counter(std::string_view name)
        : cell_(MetricsRegistry::instance().registerMetric(
              name, MetricKind::Counter))
    {
    }

    void add(std::uint64_t n = 1) { threadBlock().add(cell_, n); }

  private:
    std::size_t cell_;
};

/** Signed up/down gauge handle (queue depths, live objects). */
class Gauge
{
  public:
    explicit Gauge(std::string_view name)
        : cell_(MetricsRegistry::instance().registerMetric(
              name, MetricKind::Gauge))
    {
    }

    void
    add(std::int64_t delta)
    {
        threadBlock().add(cell_,
                          static_cast<std::uint64_t>(delta));
    }

  private:
    std::size_t cell_;
};

/** Fixed-bucket histogram handle. */
class Histogram
{
  public:
    /** Power-of-two bounds 1 .. 1024 (12 buckets with overflow). */
    static std::vector<std::uint64_t> defaultBounds();

    explicit Histogram(std::string_view name,
                       std::vector<std::uint64_t> bounds =
                           defaultBounds())
        : bounds_(std::move(bounds)),
          cell_(MetricsRegistry::instance().registerMetric(
              name, MetricKind::Histogram, bounds_))
    {
    }

    void
    record(std::uint64_t value)
    {
        std::size_t b = 0;
        while (b < bounds_.size() && value > bounds_[b])
            ++b;
        ThreadBlock &block = threadBlock();
        block.add(cell_ + b, 1);
        block.add(cell_ + bounds_.size() + 1, value);
    }

  private:
    std::vector<std::uint64_t> bounds_;
    std::size_t cell_;
};

} // namespace tpre::obs

#endif // TPRE_OBS_METRICS_HH

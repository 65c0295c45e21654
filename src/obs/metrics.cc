#include "obs/metrics.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tpre::obs
{

ThreadBlock::ThreadBlock()
{
    MetricsRegistry::instance().attachBlock(this);
}

ThreadBlock::~ThreadBlock()
{
    MetricsRegistry::instance().detachBlock(this);
}

ThreadBlock &
threadBlock()
{
    thread_local ThreadBlock block;
    return block;
}

MetricsRegistry &
MetricsRegistry::instance()
{
    // Immortal: instrumented code may run during static
    // destruction (thread_local blocks fold in at thread exit),
    // so the registry is never destroyed. Still reachable through
    // the static pointer, so leak checkers stay quiet.
    static MetricsRegistry *registry = new MetricsRegistry;
    return *registry;
}

std::size_t
MetricsRegistry::registerMetric(std::string_view name, MetricKind kind,
                                const std::vector<std::uint64_t> &bounds)
{
    if (kind == MetricKind::Histogram) {
        if (bounds.empty() ||
            !std::is_sorted(bounds.begin(), bounds.end())) {
            panic("obs histogram '%s' needs non-empty sorted bounds",
                  std::string(name).c_str());
        }
    }
    std::size_t numCells =
        kind == MetricKind::Histogram ? bounds.size() + 2 : 1;

    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &[existing, info] : metrics_) {
        if (existing != name)
            continue;
        if (info.kind != kind || info.bounds != bounds) {
            panic("obs metric '%s' re-registered with a different "
                  "kind or bucket layout", existing.c_str());
        }
        return info.cell;
    }
    if (nextCell_ + numCells > kMaxCells) {
        panic("obs metric '%s' exceeds the %zu-cell registry budget",
              std::string(name).c_str(), kMaxCells);
    }
    MetricInfo info;
    info.kind = kind;
    info.cell = nextCell_;
    info.numCells = numCells;
    info.bounds = bounds;
    nextCell_ += numCells;
    metrics_.emplace_back(std::string(name), info);
    return info.cell;
}

const MetricsRegistry::MetricInfo *
MetricsRegistry::find(std::string_view name) const
{
    for (const auto &[existing, info] : metrics_) {
        if (existing == name)
            return &info;
    }
    return nullptr;
}

std::uint64_t
MetricsRegistry::sumCell(std::size_t cell) const
{
    std::uint64_t sum = retired_[cell];
    for (const ThreadBlock *block : blocks_)
        sum += block->cells[cell].load(std::memory_order_relaxed);
    return sum;
}

std::uint64_t
MetricsRegistry::counterValue(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const MetricInfo *info = find(name);
    return info ? sumCell(info->cell) : 0;
}

std::int64_t
MetricsRegistry::gaugeValue(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const MetricInfo *info = find(name);
    return info ? static_cast<std::int64_t>(sumCell(info->cell)) : 0;
}

HistogramData
MetricsRegistry::histogramValue(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const MetricInfo *info = find(name);
    HistogramData data;
    if (!info || info->kind != MetricKind::Histogram)
        return data;
    data.bounds = info->bounds;
    data.buckets.resize(info->bounds.size() + 1);
    for (std::size_t b = 0; b < data.buckets.size(); ++b) {
        data.buckets[b] = sumCell(info->cell + b);
        data.count += data.buckets[b];
    }
    data.sum = sumCell(info->cell + data.buckets.size());
    return data;
}

std::vector<MetricRow>
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<MetricRow> rows;
    rows.reserve(metrics_.size());
    for (const auto &[name, info] : metrics_) {
        MetricRow row;
        row.name = name;
        row.kind = info.kind;
        if (info.kind == MetricKind::Histogram) {
            row.hist.bounds = info.bounds;
            row.hist.buckets.resize(info.bounds.size() + 1);
            for (std::size_t b = 0; b < row.hist.buckets.size(); ++b) {
                row.hist.buckets[b] = sumCell(info.cell + b);
                row.hist.count += row.hist.buckets[b];
            }
            row.hist.sum = sumCell(info.cell +
                                   row.hist.buckets.size());
        } else {
            row.value =
                static_cast<std::int64_t>(sumCell(info.cell));
        }
        rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(),
              [](const MetricRow &a, const MetricRow &b) {
                  return a.name < b.name;
              });
    return rows;
}

void
MetricsRegistry::attachBlock(ThreadBlock *block)
{
    std::lock_guard<std::mutex> lock(mu_);
    blocks_.push_back(block);
}

void
MetricsRegistry::detachBlock(ThreadBlock *block)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find(blocks_.begin(), blocks_.end(), block);
    tpre_assert(it != blocks_.end(),
                "obs thread block detached twice");
    // Fold the exiting thread's cells into the retired
    // accumulator so aggregate reads never lose history.
    for (std::size_t c = 0; c < kMaxCells; ++c) {
        retired_[c] +=
            block->cells[c].load(std::memory_order_relaxed);
    }
    blocks_.erase(it);
}

std::vector<std::uint64_t>
Histogram::defaultBounds()
{
    return {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
}

} // namespace tpre::obs

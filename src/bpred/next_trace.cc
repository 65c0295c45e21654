#include "bpred/next_trace.hh"

#include "common/logging.hh"
#include "common/random.hh"

namespace tpre
{

namespace
{

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

NextTracePredictor::NextTracePredictor(NtpConfig config)
    : config_(config)
{
    tpre_assert(config_.historyDepth >= 1 &&
                config_.historyDepth <= maxHistoryDepth);
    tpre_assert(config_.primaryEntries > 0 &&
                config_.secondaryEntries > 0);
    primary_.resize(config_.primaryEntries);
    secondary_.resize(config_.secondaryEntries);
    rhs_.reserve(config_.rhsDepth);
}

std::size_t
NextTracePredictor::primaryIndex() const
{
    // DOLC-style fold: older history contributes fewer bits via
    // distinct rotations so recent traces dominate the index.
    std::uint64_t h = 0;
    for (unsigned i = 0; i < config_.historyDepth; ++i)
        h ^= rotl(history_[i], static_cast<int>(7 * i + 1));
    return static_cast<std::size_t>(mix64(h) %
                                    config_.primaryEntries);
}

std::size_t
NextTracePredictor::secondaryIndex() const
{
    return static_cast<std::size_t>(mix64(history_[0]) %
                                    config_.secondaryEntries);
}

TraceId
NextTracePredictor::predict() const
{
    const Entry &primary = primary_[primaryIndex()];
    const Entry &secondary = secondary_[secondaryIndex()];

    ++stats_.predictions;
    if (primary.pred.valid() && primary.conf >= config_.confThreshold) {
        ++stats_.fromPrimary;
        return primary.pred;
    }
    if (secondary.pred.valid()) {
        ++stats_.fromSecondary;
        return secondary.pred;
    }
    ++stats_.noPrediction;
    return TraceId();
}

void
NextTracePredictor::train(Entry &entry, const TraceId &actual)
{
    if (entry.pred == actual) {
        if (entry.conf < 3)
            ++entry.conf;
    } else if (entry.conf > 0) {
        --entry.conf;
    } else {
        entry.pred = actual;
        entry.conf = 1;
    }
}

void
NextTracePredictor::advance(const TraceId &actual, bool containsCall,
                            bool endsInReturn)
{
    tpre_assert(actual.valid());

    train(primary_[primaryIndex()], actual);
    train(secondary_[secondaryIndex()], actual);

    // Return History Stack: restore the pre-call history before
    // folding in the returning trace, so that the traces after the
    // return are predicted with the caller's context.
    if (endsInReturn && !rhs_.empty()) {
        history_ = rhs_.back();
        rhs_.pop_back();
    }

    for (unsigned i = maxHistoryDepth - 1; i >= 1; --i)
        history_[i] = history_[i - 1];
    history_[0] = actual.hash();

    if (containsCall) {
        if (rhs_.size() >= config_.rhsDepth)
            rhs_.erase(rhs_.begin());
        rhs_.push_back(history_);
    }
}

NextTracePredictor::Checkpoint
NextTracePredictor::checkpoint() const
{
    Checkpoint cp;
    cp.history = history_;
    cp.rhs = rhs_;
    return cp;
}

void
NextTracePredictor::restore(const Checkpoint &checkpoint)
{
    history_ = checkpoint.history;
    rhs_ = checkpoint.rhs;
}

void
NextTracePredictor::clear()
{
    for (Entry &entry : primary_)
        entry = Entry();
    for (Entry &entry : secondary_)
        entry = Entry();
    history_.fill(0);
    rhs_.clear();
    stats_ = Stats();
}

} // namespace tpre

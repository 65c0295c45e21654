/**
 * @file
 * ReplayFrontend: drives the trace-processor frontend — fill unit,
 * trace cache, preconstruction engine, predictors — from a decoded
 * `.tpt` stream instead of a FunctionalCore. The replay takes the
 * exact same FastFrontend::processTrace path a live run takes, so a
 * replay of the stream a live run committed reproduces its frontend
 * statistics field by field; diffModels() leans on that equality.
 *
 * On top of the FastSim stats, the replay runs a next-trace
 * predictor over the replayed trace stream, counting its lookups,
 * and measures decode throughput.
 */

#ifndef TPRE_TRACEFMT_REPLAY_HH
#define TPRE_TRACEFMT_REPLAY_HH

#include <string>

#include "tproc/fast_sim.hh"
#include "tracefmt/reader.hh"

namespace tpre::tracefmt
{

/** Adapts a TptReader into FastSim's DynInstSource contract. */
class TptSource : public DynInstSource
{
  public:
    explicit TptSource(TptReader &reader) : reader_(reader) {}

    bool next(DynInst &out) override { return reader_.next(out); }

  private:
    TptReader &reader_;
};

/** Statistics of one replay. */
struct ReplayStats
{
    /** Frontend statistics, identical in meaning to a live run's. */
    FastSimStats fast;
    /** Dynamic instructions decoded from the file. */
    InstCount decoded = 0;
    /** Wall-clock time of the decode + replay. */
    double wallSeconds = 0.0;

    /** Next-trace predictor lookups over the replayed stream, and
     *  those that found no prediction. */
    std::uint64_t ntpPredictions = 0;
    std::uint64_t ntpNoPrediction = 0;
    /** 1 when the replay ended mid-trace and flushed that partial
     *  trace (counted among fast.traces), else 0. */
    std::uint64_t flushes = 0;

    /** Decode + replay throughput in million instructions/second. */
    double
    mips() const
    {
        return wallSeconds <= 0.0
                   ? 0.0
                   : static_cast<double>(decoded) / wallSeconds /
                         1e6;
    }
};

/** Replays a decoded `.tpt` stream through the frontend. */
class ReplayFrontend
{
  public:
    /**
     * @param reader Parsed trace file; must outlive the frontend
     *        (the embedded Program backs the simulation).
     * @param config Frontend configuration; hooks are honoured.
     */
    ReplayFrontend(TptReader &reader, FastSimConfig config = {});

    /**
     * Replay up to @p maxInsts instructions. Check ok() after: a
     * decode error mid-stream stops the replay with the partial
     * statistics in place.
     */
    const ReplayStats &run(InstCount maxInsts);

    /** Reader parsed and (after run) decoded without error. */
    bool ok() const { return reader_.ok(); }

    /** First decode error, "" if none. */
    const std::string &error() const { return reader_.error(); }

    const ReplayStats &stats() const { return stats_; }
    const TptReader &reader() const { return reader_; }

  private:
    TptReader &reader_;
    FastSimConfig config_;
    ReplayStats stats_;
    bool ran_ = false;
};

} // namespace tpre::tracefmt

#endif // TPRE_TRACEFMT_REPLAY_HH

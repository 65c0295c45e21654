#include "tracefmt/replay.hh"

#include <chrono>
#include <utility>

#include "bpred/next_trace.hh"
#include "common/logging.hh"
#include "obs/obs.hh"

namespace tpre::tracefmt
{

ReplayFrontend::ReplayFrontend(TptReader &reader,
                               FastSimConfig config)
    : reader_(reader), config_(std::move(config))
{
}

const ReplayStats &
ReplayFrontend::run(InstCount maxInsts)
{
    tpre_assert(!ran_, "ReplayFrontend::run() called twice");
    ran_ = true;
    if (!reader_.ok())
        return stats_;

    const auto start = std::chrono::steady_clock::now();

    // Run next-trace prediction over the replayed trace stream,
    // chaining after any caller-provided trace hook. Hooks never
    // influence FastSimStats, so the replay-equality guarantee is
    // untouched.
    NextTracePredictor ntp;
    FastSimConfig cfg = config_;
    auto userTrace = cfg.hooks.onTrace;
    cfg.hooks.onTrace = [this, &ntp, &userTrace](
                            const Trace &demanded,
                            const Trace &served, bool fromStorage) {
        ++stats_.ntpPredictions;
        if (!ntp.predict().valid())
            ++stats_.ntpNoPrediction;
        ntp.advance(demanded.id, demanded.containsCall(),
                    demanded.endsInReturn());
        // No selection rule ends a trace short of the length cap
        // with MaxLength: only the final flush serves one.
        if (demanded.endReason == TraceEndReason::MaxLength &&
            demanded.len() < config_.selection.maxLen)
            ++stats_.flushes;
        if (userTrace)
            userTrace(demanded, served, fromStorage);
    };

    FastSim sim(reader_.program(), cfg);
    TptSource source(reader_);
    stats_.fast = sim.replay(source, maxInsts);

    stats_.decoded = reader_.decoded();
    stats_.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    TPRE_OBS_COUNT("tpt.replay.insts", stats_.decoded);
    TPRE_OBS_COUNT("tpt.replay.traces", stats_.fast.traces);
    return stats_;
}

} // namespace tpre::tracefmt

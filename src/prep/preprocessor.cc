#include "prep/preprocessor.hh"

#include "prep/const_prop.hh"
#include "prep/fuse.hh"
#include "prep/scheduler.hh"

#include "obs/obs.hh"

namespace tpre
{

Preprocessor::Preprocessor(PrepConfig config) : config_(config)
{
}

void
Preprocessor::process(Trace &trace)
{
    if (trace.preprocessed)
        return;
    TPRE_OBS_WALL_SPAN("prep", "process");
    ++stats_.tracesProcessed;
    if (config_.constProp)
        stats_.constsPropagated += constantPropagate(trace);
    if (config_.fuse)
        stats_.opsFused += fuseShiftAdds(trace);
    if (config_.schedule)
        stats_.instsMoved += scheduleTrace(trace);
    trace.preprocessed = true;
}

} // namespace tpre

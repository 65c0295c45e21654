#include "prep/preprocessor.hh"

#include "prep/const_prop.hh"
#include "prep/fuse.hh"
#include "prep/scheduler.hh"

#include "obs/obs.hh"

namespace tpre
{

void
Preprocessor::process(Trace &trace)
{
    if (trace.preprocessed)
        return;
    TPRE_OBS_WALL_SPAN("prep", "process");
    ++stats_.tracesProcessed;
    stats_.constsPropagated += constantPropagate(trace);
    stats_.opsFused += fuseShiftAdds(trace);
    stats_.instsMoved += scheduleTrace(trace);
    trace.preprocessed = true;
}

} // namespace tpre

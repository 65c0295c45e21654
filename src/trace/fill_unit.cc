#include "trace/fill_unit.hh"

#include "obs/obs.hh"

namespace tpre
{

FillUnit::FillUnit(SelectionPolicy policy) : builder_(policy)
{
}

void
FillUnit::squash()
{
    TPRE_OBS_COUNT("fill.squashes");
    builder_.abandon();
}

Trace *
FillUnit::flush()
{
    if (!builder_.active() || builder_.len() == 0) {
        builder_.abandon();
        return nullptr;
    }
    return &builder_.finalize();
}

} // namespace tpre

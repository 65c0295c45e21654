#include "sim/config.hh"

namespace tpre
{

FastSimConfig
SimConfig::toFastConfig() const
{
    FastSimConfig cfg;
    cfg.traceCacheEntries = traceCacheEntries;
    cfg.traceCacheAssoc = traceCacheAssoc;
    cfg.selection = selection;
    cfg.preconEnabled = preconBufferEntries > 0;
    cfg.precon = precon;
    cfg.precon.bufferEntries =
        preconBufferEntries > 0 ? preconBufferEntries : 32;
    cfg.blockCache = blockCache;
    return cfg;
}

ProcessorConfig
SimConfig::toProcessorConfig() const
{
    ProcessorConfig cfg;
    cfg.traceCacheEntries = traceCacheEntries;
    cfg.traceCacheAssoc = traceCacheAssoc;
    cfg.selection = selection;
    cfg.preconEnabled = preconBufferEntries > 0;
    cfg.precon = precon;
    cfg.precon.bufferEntries =
        preconBufferEntries > 0 ? preconBufferEntries : 32;
    cfg.prepEnabled = prepEnabled;
    return cfg;
}

double
SimConfig::combinedKb() const
{
    const std::size_t entry_bytes = maxTraceLen * instBytes;
    return static_cast<double>((traceCacheEntries +
                                preconBufferEntries) *
                               entry_bytes) /
           1024.0;
}

} // namespace tpre

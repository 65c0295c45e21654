#include "tproc/trace_supply.hh"

#include "common/logging.hh"
#include "obs/obs.hh"

namespace tpre
{

TraceSupply::TraceSupply(const Program &program,
                         std::size_t traceCacheEntries,
                         unsigned traceCacheAssoc,
                         const ICacheConfig &icache,
                         const SelectionPolicy &selection,
                         const PreconConfig *precon,
                         bool prep)
    : traceCache_(traceCacheEntries, traceCacheAssoc), icache_(icache),
      bimodal_(16 * 1024)
{
    if (precon) {
        PreconConfig config = *precon;
        config.policy.selection = selection;
        engine_ = std::make_unique<PreconstructionEngine>(
            program, icache_, bimodal_, traceCache_, config);
    }
    if (prep)
        prep_ = std::make_unique<Preprocessor>();
}

const Trace *
TraceSupply::probe(const Trace &demanded, Cycle now, SupplyStats &stats)
{
    traceCache_.advanceTo(now);
    if (const Trace *stored = traceCache_.lookup(demanded.id)) {
        ++stats.tcHits;
        return stored;
    }
    if (engine_) {
        if (const Trace *buffered = engine_->lookupBuffer(demanded.id)) {
            // Copy the preconstructed trace into the trace cache and
            // free the buffer entry (Section 3.1). insert() hands
            // back the stored image, so the served trace needs no
            // second probe; servedAtInsert makes the provenance
            // ledger count the serve as the line's first use (its
            // latency is the engine's lead time).
            const Trace *stored;
            if (prep_) {
                Trace image = *buffered;
                prep_->process(image);
                stored = traceCache_.insert(image, true);
            } else {
                stored = traceCache_.insert(*buffered, true);
            }
            engine_->consumeHit(demanded.id);
            ++stats.pbHits;
            return stored;
        }
    }
    ++stats.tcMisses;
    TPRE_TRACE_INSTANT("tcache", "miss", obs::Domain::Cycles, now,
                       demanded.len());
    return nullptr;
}

SlowFetch
TraceSupply::slowFetch(const Trace &trace, unsigned width,
                       SupplyStats &stats)
{
    SlowFetch fetch;
    fetch.cycles = (trace.len() + width - 1) / width;
    Addr cur_line = invalidAddr;
    bool line_missed = false;
    for (const TraceInst &ti : trace.insts) {
        const Addr line = icache_.lineAddr(ti.pc);
        if (line != cur_line) {
            const ICache::AccessResult res =
                icache_.fetchLine(line, false);
            line_missed = !res.hit;
            if (line_missed)
                fetch.cycles += res.latency;
            cur_line = line;
        }
        fetch.instsFromMisses += line_missed;
    }
    stats.slowPathInsts += trace.len();
    return fetch;
}

void
TraceSupply::fill(Trace &trace, Cycle buildCycle)
{
    trace.buildCycle = buildCycle;
    if (!prep_) {
        traceCache_.insert(trace);
        return;
    }
    Trace image = trace;
    prep_->process(image);
    traceCache_.insert(image);
}

void
TraceSupply::train(const Trace &trace)
{
    // The stored outcome equals the committed one for conditional
    // branches, and the start-point heuristics ignore it everywhere
    // else.
    for (const TraceInst &ti : trace.insts) {
        if (ti.inst.isCondBranch())
            bimodal_.update(ti.pc, ti.taken);
        if (engine_)
            engine_->observeCommit(ti.pc, ti.inst, ti.taken);
    }
}

void
TraceSupply::syncStats(SupplyStats &stats) const
{
    stats.icache = icache_.stats();
    if (engine_)
        stats.precon = engine_->stats();
    stats.attrib = traceCache_.attrib();
}

void
TraceSupply::save(mem::ByteWriter &w, mem::CheckpointKind kind) const
{
    bimodal_.save(w);
    if (kind != mem::CheckpointKind::Full)
        return;
    w.put(engine_ != nullptr);
    icache_.save(w);
    traceCache_.save(w);
    if (engine_)
        engine_->save(w);
}

void
TraceSupply::restore(mem::ByteReader &r, mem::CheckpointKind kind)
{
    bimodal_.restore(r);
    if (kind != mem::CheckpointKind::Full)
        return;
    const bool hasEngine = r.get<bool>();
    if (hasEngine != (engine_ != nullptr)) {
        fatal("TraceSupply::restore: checkpoint %s a "
              "preconstruction engine but this supply %s one",
              hasEngine ? "has" : "lacks",
              engine_ ? "has" : "lacks");
    }
    icache_.restore(r);
    traceCache_.restore(r);
    if (engine_)
        engine_->restore(r);
}

} // namespace tpre

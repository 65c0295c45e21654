#include "telemetry/attrib.hh"

namespace tpre
{

const char *
loopClassName(LoopClass cls)
{
    switch (cls) {
      case LoopClass::LoopBody: return "loop_body";
      case LoopClass::LoopExit: return "loop_exit";
      case LoopClass::CallChain: return "call_chain";
      case LoopClass::StraightLine: return "straight_line";
    }
    return "unknown";
}

const char *
instKindName(InstKind kind)
{
    switch (kind) {
      case InstKind::CondBranch: return "cond_branch";
      case InstKind::IndirectBranch: return "indirect_branch";
      case InstKind::CallReturn: return "call_return";
      case InstKind::LoadStore: return "load_store";
      case InstKind::Alu: return "alu";
    }
    return "unknown";
}

TraceClass
classifyTrace(const Trace &trace)
{
    TraceClass tc;
    bool backTaken = false;
    bool backNotTaken = false;
    bool callRet = false;
    for (const TraceInst &ti : trace.insts) {
        const InstKind kind = instKindOf(ti.inst);
        ++tc.instCounts[static_cast<std::size_t>(kind)];
        if (kind == InstKind::CallReturn)
            callRet = true;
        else if (ti.inst.isBackwardBranch()) {
            if (ti.taken)
                backTaken = true;
            else
                backNotTaken = true;
        }
    }
    tc.loopClass = backTaken      ? LoopClass::LoopBody
                   : backNotTaken ? LoopClass::LoopExit
                   : callRet      ? LoopClass::CallChain
                                  : LoopClass::StraightLine;
    return tc;
}

void
AttribCell::add(const AttribCell &other)
{
    OriginProvenance::add(other);
    for (std::size_t k = 0; k < kNumInstKinds; ++k) {
        instBuilt[k] += other.instBuilt[k];
        instServed[k] += other.instServed[k];
    }
}

AttribCell
AttribTable::originSum(TraceOrigin origin) const
{
    AttribCell sum;
    for (std::size_t c = 0; c < kNumLoopClasses; ++c)
        sum.add(of(origin, static_cast<LoopClass>(c)));
    return sum;
}

ProvenanceTable
AttribTable::provenance() const
{
    ProvenanceTable table;
    for (std::size_t i = 0; i < cells.size(); ++i)
        table.origins[i / kNumLoopClasses].add(cells[i]);
    return table;
}

void
AttribTable::add(const AttribTable &other)
{
    for (std::size_t i = 0; i < cells.size(); ++i)
        cells[i].add(other.cells[i]);
}

namespace
{

std::string
renderKindMap(const std::array<std::uint64_t, kNumInstKinds> &counts)
{
    std::string out = "{";
    for (std::size_t k = 0; k < kNumInstKinds; ++k) {
        if (k)
            out += ", ";
        out += "\"";
        out += instKindName(static_cast<InstKind>(k));
        out += "\": " + std::to_string(counts[k]);
    }
    out += "}";
    return out;
}

} // namespace

std::string
renderAttribJson(const AttribTable &table)
{
    std::string out = "{";
    for (std::size_t i = 0; i < kNumOrigins; ++i) {
        const auto origin = static_cast<TraceOrigin>(i);
        if (i)
            out += ", ";
        out += "\"";
        out += traceOriginName(origin);
        out += "\": {";
        for (std::size_t c = 0; c < kNumLoopClasses; ++c) {
            const auto cls = static_cast<LoopClass>(c);
            const AttribCell &cell = table.of(origin, cls);
            if (c)
                out += ", ";
            out += "\"";
            out += loopClassName(cls);
            out += "\": {";
            out += "\"builds\": " + std::to_string(cell.builds) + ", ";
            out += "\"hits\": " + std::to_string(cell.hits) + ", ";
            out += "\"first_uses\": " + std::to_string(cell.firstUses) +
                   ", ";
            out += "\"first_use_latency_sum\": " +
                   std::to_string(cell.firstUseLatencySum) + ", ";
            out += "\"evict_capacity\": " +
                   std::to_string(cell.evictCapacity) + ", ";
            out += "\"evict_refresh\": " +
                   std::to_string(cell.evictRefresh) + ", ";
            out += "\"evict_invalidate\": " +
                   std::to_string(cell.evictInvalidate) + ", ";
            out += "\"evict_clear\": " + std::to_string(cell.evictClear) +
                   ", ";
            out += "\"evicted_unused\": " +
                   std::to_string(cell.evictedUnused) + ", ";
            out += "\"inst_built\": " + renderKindMap(cell.instBuilt) +
                   ", ";
            out +=
                "\"inst_served\": " + renderKindMap(cell.instServed);
            out += "}";
        }
        out += "}";
    }
    out += "}";
    return out;
}

} // namespace tpre

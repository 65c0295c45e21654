#include "telemetry/attrib.hh"

#include <cstdio>

#include "common/logging.hh"
#include "common/parse.hh"

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

AttribCell
AttribTable::originSum(TraceOrigin origin) const
{
    AttribCell sum;
    for (std::size_t c = 0; c < kNumLoopClasses; ++c) {
        const AttribCell &cell =
            of(origin, static_cast<LoopClass>(c));
        sum.builds += cell.builds;
        sum.hits += cell.hits;
        sum.firstUses += cell.firstUses;
        sum.firstUseLatencySum += cell.firstUseLatencySum;
        sum.evictCapacity += cell.evictCapacity;
        sum.evictRefresh += cell.evictRefresh;
        sum.evictInvalidate += cell.evictInvalidate;
        sum.evictClear += cell.evictClear;
        sum.evictedUnused += cell.evictedUnused;
        for (std::size_t k = 0; k < kNumInstKinds; ++k) {
            sum.instBuilt[k] += cell.instBuilt[k];
            sum.instServed[k] += cell.instServed[k];
        }
    }
    return sum;
}

void
AttribTable::add(const AttribTable &other)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        AttribCell &a = cells[i];
        const AttribCell &b = other.cells[i];
        a.builds += b.builds;
        a.hits += b.hits;
        a.firstUses += b.firstUses;
        a.firstUseLatencySum += b.firstUseLatencySum;
        a.evictCapacity += b.evictCapacity;
        a.evictRefresh += b.evictRefresh;
        a.evictInvalidate += b.evictInvalidate;
        a.evictClear += b.evictClear;
        a.evictedUnused += b.evictedUnused;
        for (std::size_t k = 0; k < kNumInstKinds; ++k) {
            a.instBuilt[k] += b.instBuilt[k];
            a.instServed[k] += b.instServed[k];
        }
    }
}

bool
AttribTable::allZero() const
{
    for (const AttribCell &c : cells) {
        if (c.builds || c.hits || c.firstUses ||
            c.firstUseLatencySum || c.evictions() ||
            c.evictedUnused) {
            return false;
        }
        for (std::size_t k = 0; k < kNumInstKinds; ++k) {
            if (c.instBuilt[k] || c.instServed[k])
                return false;
        }
    }
    return true;
}

namespace
{

std::string
u64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
renderKindMap(const std::array<std::uint64_t, kNumInstKinds> &counts)
{
    std::string out = "{";
    for (std::size_t k = 0; k < kNumInstKinds; ++k) {
        if (k)
            out += ", ";
        out += "\"";
        out += instKindName(static_cast<InstKind>(k));
        out += "\": " + u64(counts[k]);
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
            out += "\"builds\": " + u64(cell.builds) + ", ";
            out += "\"hits\": " + u64(cell.hits) + ", ";
            out += "\"first_uses\": " + u64(cell.firstUses) + ", ";
            out += "\"first_use_latency_sum\": " +
                   u64(cell.firstUseLatencySum) + ", ";
            out += "\"evict_capacity\": " + u64(cell.evictCapacity) +
                   ", ";
            out += "\"evict_refresh\": " + u64(cell.evictRefresh) +
                   ", ";
            out += "\"evict_invalidate\": " +
                   u64(cell.evictInvalidate) + ", ";
            out += "\"evict_clear\": " + u64(cell.evictClear) + ", ";
            out += "\"evicted_unused\": " + u64(cell.evictedUnused) +
                   ", ";
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

bool
attribDefaultEnabled()
{
    return parseFlag("TPRE_ATTRIB", true);
}

} // namespace tpre

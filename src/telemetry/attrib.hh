/**
 * @file
 * Trace-reuse attribution (DESIGN.md section 17): *why* each origin
 * gets the reuse the provenance ledger (section 12) counts. Every
 * trace is classified once at insert time — a loop-structure class
 * derived from its back-edge shape plus an instruction-type
 * histogram over Opcode kinds — and the TraceCache accumulates
 * builds, hits, first-use latency and eviction splits per
 * (origin × loop-class) cell, with the instruction-type histograms
 * decanting each cell into the third dimension. This is the
 * decomposition of "Decanting the Contribution of Instruction Types
 * and Loop Structures in the Reuse of Traces" (PAPERS.md) grafted
 * onto the paper's Section 5 provenance question.
 *
 * Unlike provenance, attribution is an observability extra: every
 * accumulation site is compiled out under TPRE_OBS_DISABLED
 * (obs::kEnabled) and runtime-gated by the strict TPRE_ATTRIB=0|1
 * knob, so the per-hit cost can be removed entirely. The table
 * itself stays in the TraceCache checkpoint image in both
 * configurations so checkpoints remain interchangeable.
 *
 * The types live in namespace tpre (not tpre::telemetry) for the
 * same reason the provenance types do: the trace layer embeds them;
 * the telemetry subsystem renders and reconciles them.
 */

#ifndef TPRE_TELEMETRY_ATTRIB_HH
#define TPRE_TELEMETRY_ATTRIB_HH

#include <array>
#include <cstdint>
#include <string>

#include "telemetry/provenance.hh"
#include "trace/trace.hh"

namespace tpre
{

/**
 * Loop-structure class of a trace, from its head/back-edge shape.
 * Classification priority: a taken back edge anywhere in the body
 * marks a loop body (the trace participates in an iterating loop)
 * even when calls are embedded too; a not-taken back edge without a
 * taken one is the loop-exit path; otherwise the presence of a call
 * or return makes it call-chain glue; what remains is straight-line
 * code.
 */
enum class LoopClass : std::uint8_t
{
    LoopBody = 0,      ///< embeds a taken (loop-closing) back edge
    LoopExit = 1,      ///< back edge present but not taken
    CallChain = 2,     ///< no back edge; embeds a call or return
    StraightLine = 3,  ///< none of the above
};

inline constexpr std::size_t kNumLoopClasses = 4;

/** Stable snake_case name ("loop_body", ...) for reports. */
const char *loopClassName(LoopClass cls);

/**
 * Instruction-type buckets. Disjoint by construction: an
 * instruction lands in the first bucket whose predicate matches, in
 * this order — call/return first (so a linking Jalr counts as a
 * call, not an indirect branch), then conditional branches, the
 * remaining indirect jumps, memory ops, and everything else
 * (including Halt and preprocessing-fused ops) as ALU.
 */
enum class InstKind : std::uint8_t
{
    CondBranch = 0,
    IndirectBranch = 1,
    CallReturn = 2,
    LoadStore = 3,
    Alu = 4,
};

inline constexpr std::size_t kNumInstKinds = 5;

/** Stable snake_case name ("cond_branch", ...) for reports. */
const char *instKindName(InstKind kind);

/** Bucket one instruction (see InstKind for the priority order). */
inline InstKind
instKindOf(const Instruction &inst)
{
    if (inst.isCall() || inst.isReturn())
        return InstKind::CallReturn;
    if (inst.isCondBranch())
        return InstKind::CondBranch;
    if (inst.isIndirectJump())
        return InstKind::IndirectBranch;
    if (inst.isLoad() || inst.isStore())
        return InstKind::LoadStore;
    return InstKind::Alu;
}

/**
 * The classification of one trace, computed once when the trace
 * enters the cache and cached beside the line (a trace body is
 * immutable while resident, so the class never changes).
 */
struct TraceClass
{
    LoopClass loopClass = LoopClass::StraightLine;
    /** Instruction count per kind; the body holds <= 16 insts. */
    std::array<std::uint8_t, kNumInstKinds> instCounts{};
};

/** Classify @p trace (loop class + instruction-type histogram). */
TraceClass classifyTrace(const Trace &trace);

/** One (origin × loop-class) attribution cell. */
struct AttribCell
{
    std::uint64_t builds = 0;
    std::uint64_t hits = 0;
    std::uint64_t firstUses = 0;
    std::uint64_t firstUseLatencySum = 0;
    std::uint64_t evictCapacity = 0;
    std::uint64_t evictRefresh = 0;
    std::uint64_t evictInvalidate = 0;
    std::uint64_t evictClear = 0;
    /** Evicted lines (any reason) that never served a fetch. */
    std::uint64_t evictedUnused = 0;
    /** Instructions inserted, decanted by kind (builds-weighted). */
    std::array<std::uint64_t, kNumInstKinds> instBuilt{};
    /** Instructions served by fetches, decanted by kind. */
    std::array<std::uint64_t, kNumInstKinds> instServed{};

    std::uint64_t
    evictions() const
    {
        return evictCapacity + evictRefresh + evictInvalidate +
               evictClear;
    }

    /** Accumulate another cell field-wise. */
    void add(const AttribCell &other);
};

/** The full (origin × loop-class) attribution ledger of one cache. */
struct AttribTable
{
    std::array<AttribCell, kNumOrigins * kNumLoopClasses> cells;

    AttribCell &
    of(TraceOrigin origin, LoopClass cls)
    {
        return cells[static_cast<std::size_t>(origin) *
                         kNumLoopClasses +
                     static_cast<std::size_t>(cls)];
    }

    const AttribCell &
    of(TraceOrigin origin, LoopClass cls) const
    {
        return const_cast<AttribTable *>(this)->of(origin, cls);
    }

    /**
     * Sum one origin's loop-class cells. The reconciliation
     * contract pins this against the origin's OriginProvenance row
     * field by field.
     */
    AttribCell originSum(TraceOrigin origin) const;

    /** Accumulate another table cell-wise (bench aggregation). */
    void add(const AttribTable &other);

    bool allZero() const;
};

/**
 * The table as a JSON object keyed origin -> loop class, e.g.
 *   {"fill": {"loop_body": {"builds": N, ...,
 *             "inst_built": {"cond_branch": N, ...},
 *             "inst_served": {...}}, ...}, "precon": {...}}
 * Used by the BENCH JSON rows and the aggregate report section.
 */
std::string renderAttribJson(const AttribTable &table);

/**
 * The TPRE_ATTRIB knob: unset or "1" enables attribution, "0"
 * disables it, anything else is fatal (parseFlag). Parsed on
 * every call — callers
 * that need a stable answer (the TraceCache) sample it once at
 * construction.
 */
bool attribDefaultEnabled();

} // namespace tpre

#endif // TPRE_TELEMETRY_ATTRIB_HH

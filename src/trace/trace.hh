/**
 * @file
 * Trace and TraceId: the unit of storage and prediction in a trace
 * processor. A trace is a snapshot of up to 16 consecutive dynamic
 * instructions; it is identified by its starting address plus the
 * outcomes of the conditional branches it embeds (Rotenberg et al.,
 * MICRO'96).
 */

#ifndef TPRE_TRACE_TRACE_HH
#define TPRE_TRACE_TRACE_HH

#include <functional>

#include "common/inline_vec.hh"
#include "isa/instruction.hh"
#include "mem/checkpoint.hh"
#include "telemetry/provenance.hh"

namespace tpre
{

/**
 * Identity of a trace: start PC, embedded conditional branch
 * outcomes (bit i = i-th branch taken) and branch count. Both the
 * trace cache and the preconstruction buffers index by a hash of
 * all three fields (Section 3.1 of the paper).
 *
 * The hash is cached alongside the identity: every frontend probe
 * (trace cache, preconstruction buffers, working-set tracking)
 * hashes the same id, so mixing the three fields on each lookup
 * was measurable on the per-trace hot path. The cache fills at
 * construction (three-field constructor) or on first use; code
 * that mutates the public identity fields in place (the trace
 * builder, tests) must not have observed hash() beforehand —
 * builders assemble the id first and hash only finished traces.
 */
struct TraceId
{
    Addr startPc = invalidAddr;
    std::uint16_t branchFlags = 0;
    std::uint8_t numBranches = 0;

    TraceId() = default;
    TraceId(Addr pc, std::uint16_t flags, std::uint8_t branches)
        : startPc(pc), branchFlags(flags), numBranches(branches)
    {
        hash_ = computeHash();
    }

    bool
    operator==(const TraceId &other) const
    {
        return startPc == other.startPc &&
               branchFlags == other.branchFlags &&
               numBranches == other.numBranches;
    }

    bool valid() const { return startPc != invalidAddr; }

    /** Well-mixed hash over all identity fields (cached). */
    std::uint64_t
    hash() const
    {
        if (hash_ == kNoHash)
            hash_ = computeHash();
        return hash_;
    }

    /** Recompute the cached hash after in-place field mutation. */
    void rehash() const { hash_ = computeHash(); }

  private:
    /**
     * Sentinel for "not yet computed". computeHash() can produce 0
     * for one adversarial identity; that id merely recomputes per
     * call, it is never wrong.
     */
    static constexpr std::uint64_t kNoHash = 0;

    std::uint64_t computeHash() const;

    mutable std::uint64_t hash_ = kNoHash;
};

/** One instruction inside a trace, with its original address. */
struct TraceInst
{
    Addr pc = 0;
    Instruction inst;
    /** Embedded outcome for conditional branches. */
    bool taken = false;
    /**
     * Position of the original instruction this one derives from;
     * preprocessing may reorder or rewrite instructions, and the
     * timing backend uses this to find the matching dynamic
     * record (e.g. load effective addresses).
     */
    std::uint8_t srcPos = 0;
};

/** Why a trace ended; used by selection tests and stats. */
enum class TraceEndReason : std::uint8_t
{
    MaxLength,      ///< hit the 16-instruction cap
    Alignment,      ///< multiple-of-4-beyond-backward-branch rule
    Return,         ///< ends in a procedure return
    IndirectJump,   ///< ends in an indirect jump (target unknown)
    Halt,           ///< program end
};

/** Inline fixed-capacity trace body (no heap allocation). */
using TraceBody = InlineVec<TraceInst, kMaxTraceLen>;

/** A completed trace. */
struct Trace
{
    TraceId id;
    TraceBody insts;
    /**
     * Address of the instruction that follows the trace along its
     * embedded path; invalidAddr when the trace ends in an indirect
     * jump or return (successor not embedded).
     */
    Addr fallThrough = invalidAddr;
    TraceEndReason endReason = TraceEndReason::MaxLength;
    /** Set once trace preprocessing has transformed the body. */
    bool preprocessed = false;
    /**
     * Provenance: who assembled this trace. The demand path leaves
     * the default; the preconstruction engine stamps Precon (and
     * the construction cycle) in emitTrace(), and the stamp rides
     * along through buffers, promotion and preprocessing so the
     * trace cache can attribute every line's outcome to a builder.
     */
    TraceOrigin origin = TraceOrigin::FillUnit;
    /** Cycle the builder finished assembling the trace. */
    Cycle buildCycle = 0;

    unsigned len() const { return insts.size(); }
    bool endsInReturn() const
    { return endReason == TraceEndReason::Return; }
    bool
    containsCall() const
    {
        for (const TraceInst &ti : insts)
            if (ti.inst.isCall())
                return true;
        return false;
    }
    bool endsInIndirect() const
    { return endReason == TraceEndReason::IndirectJump; }
};

/**
 * Checkpoint codec for an Instruction, field by field: its padding
 * never reaches the bytes, so equal instructions save equal bytes.
 */
inline void
saveInst(mem::ByteWriter &w, const Instruction &inst)
{
    w.put(inst.op);
    w.put(inst.rd);
    w.put(inst.rs1);
    w.put(inst.rs2);
    w.put(inst.imm);
    w.put(inst.sh1);
    w.put(inst.sh2);
}

inline Instruction
restoreInst(mem::ByteReader &r)
{
    // Braced initializers evaluate left to right, in field order.
    return {r.get<Opcode>(),       r.get<RegIndex>(),
            r.get<RegIndex>(),     r.get<RegIndex>(),
            r.get<std::int32_t>(), r.get<std::uint8_t>(),
            r.get<std::uint8_t>()};
}

/**
 * Checkpoint codec for a Trace, field by field like saveInst(): the
 * id without its cached hash (restore recomputes it), then the
 * length-prefixed live prefix of the body.
 */
inline void
saveTrace(mem::ByteWriter &w, const Trace &trace)
{
    w.put(trace.id.startPc);
    w.put(trace.id.branchFlags);
    w.put(trace.id.numBranches);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(trace.len()));
    for (const TraceInst &ti : trace.insts) {
        w.put(ti.pc);
        saveInst(w, ti.inst);
        w.put(ti.taken);
        w.put(ti.srcPos);
    }
    w.put(trace.fallThrough);
    w.put(trace.endReason);
    w.put(trace.preprocessed);
    w.put(trace.origin);
    w.put(trace.buildCycle);
}

inline void
restoreTrace(mem::ByteReader &r, Trace &trace)
{
    trace.id = TraceId{r.get<Addr>(), r.get<std::uint16_t>(),
                       r.get<std::uint8_t>()};
    const auto n = r.get<std::uint8_t>();
    if (n > kMaxTraceLen)
        fatal("restoreTrace: body length %u exceeds %u", n,
              kMaxTraceLen);
    trace.insts.clear();
    for (std::uint8_t i = 0; i < n; ++i) {
        trace.insts.push_back({r.get<Addr>(), restoreInst(r),
                               r.get<bool>(), r.get<std::uint8_t>()});
    }
    trace.fallThrough = r.get<Addr>();
    trace.endReason = r.get<TraceEndReason>();
    trace.preprocessed = r.get<bool>();
    trace.origin = r.get<TraceOrigin>();
    trace.buildCycle = r.get<Cycle>();
}

} // namespace tpre

/** Hash full trace identities (working-set sets, diagnostics). */
template <>
struct std::hash<tpre::TraceId>
{
    std::size_t
    operator()(const tpre::TraceId &id) const noexcept
    {
        return static_cast<std::size_t>(id.hash());
    }
};

#endif // TPRE_TRACE_TRACE_HH

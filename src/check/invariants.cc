#include "check/invariants.hh"

#include <array>
#include <bit>
#include <cstddef>
#include <cstring>
#include <sstream>
#include <unordered_set>

#include "common/logging.hh"
#include "common/random.hh"
#include "isa/disasm.hh"
#include "tproc/trace_supply.hh"

namespace tpre::check
{

void
enforce(const Violation &v, const char *where)
{
    if (v)
        panic("invariant violated at %s: %s", where, v->c_str());
}

namespace
{

/** Format helper: everything streams into one message. */
class Msg
{
  public:
    template <typename T>
    Msg &
    operator<<(const T &value)
    {
        os_ << value;
        return *this;
    }

    operator Violation() const { return os_.str(); }

  private:
    std::ostringstream os_;
};

/** What the checks need of a slot; one table load, no branches. */
struct SlotClass
{
    std::uint8_t cond; ///< 1 for a conditional branch
    std::uint8_t hard; ///< 1 for a hard terminator (selection rule 1)
    /** instBytes when the embedded path follows the target, else 0. */
    std::uint8_t targetScale;
};

/** SlotClass at 2 * opcode byte + taken, from opcode masks. Bytes
 *  past the last opcode are plain instructions, as predicates say. */
constexpr auto slotClasses = [] {
    constexpr std::uint32_t condOps =
        (opBit(Opcode::Bge) << 1) - opBit(Opcode::Beq);
    std::array<SlotClass, 512> table{};
    for (unsigned op = 0; op < unsigned(Opcode::NumOpcodes); ++op) {
        const std::uint32_t bit = opBit(static_cast<Opcode>(op));
        const bool cond = bit & condOps, jump = bit & opBit(Opcode::Jal);
        const bool hard = bit & (opBit(Opcode::Jalr) | opBit(Opcode::Halt));
        table[2 * op] = {cond, hard, std::uint8_t(jump ? instBytes : 0)};
        table[2 * op + 1] = {cond, hard,
                             std::uint8_t(jump || cond ? instBytes : 0)};
    }
    return table;
}();

const SlotClass &
classOf(const TraceInst &ti)
{
    return slotClasses[2u * static_cast<std::uint8_t>(ti.inst.op) +
                       ti.taken];
}

/**
 * The address execution reaches after @p ti, along the embedded
 * path; invalidAddr when it cannot be derived statically (indirect
 * targets).
 */
Addr
embeddedNext(const TraceInst &ti)
{
    const SlotClass &cls = classOf(ti);
    const Addr next = ti.pc + instBytes +
                      Addr(std::int64_t(ti.inst.imm) * cls.targetScale);
    return cls.hard ? invalidAddr : next;
}

/** Re-derive the TraceBuilder's rule-2/3 target length. */
unsigned
ruleTargetLen(const SelectionPolicy &policy, int lastBackward)
{
    if (lastBackward < 0 || policy.alignGranule == 0)
        return policy.maxLen;
    const unsigned beyond = static_cast<unsigned>(lastBackward) + 1;
    const unsigned room = policy.maxLen - beyond;
    return beyond + policy.alignGranule * (room / policy.alignGranule);
}

/** The accept path of traceWellFormed(): every rule of
 *  explainWellFormed() in one pass with no branch per slot. */
bool
wellFormedFast(const Trace &t, const SelectionPolicy &policy,
               bool partial)
{
    // A stored trace cannot embed more than 16 branches.
    static_assert(TraceBody::capacity() <= 16);
    const unsigned n = t.len();
    if (!t.id.valid() || n == 0 || n > policy.maxLen ||
        t.id.startPc != t.insts.front().pc)
        return false;

    // Last slot first, so each branch outcome shifted in at bit 0
    // ends up where id.branchFlags keeps it.
    unsigned branches = 0;
    std::uint32_t flags = 0;
    std::uint32_t backward = 0; // bit i: slot i is a backward branch
    auto account = [&](const TraceInst &ti) {
        const SlotClass &cls = classOf(ti);
        flags = cls.cond ? flags << 1 | ti.taken : flags;
        branches += cls.cond;
        backward = backward << 1 |
                   (cls.cond & (std::uint32_t(ti.inst.imm) >> 31));
        return cls.hard;
    };
    const TraceInst *slot = t.insts.data();
    const TraceInst &last = slot[n - 1];
    const bool lastHard = account(last);
    std::uint64_t pathBad = 0;
    for (unsigned i = n - 1; i-- > 0;)
        pathBad |= account(slot[i]) | (slot[i].srcPos ^ i) |
                   (embeddedNext(slot[i]) ^ slot[i + 1].pc);
    if (branches != t.id.numBranches || flags != t.id.branchFlags)
        return false;
    if (t.preprocessed)
        return true;
    if (pathBad)
        return false;

    if (lastHard) {
        const TraceEndReason reason =
            last.inst.isReturn()          ? TraceEndReason::Return
            : last.inst.isIndirectJump() ? TraceEndReason::IndirectJump
                                         : TraceEndReason::Halt;
        return t.endReason == reason && t.fallThrough == invalidAddr;
    }
    if (t.fallThrough != embeddedNext(last))
        return false;
    if (partial)
        return t.endReason == TraceEndReason::MaxLength ||
               t.endReason == TraceEndReason::Alignment;
    const int lastBackward = int(std::bit_width(backward)) - 1;
    const unsigned target = ruleTargetLen(policy, lastBackward);
    const bool aligned = lastBackward >= 0 && target != policy.maxLen;
    return n == target &&
           t.endReason == (aligned ? TraceEndReason::Alignment
                                   : TraceEndReason::MaxLength);
}

/** The message for a rejected trace: the rules in their documented
 *  order, so it names the first that fails. */
[[gnu::cold, gnu::noinline]] Violation
explainWellFormed(const Trace &t, const SelectionPolicy &policy,
                  bool partial)
{
    if (!t.id.valid())
        return Msg() << "trace-well-formed: invalid TraceId";
    if (t.insts.empty())
        return Msg() << "trace-well-formed: empty trace @0x"
                     << std::hex << t.id.startPc;
    if (t.len() > policy.maxLen)
        return Msg() << "trace-well-formed: length " << t.len()
                     << " exceeds policy cap " << policy.maxLen;
    if (t.id.startPc != t.insts.front().pc)
        return Msg() << "trace-well-formed: id.startPc 0x" << std::hex
                     << t.id.startPc << " != first inst pc 0x"
                     << t.insts.front().pc;

    // Branch accounting: flags mirror the embedded outcomes.
    unsigned branches = 0;
    std::uint16_t flags = 0;
    int last_backward = -1;
    for (unsigned i = 0; i < t.len(); ++i) {
        const TraceInst &ti = t.insts[i];
        if (!ti.inst.isCondBranch())
            continue;
        if (branches >= 16)
            return Msg() << "trace-well-formed: more than 16 "
                            "embedded branches";
        if (ti.taken)
            flags |= std::uint16_t(1) << branches;
        ++branches;
        if (ti.inst.isBackwardBranch())
            last_backward = static_cast<int>(i);
    }
    if (branches != t.id.numBranches)
        return Msg() << "trace-well-formed: id.numBranches "
                     << unsigned(t.id.numBranches) << " but trace embeds "
                     << branches << " conditional branches";
    if (flags != t.id.branchFlags)
        return Msg() << "trace-well-formed: id.branchFlags 0x"
                     << std::hex << t.id.branchFlags
                     << " disagree with embedded outcomes 0x" << flags;

    // Preprocessing may rewrite, reorder and delete instructions;
    // only the identity checks above survive it.
    if (t.preprocessed)
        return std::nullopt;

    // Path contiguity and hard terminators only in the last slot.
    for (unsigned i = 0; i + 1 < t.len(); ++i) {
        const TraceInst &ti = t.insts[i];
        if (classOf(ti).hard)
            return Msg() << "trace-well-formed: "
                         << disassemble(ti.inst, ti.pc)
                         << " terminates mid-trace at slot " << i;
        const Addr next = embeddedNext(ti);
        if (t.insts[i + 1].pc != next)
            return Msg() << "trace-well-formed: path break after "
                         << "slot " << i << " (0x" << std::hex << ti.pc
                         << " -> expected 0x" << next << ", embedded 0x"
                         << t.insts[i + 1].pc << ")";
        if (ti.srcPos != i)
            return Msg() << "trace-well-formed: srcPos "
                         << unsigned(ti.srcPos) << " at slot " << i
                         << " of an unpreprocessed trace";
    }

    // End reason vs. the last instruction, and fall-through.
    const TraceInst &last = t.insts.back();
    const bool last_hard = classOf(last).hard;
    switch (t.endReason) {
      case TraceEndReason::Return:
        if (!last.inst.isReturn())
            return Msg() << "trace-well-formed: endReason Return but "
                            "last inst is "
                         << disassemble(last.inst, last.pc);
        break;
      case TraceEndReason::IndirectJump:
        if (!last.inst.isIndirectJump() || last.inst.isReturn())
            return Msg() << "trace-well-formed: endReason "
                            "IndirectJump but last inst is "
                         << disassemble(last.inst, last.pc);
        break;
      case TraceEndReason::Halt:
        if (last.inst.op != Opcode::Halt)
            return Msg() << "trace-well-formed: endReason Halt but "
                            "last inst is "
                         << disassemble(last.inst, last.pc);
        break;
      case TraceEndReason::MaxLength:
      case TraceEndReason::Alignment:
        if (last_hard)
            return Msg() << "trace-well-formed: length-based "
                            "endReason but last inst "
                         << disassemble(last.inst, last.pc)
                         << " is a hard terminator";
        break;
    }
    if (last_hard) {
        if (t.fallThrough != invalidAddr)
            return Msg() << "trace-well-formed: fallThrough 0x"
                         << std::hex << t.fallThrough
                         << " set on a hard-terminated trace";
    } else {
        if (t.fallThrough != embeddedNext(last))
            return Msg() << "trace-well-formed: fallThrough 0x"
                         << std::hex << t.fallThrough
                         << " != successor 0x" << embeddedNext(last)
                         << " of the last instruction";
    }

    // Selection rules 2/3: a non-hard-terminated trace ends exactly
    // at the alignment/length target (unless flushed mid-assembly).
    if (!last_hard && !partial) {
        const unsigned target = ruleTargetLen(policy, last_backward);
        if (t.len() != target)
            return Msg() << "trace-well-formed: length " << t.len()
                         << " violates the selection rules (target "
                         << target << ", lastBackward " << last_backward
                         << ", granule " << policy.alignGranule << ")";
        const bool aligned =
            last_backward >= 0 && target != policy.maxLen;
        const TraceEndReason want = aligned ? TraceEndReason::Alignment
                                            : TraceEndReason::MaxLength;
        if (t.endReason != want)
            return Msg() << "trace-well-formed: endReason "
                         << unsigned(static_cast<std::uint8_t>(
                                t.endReason))
                         << " but the selection rules demand "
                         << unsigned(static_cast<std::uint8_t>(want));
    }
    return std::nullopt;
}

/** Nonzero iff two slots differ in pc, taken or an instruction
 *  field. The fields fill the instruction's first ten bytes, read
 *  as two words; its two padding bytes are never read. */
std::uint64_t
slotDiff(const TraceInst &a, const TraceInst &b)
{
    static_assert(offsetof(Instruction, sh2) == 9);
    std::uint64_t a0, b0;
    std::uint16_t a1, b1;
    std::memcpy(&a0, &a.inst, 8);
    std::memcpy(&b0, &b.inst, 8);
    std::memcpy(&a1, &a.inst.sh1, 2);
    std::memcpy(&b1, &b.inst.sh1, 2);
    return (a.pc ^ b.pc) | (a0 ^ b0) | std::uint16_t(a1 ^ b1) |
           std::uint64_t(a.taken != b.taken);
}

/** The message for a mismatch, naming the first one. */
[[gnu::cold, gnu::noinline]] Violation
explainMismatch(const Trace &expected, const Trace &served)
{
    if (!(expected.id == served.id))
        return Msg() << "served-trace: identity mismatch (@0x"
                     << std::hex << expected.id.startPc << " flags 0x"
                     << expected.id.branchFlags << "/"
                     << std::dec << unsigned(expected.id.numBranches)
                     << " vs @0x" << std::hex << served.id.startPc
                     << " flags 0x" << served.id.branchFlags << "/"
                     << std::dec << unsigned(served.id.numBranches)
                     << ")";
    // Preprocessed traces are compared by the architectural
    // equivalence checker instead (content legitimately differs).
    if (served.preprocessed)
        return std::nullopt;
    if (expected.len() != served.len())
        return Msg() << "served-trace: @0x" << std::hex
                     << expected.id.startPc << std::dec << " length "
                     << served.len() << " served for demanded length "
                     << expected.len();
    for (unsigned i = 0; i < expected.len(); ++i) {
        const TraceInst &a = expected.insts[i];
        const TraceInst &b = served.insts[i];
        if (a.pc != b.pc || !(a.inst == b.inst) || a.taken != b.taken)
            return Msg() << "served-trace: @0x" << std::hex
                         << expected.id.startPc << " slot " << std::dec
                         << i << " demanded '"
                         << disassemble(a.inst, a.pc) << "' (pc 0x"
                         << std::hex << a.pc << ", taken " << a.taken
                         << ") but served '"
                         << disassemble(b.inst, b.pc) << "' (pc 0x"
                         << b.pc << ", taken " << b.taken << ")";
    }
    if (expected.fallThrough != served.fallThrough)
        return Msg() << "served-trace: @0x" << std::hex
                     << expected.id.startPc << " fallThrough 0x"
                     << served.fallThrough << " served, 0x"
                     << expected.fallThrough << " demanded";
    return std::nullopt;
}

} // namespace

Violation
traceWellFormed(const Trace &t, const SelectionPolicy &policy,
                bool partial)
{
    if (wellFormedFast(t, policy, partial)) [[likely]]
        return std::nullopt;
    return explainWellFormed(t, policy, partial);
}

Violation
tracesMatch(const Trace &expected, const Trace &served)
{
    // Accept path: one difference word, no branch per field.
    if (expected.id == served.id && served.preprocessed)
        return std::nullopt;
    if (expected.id == served.id && expected.len() == served.len() &&
        expected.fallThrough == served.fallThrough) {
        std::uint64_t diff = 0;
        for (unsigned i = 0; i < expected.len(); ++i)
            diff |= slotDiff(expected.insts.data()[i],
                             served.insts.data()[i]);
        if (diff == 0) [[likely]]
            return std::nullopt;
    }
    return explainMismatch(expected, served);
}

Violation
tracesArchEquivalent(const Trace &original, const Trace &processed,
                     std::uint64_t seed)
{
    // Identical randomized register files; memory starts empty in
    // both, so value agreement at every touched address implies the
    // store streams agree too.
    Rng rng(seed);
    ArchState sa, sb;
    for (RegIndex r = 1; r < numArchRegs; ++r) {
        const RegValue v = rng.next();
        sa.setReg(r, v);
        sb.setReg(r, v);
    }

    std::unordered_set<Addr> touched;
    auto run = [&touched](const Trace &t, ArchState &state) {
        for (const TraceInst &ti : t.insts) {
            const ExecResult res = executeInst(ti.inst, ti.pc, state);
            if (ti.inst.isLoad() || ti.inst.isStore())
                touched.insert(res.effAddr & ~Addr(7));
        }
    };
    run(original, sa);
    run(processed, sb);

    for (RegIndex r = 0; r < numArchRegs; ++r) {
        if (sa.reg(r) != sb.reg(r))
            return Msg() << "arch-equivalence: r" << unsigned(r)
                         << " = 0x" << std::hex << sb.reg(r)
                         << " after the processed trace @0x"
                         << original.id.startPc << ", 0x" << sa.reg(r)
                         << " after the original";
    }
    for (Addr addr : touched) {
        if (sa.mem.read(addr) != sb.mem.read(addr))
            return Msg() << "arch-equivalence: mem[0x" << std::hex
                         << addr << "] = 0x" << sb.mem.read(addr)
                         << " after the processed trace @0x"
                         << original.id.startPc << ", 0x"
                         << sa.mem.read(addr)
                         << " after the original";
    }
    return std::nullopt;
}

Violation
buffersWellFormed(const PreconstructionBuffers &buffers,
                  const SelectionPolicy &policy)
{
    Violation found;
    buffers.forEachValid([&](const Trace &t, std::uint64_t seq) {
        if (found)
            return;
        if (Violation v = traceWellFormed(t, policy))
            found = Msg() << "precon-buffers: entry of region " << seq
                          << ": " << *v;
    });
    return found;
}

Violation
rasWellFormed(const ReturnAddressStack &ras)
{
    if (ras.depth() == 0)
        return Msg() << "ras: zero depth";
    if (ras.size() > ras.depth())
        return Msg() << "ras: size " << ras.size()
                     << " exceeds depth " << ras.depth();
    if (ras.empty() != (ras.size() == 0))
        return Msg() << "ras: empty() disagrees with size() = "
                     << ras.size();
    if (ras.empty() && ras.top() != invalidAddr)
        return Msg() << "ras: top() of an empty stack is 0x"
                     << std::hex << ras.top();
    return std::nullopt;
}

Violation
streamCallRetBalanced(const std::vector<DynInst> &stream, bool halted)
{
    std::int64_t depth = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const DynInst &dyn = stream[i];
        if (dyn.inst.isCall())
            ++depth;
        else if (dyn.inst.isReturn() && --depth < 0)
            return Msg() << "call-ret-balance: return at stream index "
                         << i << " (pc 0x" << std::hex << dyn.pc
                         << ") with no matching call";
    }
    if (halted && depth != 0)
        return Msg() << "call-ret-balance: halted stream ends at call "
                        "depth " << depth;
    return std::nullopt;
}

namespace
{

/** One exact equality of the provenance contract. */
Violation
provEq(const char *what, std::uint64_t provValue,
       std::uint64_t statsValue)
{
    if (provValue == statsValue)
        return std::nullopt;
    return Msg() << "provenance-reconcile: " << what
                 << ": ledger says " << provValue
                 << " but stats say " << statsValue;
}

} // namespace

Violation
provenanceReconciles(const ProvenanceTable &prov,
                     std::uint64_t tcHits, std::uint64_t pbHits,
                     std::uint64_t tcMisses,
                     std::uint64_t residentValid)
{
    const OriginProvenance &fill = prov.of(TraceOrigin::FillUnit);
    const OriginProvenance &pre = prov.of(TraceOrigin::Precon);

    if (auto v = provEq("fill builds vs tcMisses", fill.builds,
                        tcMisses)) {
        return v;
    }
    if (auto v = provEq("precon builds vs pbHits", pre.builds,
                        pbHits)) {
        return v;
    }
    if (auto v = provEq("per-origin hits vs tcHits + pbHits",
                        fill.hits + pre.hits, tcHits + pbHits)) {
        return v;
    }
    // A promoted line serves the fetch that promoted it, so every
    // precon build is used immediately and none can die unused.
    if (auto v = provEq("precon firstUses vs precon builds",
                        pre.firstUses, pre.builds)) {
        return v;
    }
    if (auto v = provEq("precon evictedUnused", pre.evictedUnused,
                        0)) {
        return v;
    }
    if (auto v = provEq("resident lines vs valid entries",
                        prov.resident(), residentValid)) {
        return v;
    }
    for (std::size_t i = 0; i < kNumOrigins; ++i) {
        const OriginProvenance &o = prov.origins[i];
        const char *name =
            traceOriginName(static_cast<TraceOrigin>(i));
        if (o.firstUses > o.builds) {
            return Msg() << "provenance-reconcile: " << name
                         << " firstUses " << o.firstUses
                         << " exceeds builds " << o.builds;
        }
        if (o.firstUses > o.hits) {
            return Msg() << "provenance-reconcile: " << name
                         << " firstUses " << o.firstUses
                         << " exceeds hits " << o.hits;
        }
        if (o.evictions() > o.builds) {
            return Msg() << "provenance-reconcile: " << name
                         << " evictions " << o.evictions()
                         << " exceed builds " << o.builds;
        }
    }
    return std::nullopt;
}

namespace
{

/** One exact equality of the attribution contract. */
Violation
attribEq(const char *origin, const char *what,
         std::uint64_t cellSum, std::uint64_t provValue)
{
    if (cellSum == provValue)
        return std::nullopt;
    return Msg() << "attrib-reconcile: " << origin << " " << what
                 << ": summed cells say " << cellSum
                 << " but the provenance ledger says " << provValue;
}

std::uint64_t
kindSum(const std::array<std::uint64_t, kNumInstKinds> &counts)
{
    std::uint64_t n = 0;
    for (std::uint64_t v : counts)
        n += v;
    return n;
}

/**
 * Per-cell structural sanity: a resident trace body holds
 * 1..kMaxTraceLen instructions, so the instruction-type histograms
 * are bounded by the cell's builds and hits, with the usual
 * firstUses/evictions ordering inside each cell.
 */
Violation
cellsBounded(const AttribTable &attrib)
{
    for (std::size_t i = 0; i < kNumOrigins; ++i) {
        const auto origin = static_cast<TraceOrigin>(i);
        for (std::size_t c = 0; c < kNumLoopClasses; ++c) {
            const auto cls = static_cast<LoopClass>(c);
            const AttribCell &cell = attrib.of(origin, cls);
            const std::string where =
                std::string(traceOriginName(origin)) + "/" +
                loopClassName(cls);
            const std::uint64_t built = kindSum(cell.instBuilt);
            const std::uint64_t served = kindSum(cell.instServed);
            if (built < cell.builds ||
                built > cell.builds * kMaxTraceLen) {
                return Msg()
                       << "attrib-reconcile: " << where
                       << " instBuilt sum " << built
                       << " outside [builds, 16*builds] for builds "
                       << cell.builds;
            }
            if (served < cell.hits ||
                served > cell.hits * kMaxTraceLen) {
                return Msg()
                       << "attrib-reconcile: " << where
                       << " instServed sum " << served
                       << " outside [hits, 16*hits] for hits "
                       << cell.hits;
            }
            if (cell.firstUses > cell.builds) {
                return Msg() << "attrib-reconcile: " << where
                             << " firstUses " << cell.firstUses
                             << " exceed builds " << cell.builds;
            }
            if (cell.firstUses > cell.hits) {
                return Msg() << "attrib-reconcile: " << where
                             << " firstUses " << cell.firstUses
                             << " exceed hits " << cell.hits;
            }
            if (cell.evictions() > cell.builds) {
                return Msg() << "attrib-reconcile: " << where
                             << " evictions " << cell.evictions()
                             << " exceed builds " << cell.builds;
            }
        }
    }
    return std::nullopt;
}

} // namespace

Violation
provenanceReconciles(const SupplyStats &stats, const TraceCache &cache)
{
    const ProvenanceTable prov = cache.provenance();
    if (auto v = provEq("stats table builds vs cache table builds",
                        stats.attrib.provenance().totalBuilds(),
                        prov.totalBuilds())) {
        return v;
    }
    if (auto v = provenanceReconciles(prov, stats.tcHits, stats.pbHits,
                                      stats.tcMisses, cache.numValid()))
        return v;
    return cellsBounded(cache.attrib());
}

Violation
attribReconciles(const AttribTable &attrib,
                 const ProvenanceTable &prov, bool)
{
    for (std::size_t i = 0; i < kNumOrigins; ++i) {
        const auto origin = static_cast<TraceOrigin>(i);
        const char *name = traceOriginName(origin);
        const AttribCell sum = attrib.originSum(origin);
        const OriginProvenance &o = prov.of(origin);
        const std::pair<const char *,
                        std::pair<std::uint64_t, std::uint64_t>>
            rows[] = {
                {"builds", {sum.builds, o.builds}},
                {"hits", {sum.hits, o.hits}},
                {"firstUses", {sum.firstUses, o.firstUses}},
                {"firstUseLatencySum",
                 {sum.firstUseLatencySum, o.firstUseLatencySum}},
                {"evictCapacity",
                 {sum.evictCapacity, o.evictCapacity}},
                {"evictRefresh", {sum.evictRefresh, o.evictRefresh}},
                {"evictInvalidate",
                 {sum.evictInvalidate, o.evictInvalidate}},
                {"evictClear", {sum.evictClear, o.evictClear}},
                {"evictedUnused",
                 {sum.evictedUnused, o.evictedUnused}},
            };
        for (const auto &[what, vals] : rows) {
            if (auto v =
                    attribEq(name, what, vals.first, vals.second)) {
                return v;
            }
        }
    }
    return cellsBounded(attrib);
}

} // namespace tpre::check

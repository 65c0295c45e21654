#include "prep/scheduler.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "prep/dataflow.hh"

namespace tpre
{

namespace
{

/** Approximate execution latency used for scheduling heights. */
unsigned
schedLatency(const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::Mul: return 5;
      case Opcode::Div: return 20;
      case Opcode::Ld: return 2;
      default: return 1;
    }
}

/**
 * List-schedule the segment body original[start, start + len) into
 * the same positions of @p out.
 * @return number of instructions that moved.
 */
unsigned
scheduleBody(const TraceBody &original, std::size_t start,
             std::size_t len, TraceBody &out)
{
    // Dependence graph: j depends on an earlier i on a register
    // RAW, WAW or WAR, or when both access memory (no static alias
    // information inside a trace).
    std::array<RegMask, kMaxTraceLen> use{};
    std::array<RegMask, kMaxTraceLen> def{};
    std::array<PosMask, kMaxTraceLen> preds{};
    std::array<PosMask, kMaxTraceLen> succs{};
    PosMask mem = 0;
    for (std::size_t j = 0; j < len; ++j) {
        const Instruction &inst = original[start + j].inst;
        use[j] = useMask(inst);
        def[j] = defMask(inst);
        const bool is_mem = inst.isLoad() || inst.isStore();
        PosMask p = is_mem ? mem : 0;
        for (std::size_t i = 0; i < j; ++i) {
            if ((def[i] & (use[j] | def[j])) | (use[i] & def[j]))
                p |= PosMask{1} << i;
        }
        preds[j] = p;
        for (; p; p &= p - 1)
            succs[std::countr_zero(p)] |= PosMask{1} << j;
        if (is_mem)
            mem |= PosMask{1} << j;
    }

    // Dependence heights (critical-path lengths).
    std::array<unsigned, kMaxTraceLen> height{};
    for (std::size_t i = len; i-- > 0;) {
        unsigned best = 0;
        for (PosMask s = succs[i]; s; s &= s - 1)
            best = std::max(best, height[std::countr_zero(s)]);
        height[i] = best + schedLatency(original[start + i].inst);
    }

    // Greedy list scheduling: repeatedly take the ready
    // instruction with the greatest height (ties: original
    // order, keeping the schedule stable).
    const PosMask all = (PosMask{1} << len) - 1;
    unsigned moved = 0;
    PosMask done = 0;
    for (std::size_t picked = 0; picked < len; ++picked) {
        std::size_t best = len;
        for (PosMask c = all & ~done; c; c &= c - 1) {
            const std::size_t i = std::countr_zero(c);
            if (preds[i] & ~done)
                continue;
            if (best == len || height[i] > height[best])
                best = i;
        }
        tpre_assert(best < len, "scheduling deadlock");
        done |= PosMask{1} << best;
        if (best != picked)
            ++moved;
        out[start + picked] = original[start + best];
    }
    return moved;
}

} // namespace

unsigned
scheduleTrace(Trace &trace)
{
    const std::size_t n = trace.insts.size();
    if (n < 3)
        return 0;

    const TraceBody original = trace.insts;
    unsigned moved = 0;
    std::size_t seg_start = 0;
    while (seg_start < n) {
        // A segment's body runs up to its control instruction,
        // which stays last, so every writer of the control
        // instruction's sources stays before it.
        std::size_t body_end = seg_start;
        while (body_end < n && !original[body_end].inst.isControl())
            ++body_end;
        if (body_end - seg_start >= 2) {
            moved += scheduleBody(original, seg_start,
                                  body_end - seg_start, trace.insts);
        }
        seg_start = body_end + 1;
    }
    return moved;
}

} // namespace tpre

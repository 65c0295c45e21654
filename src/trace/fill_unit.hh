/**
 * @file
 * FillUnit: the processor-side trace constructor. It watches the
 * dynamic instruction stream and segments it into traces using the
 * shared selection rules; completed traces are handed back to the
 * frontend for insertion into the trace cache.
 */

#ifndef TPRE_TRACE_FILL_UNIT_HH
#define TPRE_TRACE_FILL_UNIT_HH

#include "func/core.hh"
#include "trace/selector.hh"

namespace tpre
{

/** Segments the dynamic stream into traces. */
class FillUnit
{
  public:
    explicit FillUnit(SelectionPolicy policy = {});

    /**
     * Feed one dynamic instruction. Starts a new trace
     * automatically when idle. Inline: called once per committed
     * instruction.
     *
     * @return the completed trace when this instruction terminated
     *         one, otherwise nullptr. The trace lives in the fill
     *         unit's builder and stays valid until the next feed —
     *         callers copy or move it onward immediately, which
     *         spares the per-trace hand-off copy an optional
     *         return forced.
     */
    Trace *
    feed(const DynInst &dyn)
    {
        if (!builder_.active())
            builder_.begin(dyn.pc);

        const bool done =
            builder_.append(dyn.inst, dyn.pc, dyn.taken, dyn.nextPc);
        if (!done)
            return nullptr;
        return &builder_.finalize();
    }

    /**
     * Instructions the active trace can still take before the
     * selection rules force termination; a full trace length when
     * idle. Block dispatch chunks straight-line runs to this bound
     * so each feedRun() completes at most one trace.
     */
    unsigned
    roomLeft() const
    {
        return builder_.active() ? builder_.roomLeft()
                                 : builder_.policy().maxLen;
    }

    /**
     * Feed a straight-line run of @p n non-control instructions
     * decoded at @p insts, first address @p pc — the bulk
     * equivalent of n feed() calls (DESIGN.md section 14). Requires
     * 1 <= n <= roomLeft(), so at most one trace completes.
     * Same builder-owned return as feed().
     */
    Trace *
    feedRun(const Instruction *insts, Addr pc, unsigned n)
    {
        if (!builder_.active())
            builder_.begin(pc);
        if (!builder_.appendRun(insts, pc, n))
            return nullptr;
        return &builder_.finalize();
    }

    /** Abandon the in-flight partial trace (pipeline squash). */
    void squash();

    /**
     * Flush a non-empty partial trace (end of simulation); returns
     * nullptr when idle. Same builder-owned return as feed().
     */
    Trace *flush();

    /** Is a trace currently being assembled? */
    bool building() const { return builder_.active(); }

    /** Checkpoint/restore the in-flight builder state. */
    void save(mem::ByteWriter &w) const { builder_.save(w); }
    void restore(mem::ByteReader &r) { builder_.restore(r); }

    const SelectionPolicy &policy() const { return builder_.policy(); }

  private:
    TraceBuilder builder_;
};

} // namespace tpre

#endif // TPRE_TRACE_FILL_UNIT_HH

/**
 * @file
 * TimingBackend: the distributed trace-processor execution engine
 * of Section 4.1 — four processing elements, each holding one
 * 16-instruction trace with 2-way issue, eight global result buses
 * with an extra cycle of cross-PE latency, a 4-ported non-blocking
 * L1 data cache (2-cycle hit, perfect 10-cycle L2) and R10000-like
 * operation latencies. Memory disambiguation is ideal, standing in
 * for the ARB.
 *
 * The backend executes the *actual* dynamic instructions (oracle
 * functional stream) with dependence-accurate timing; control
 * misprediction is modeled by the frontend as fetch stalls until
 * the resolving instruction's completion time, which the backend
 * exposes per instruction.
 */

#ifndef TPRE_TPROC_BACKEND_HH
#define TPRE_TPROC_BACKEND_HH

#include <array>
#include <vector>

#include "cache/set_assoc.hh"
#include "func/core.hh"
#include "trace/trace.hh"

namespace tpre
{

/** Backend configuration; defaults match the paper's Section 4.1. */
struct BackendConfig
{
    unsigned numPes = 4;
    unsigned issuePerPe = 2;
    unsigned resultBuses = 8;
    /** Extra cycles for a result to cross PEs via a bus. */
    unsigned crossPeLatency = 2;
    unsigned dcachePorts = 4;
    unsigned dcachePortsPerPe = 2;
    CacheGeometry dcacheGeometry{64 * 1024, 4, lineBytes};
    Cycle dcacheHitLatency = 2;
    Cycle dcacheMissLatency = 10;
    Cycle mulLatency = 5;
    Cycle divLatency = 20;
};

/**
 * The trace-processor execution engine.
 *
 * The engine is event-driven: tick(now) costs work only for PEs
 * that can issue at @p now, and nextEvent(now) names the next cycle
 * at which tick() or the head's retirement can change anything, so
 * a caller may skip the cycles in between. tick() keeps its
 * cycle-level contract: driven every cycle, or only at event
 * cycles, it produces the same completion times and statistics.
 *
 * Three facts make this cheap and exact:
 *  - handles are dense and retire in order, so the in-flight and
 *    retained traces form one contiguous handle range kept in a
 *    ring indexed by handle (O(1) lookup, no per-dispatch
 *    allocation: a slot's instruction storage is reused);
 *  - each operand's producer is resolved once, at dispatch, and a
 *    PE whose next instruction waits on an unissued producer is
 *    parked on that producer and woken when it issues;
 *  - a PE issues in program order within its trace, stalling at
 *    the first non-ready instruction (which is what makes the
 *    preprocessing pipeline's intra-trace scheduling valuable), so
 *    each PE keeps an issue cursor and the earliest cycle that
 *    instruction's operands and not-before constraint allow.
 */
class TimingBackend
{
  public:
    struct Stats
    {
        std::uint64_t instsIssued = 0;
        std::uint64_t dcacheAccesses = 0;
        std::uint64_t dcacheMisses = 0;
        std::uint64_t busTransfers = 0;
        std::uint64_t busStalls = 0;
    };

    explicit TimingBackend(BackendConfig config = {});

    /** Is a processing element free for dispatch? */
    bool hasFreePe() const { return inflightTraces() < config_.numPes; }

    /**
     * Dispatch a trace into a free PE at cycle @p now. @p dyn are
     * the matching dynamic records in *original* program order
     * (TraceInst::srcPos indexes into them).
     *
     * @return a handle identifying the in-flight trace.
     */
    std::uint64_t dispatch(const Trace &trace,
                           const std::vector<DynInst> &dyn,
                           Cycle now);

    /** Advance execution by one cycle. */
    void tick(Cycle now);

    /**
     * The earliest cycle after @p now at which tick() can issue an
     * instruction or the oldest trace completes; noCompletion when
     * neither can happen without another dispatch. Every cycle
     * strictly between @p now and the result is a no-op for tick()
     * and for retirement.
     */
    Cycle nextEvent(Cycle now) const;

    /** Is the oldest in-flight trace fully executed? */
    bool headDone() const;
    /**
     * Cycle at which the oldest trace's last instruction
     * completes; noCompletion while any instruction is unissued.
     */
    Cycle headCompletionTime() const;
    /** Handle of the oldest in-flight trace (must exist). */
    std::uint64_t headHandle() const;
    /** Retire the oldest trace, freeing its PE. */
    void retireHead();

    bool empty() const { return inflightTraces() == 0; }
    std::size_t
    inflightTraces() const
    {
        return static_cast<std::size_t>(nextHandle_ - headHandle_);
    }

    /**
     * Completion cycle of instruction @p idx (position in the
     * *dispatched* trace) of in-flight or just-retired trace
     * @p handle; invalid (not yet known) completions return
     * noCompletion.
     */
    static constexpr Cycle noCompletion = ~static_cast<Cycle>(0);
    Cycle completionOf(std::uint64_t handle, unsigned idx) const;

    /**
     * Impose an extra not-before constraint on instruction issue
     * (used by the frontend for post-misprediction refetch of a
     * trace suffix).
     */
    void delayInst(std::uint64_t handle, unsigned idx, Cycle notBefore);

    const Stats &stats() const { return stats_; }
    const BackendConfig &config() const { return config_; }

    /**
     * Retired traces whose completion times stay visible to
     * completionOf() and to consumers; older producers read as
     * complete at cycle 0.
     */
    static constexpr unsigned retainedTraces = 16;

  private:
    /** Last writer of an architectural register. */
    struct WriterInfo
    {
        std::uint64_t handle = 0; ///< 0: no writer yet
        unsigned idx = 0;
        unsigned pe = 0;
    };

    /** A source operand, resolved to its producer at dispatch. */
    struct Operand
    {
        std::uint64_t handle = 0; ///< producer trace; 0: none
        std::uint8_t idx = 0;     ///< producer position
        bool cross = false;       ///< produced on another PE
    };

    struct InflightInst
    {
        Opcode op = Opcode::Add;
        bool isMem = false;
        /** Operands produced on another PE (bus transfers). */
        std::uint8_t crossOps = 0;
        Operand src[2];
        Addr effAddr = 0;
        Cycle notBefore = 0;    ///< frontend-imposed constraint
        Cycle completion = noCompletion; ///< set at issue
        /** PEs parked on this instruction (bit per PE). */
        std::uint64_t waiters = 0;
    };

    struct InflightTrace
    {
        unsigned pe = 0;
        unsigned remaining = 0;
        /** Position of the first unissued instruction. */
        unsigned cursor = 0;
        /**
         * Earliest cycle the cursor instruction's operands and
         * not-before constraint allow it to issue; noCompletion
         * while it waits on an unissued producer or when every
         * instruction has issued.
         */
        Cycle wakeAt = noCompletion;
        /** Running max of the issued instructions' completions. */
        Cycle lastCompletion = 0;
        std::vector<InflightInst> insts;
    };

    InflightTrace &slot(std::uint64_t handle)
    { return ring_[handle & ringMask_]; }
    const InflightTrace &slot(std::uint64_t handle) const
    { return ring_[handle & ringMask_]; }
    /** The in-flight or retained trace @p handle, or nullptr. */
    const InflightTrace *findTrace(std::uint64_t handle) const;
    /**
     * Cycle from which @p op's value is usable on its consumer's PE
     * (a producer no longer retained completed at cycle 0);
     * noCompletion while the producer is unissued.
     */
    Cycle availableAt(const Operand &op) const;
    /** Recompute @p t's wakeAt, parking it on an unissued producer. */
    void refreshWake(InflightTrace &t);
    /**
     * Claim result buses and data-cache ports for @p inst; false
     * (a structural stall) when either is exhausted this cycle.
     */
    bool claimResources(const InflightInst &inst, unsigned &busNow,
                        unsigned &portsUsed, unsigned &pePortsUsed);
    void issue(InflightTrace &t, InflightInst &inst, Cycle now);
    void tickInOrder(InflightTrace &t, Cycle now, unsigned &busNow,
                     unsigned &portsUsed);
    void rollBusRing(Cycle now);

    BackendConfig config_;
    SetAssocCache dcache_;
    /**
     * In-flight traces are handles [headHandle_, nextHandle_); the
     * retainedCount_ traces before them are retired but retained.
     */
    std::vector<InflightTrace> ring_;
    std::uint64_t ringMask_ = 0;
    std::uint64_t headHandle_ = 1;
    std::uint64_t nextHandle_ = 1;
    unsigned retainedCount_ = 0;
    std::array<WriterInfo, numArchRegs> lastWriter_;
    std::vector<bool> peBusy_;
    /** The trace each busy PE holds (wakeup targets). */
    std::vector<std::uint64_t> peTrace_;
    /** Result-bus usage per cycle (small ring buffer). */
    std::array<unsigned, 64> busUse_ = {};
    Cycle busRingBase_ = 0;
    Stats stats_;
};

} // namespace tpre

#endif // TPRE_TPROC_BACKEND_HH

/**
 * @file
 * TraceProcessor: the full timing simulation (DESIGN.md section 5,
 * "timing mode") used for Figures 6 and 8. The frontend is driven
 * by the path-based next-trace predictor over the trace cache and
 * preconstruction buffers with a conventional slow path
 * (bimodal + BTB + RAS + I-cache); the backend is the distributed
 * trace-processor execution engine. Optional trace preprocessing
 * runs in the fill path.
 *
 * Modeling approach (documented for reproducibility): the backend
 * executes the *actual* dynamic instructions with dependence-
 * accurate timing. Next-trace mispredictions appear as fetch
 * stalls until the divergence-resolving instruction completes in
 * the backend plus a redirect penalty; wrong-path instructions do
 * not occupy PEs. The predictor's history is advanced with actual
 * trace ids at dispatch (oracle history), which is slightly
 * optimistic but identical across compared configurations.
 */

#ifndef TPRE_TPROC_PROCESSOR_HH
#define TPRE_TPROC_PROCESSOR_HH

#include <array>
#include <deque>

#include "bpred/btb.hh"
#include "bpred/next_trace.hh"
#include "bpred/ras.hh"
#include "check/hooks.hh"
#include "tproc/backend.hh"
#include "tproc/fast_sim.hh"
#include "tproc/trace_supply.hh"

namespace tpre
{

/** Full timing-mode configuration. */
struct ProcessorConfig
{
    std::size_t traceCacheEntries = 256;
    unsigned traceCacheAssoc = 2;
    ICacheConfig icache;
    SelectionPolicy selection;
    NtpConfig ntp;
    BackendConfig backend;
    /** Slow-path fetch bandwidth (instructions/cycle). */
    unsigned slowFetchWidth = 4;
    /** Extra slow-path cycles per mispredicted branch/target. */
    Cycle slowMispredictPenalty = 6;
    /** Squash-to-refetch bubble after a trace misprediction. */
    Cycle redirectPenalty = 3;
    bool preconEnabled = false;
    PreconConfig precon;
    bool prepEnabled = false;
    /** Commit/trace taps for the tpre::check differential oracle. */
    check::SimHooks hooks;
};

/** Timing-mode statistics. */
struct ProcessorStats : SupplyStats
{
    std::uint64_t ntpCorrect = 0;
    std::uint64_t ntpWrong = 0;
    std::uint64_t ntpNone = 0;
    std::uint64_t slowMispredicts = 0;
    TimingBackend::Stats backend;
    Preprocessor::Stats prep;

    double
    ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(instructions) /
                                 static_cast<double>(cycles);
    }
};

/** The full trace processor. */
class TraceProcessor
{
  public:
    TraceProcessor(const Program &program,
                   ProcessorConfig config = {});
    ~TraceProcessor();

    /** Run until @p maxInsts commit or the program halts. */
    const ProcessorStats &run(InstCount maxInsts);

    const ProcessorStats &stats() const { return stats_; }

    /** The primary trace cache (provenance reconciliation). */
    const TraceCache &traceCache() const
    { return supply_.traceCache(); }
    /** The preconstruction engine, or null. */
    const PreconstructionEngine *engine() const
    { return supply_.engine(); }

    /** Instructions the oracle's stream has segmented. */
    InstCount instsSegmented() const
    { return stream_.core().instsExecuted(); }
    /** Traces it has segmented: the dispatched ones and those
     *  still queued. */
    std::uint64_t tracesSegmented() const
    { return stats_.traces + oracle_.size(); }

  private:
    /** One oracle-segmented trace plus its dynamic records. */
    struct PendingTrace
    {
        Trace trace;
        std::vector<DynInst> window;
    };

    /**
     * The oracle lookahead: a fixed ring of pending traces whose
     * slots (window storage included) are reused, so segmenting and
     * dispatching a trace allocates nothing.
     */
    class OracleQueue
    {
      public:
        static constexpr std::size_t capacity = 4;

        std::size_t size() const { return size_; }
        bool empty() const { return size_ == 0; }
        bool full() const { return size_ == capacity; }
        PendingTrace &front() { return slots_[head_]; }
        /** The slot the next push() publishes. */
        PendingTrace &back()
        { return slots_[(head_ + size_) % capacity]; }
        void push() { ++size_; }
        /** Pop the front; its slot stays intact until the next push(). */
        PendingTrace &
        pop()
        {
            PendingTrace &front = slots_[head_];
            head_ = (head_ + 1) % capacity;
            --size_;
            return front;
        }

      private:
        std::array<PendingTrace, capacity> slots_;
        std::size_t head_ = 0;
        std::size_t size_ = 0;
    };

    /** Fetch pipeline state. */
    enum class FetchState : std::uint8_t
    {
        Lookup,       ///< probe TC/PB (or start slow path) now
        WaitResolve,  ///< stalled on a misprediction resolve
        WaitReady,    ///< fetch latency counting down
    };

    /** Queue the stream's next traces, with their commit windows,
     *  until the lookahead is full. */
    void advanceOracle();
    /** The next cycle in which anything can happen. */
    Cycle nextCycle() const;
    /**
     * Bring the precon engine up to cycle @p upTo. The engine is
     * ticked lazily, before the frontend touches state it shares
     * (TC/PB, I-cache, bimodal) and at the end of a run.
     */
    void syncEngine(Cycle upTo);
    void commitCompleted();
    void fetchAndDispatch();
    void doLookup();
    void dispatchFront();
    /** Slow-path fetch cycles for the front trace (with stats). */
    Cycle slowFetch(const PendingTrace &pending);

    ProcessorConfig config_;
    TraceStream stream_;
    TraceSupply supply_;
    Btb btb_;
    ReturnAddressStack ras_;
    NextTracePredictor ntp_;
    TimingBackend backend_;

    OracleQueue oracle_;
    /** The trace image to dispatch for the front pending trace. */
    Trace dispatchTrace_;
    /** Lengths of dispatched-but-uncommitted traces. */
    std::deque<unsigned> dispatchedLens_;
    /** Fetch proceeds with a corrected target after a resolve. */
    bool afterResolve_ = false;

    Cycle now_ = 0;
    /** Last cycle the precon engine has been ticked through. */
    Cycle engineNow_ = 0;
    FetchState fetchState_ = FetchState::Lookup;
    Cycle fetchReadyAt_ = 0;
    bool fetchWasSlow_ = false;
    /** Misprediction resolve target. */
    std::uint64_t resolveHandle_ = 0;
    unsigned resolveIdx_ = 0;
    /** Outcome-mismatch: arm resolve after the next dispatch. */
    bool armResolveAfterDispatch_ = false;
    unsigned armResolveIdx_ = 0;
    /** I-cache port busy (slow path) until this cycle. */
    Cycle slowBusyUntil_ = 0;
    /** The NTP correctly predicted the front trace at the previous
     *  dispatch, so fetch knows its target. */
    bool predValidForFront_ = false;

    ProcessorStats stats_;
};

} // namespace tpre

#endif // TPRE_TPROC_PROCESSOR_HH

/**
 * @file
 * Preprocessor: the trace preprocessing pipeline of Section 6 —
 * constant propagation, fused-ALU targeting and intra-trace
 * scheduling. Runs in the fill path (fill unit and preconstruction
 * constructors), so trace-cache-resident traces are optimized
 * while slow-path dispatch is not: the extended pipeline model.
 */

#ifndef TPRE_PREP_PREPROCESSOR_HH
#define TPRE_PREP_PREPROCESSOR_HH

#include "trace/trace.hh"

namespace tpre
{

/** The trace preprocessing unit: every trace runs all three passes. */
class Preprocessor
{
  public:
    struct Stats
    {
        std::uint64_t tracesProcessed = 0;
        std::uint64_t constsPropagated = 0;
        std::uint64_t opsFused = 0;
        std::uint64_t instsMoved = 0;
    };

    /** Transform a trace in place and mark it preprocessed. */
    void process(Trace &trace);

    const Stats &stats() const { return stats_; }

  private:
    Stats stats_;
};

} // namespace tpre

#endif // TPRE_PREP_PREPROCESSOR_HH

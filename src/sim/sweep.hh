/**
 * @file
 * The paper's standard configuration grids, shared by the benchmark
 * harnesses; par::runParallelSweep runs them through a Simulator.
 */

#ifndef TPRE_SIM_SWEEP_HH
#define TPRE_SIM_SWEEP_HH

#include <vector>

#include "sim/simulator.hh"

namespace tpre
{

/** A (trace cache entries, preconstruction buffer entries) point. */
struct SizePoint
{
    std::size_t tcEntries;
    std::size_t pbEntries;
};

/**
 * The Figure 5 grid: baseline trace caches of 64..1024 entries and
 * equal-split preconstruction configurations at each combined size.
 */
std::vector<SizePoint> figure5Grid();

} // namespace tpre

#endif // TPRE_SIM_SWEEP_HH

/**
 * @file
 * Declarations shared by the benchmark program (tpbench.cc) and its
 * per-layer component drive (layers.cc).
 */

#ifndef TPRE_PERFBENCH_PERFBENCH_HH
#define TPRE_PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace tpb
{

/** One named metric value with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

using Metrics = std::vector<Metric>;

/** Seconds elapsed on the steady clock since @p since. */
inline double
secondsSince(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/**
 * The host's speed now, on the calling thread: one timed run of the
 * benchmark's reference kernel (gauge.cc), as its rate over the rate
 * on the host the benchmark was calibrated on. 1 is that host's
 * typical speed; a reading takes ~4 ms.
 */
double hostSpeed();

/**
 * Host speed over @p threads threads reading it at once, one per CPU
 * where the process may use that many: the median of three readings
 * per thread.
 */
double hostSpeedAll(unsigned threads);

/**
 * Replay one representative row's committed stream through each
 * layer's public functions and time batches of calls. @p row is
 * that row's result from a real Simulator::run (its instruction,
 * trace and cycle counts weight the per-unit costs for
 * tracing.explained_frac). Returns the component-drive metrics,
 * tracing.explained_frac among them.
 */
Metrics driveComponents(const tpre::Program &program,
                        const tpre::SimConfig &config,
                        const tpre::SimResult &row);

} // namespace tpb

#endif // TPRE_PERFBENCH_PERFBENCH_HH

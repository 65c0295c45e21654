/**
 * @file
 * tpre::par::runParallelSweep and friends: the parallel experiment
 * engine behind every bench binary. A sweep is a list of
 * independent (benchmark x SizePoint x config) jobs; the engine
 * shards them across a ThreadPool and collects results in job
 * order, so the output is bit-identical to the serial path — each
 * simulation is a pure function of its SimConfig, the shared
 * workload cache hands every thread the same generated program,
 * and ordered collection removes scheduling nondeterminism.
 *
 * Randomized jobs (fuzzing, randomized ablations) draw from
 * per-job Rng streams derived as Rng(jobSeed(seed, index)), never
 * from shared generator state, which keeps them reproducible under
 * any interleaving.
 */

#ifndef TPRE_PAR_PARALLEL_SWEEP_HH
#define TPRE_PAR_PARALLEL_SWEEP_HH

#include <functional>
#include <vector>

#include "common/random.hh"
#include "sim/sweep.hh"

namespace tpre::par
{

/** Knobs shared by the parallel runners. */
struct SweepOptions
{
    /**
     * Worker threads; <= 1 executes inline on the calling thread
     * (the serial reference path).
     */
    unsigned jobs = 1;
    /** Base seed for the per-job Rng streams. */
    std::uint64_t seed = 0;
    /** Run name shown on the /runs telemetry endpoint. */
    const char *name = "sweep";
    /**
     * Called once per result, strictly in job-index order (a
     * completed job's result is held back until all earlier jobs
     * reported). Invoked under the engine's emission lock, so the
     * callback may print without further synchronization.
     */
    std::function<void(const SimResult &)> onResult;
};

/** Mixed per-job seed: deterministic, decorrelated across jobs. */
std::uint64_t jobSeed(std::uint64_t seed, std::size_t jobIndex);

/**
 * Run body(index, rng) for every index in [0, n) across @p jobs
 * workers, where rng is the job's private Rng(jobSeed(seed, i))
 * stream. Each worker-side invocation carries a "job <i>" log tag.
 * The batch is registered with the telemetry RunRegistry under
 * @p runName for the duration of the call, so /runs reports its
 * progress. Exceptions propagate per ThreadPool::parallelFor
 * semantics.
 */
void runJobs(std::size_t n, unsigned jobs, std::uint64_t seed,
             const std::function<void(std::size_t, Rng &)> &body,
             const char *runName = "jobs");

/**
 * Run every configuration through @p sim, sharded across a pool,
 * returning results in input order (bit-identical to running the
 * same list through a serial loop). Rows with the same stream key
 * (streamKey()) share a job that Simulator::runGroup serves from a
 * single functional pass; with several workers a large group is
 * cut into chunks so the workers stay balanced. Every other row is
 * a job of its own. The /runs progress counts rows, not jobs.
 */
std::vector<SimResult>
runParallelGrid(Simulator &sim,
                const std::vector<SimConfig> &configs,
                const SweepOptions &opts = {});

/**
 * Parallel analogue of runSweep(): same rows, same order. The
 * serial helper remains the reference implementation that
 * par_test.cc compares against.
 */
std::vector<SimResult>
runParallelSweep(Simulator &sim, const SimConfig &base,
                 const std::vector<SizePoint> &points,
                 const SweepOptions &opts = {});

} // namespace tpre::par

#endif // TPRE_PAR_PARALLEL_SWEEP_HH

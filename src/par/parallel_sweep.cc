#include "par/parallel_sweep.hh"

#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "common/logging.hh"
#include "par/thread_pool.hh"
#include "telemetry/run_registry.hh"

namespace tpre::par
{

std::uint64_t
jobSeed(std::uint64_t seed, std::size_t jobIndex)
{
    // Golden-ratio stride through mix64 decorrelates neighbouring
    // jobs even when the base seed is 0 or small.
    return mix64(seed ^ mix64(0x9e3779b97f4a7c15ULL *
                              (std::uint64_t(jobIndex) + 1)));
}

namespace
{

/**
 * Run body(i) for every i in [0, n) across @p jobs workers; each
 * worker-side invocation carries a "job <i>" log tag.
 */
void
forEachJob(std::size_t n, unsigned jobs,
           const std::function<void(std::size_t)> &body)
{
    ThreadPool pool(jobs <= 1 ? 0 : jobs);
    const bool tagged = pool.threads() > 0;
    pool.parallelFor(n, [&](std::size_t i) {
        if (tagged) {
            ScopedLogTag tag("job " + std::to_string(i));
            body(i);
        } else {
            body(i);
        }
    });
}

/**
 * Partition row indices into jobs: rows with the same stream key
 * share a job (in order of first appearance), every other row is a
 * job of its own. With several workers, a group is cut into
 * near-equal chunks of at most ceil(n / (3 x workers)) rows, so a
 * grid of a few large groups still leaves enough jobs to balance
 * the workers. Each chunk repeats the group's functional pass but
 * none of its frontend work, and every grouping gives the same
 * results.
 */
std::vector<std::vector<std::size_t>>
streamGroups(const std::vector<SimConfig> &configs, unsigned jobs)
{
    std::vector<std::vector<std::size_t>> groups;
    std::map<StreamKey, std::size_t> groupOf;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const std::optional<StreamKey> key = streamKey(configs[i]);
        if (!key) {
            groups.push_back({i});
            continue;
        }
        const auto [it, fresh] = groupOf.emplace(*key, groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }
    if (jobs <= 1)
        return groups;

    const std::size_t cap =
        (configs.size() + 3 * jobs - 1) / (3 * jobs);
    std::vector<std::vector<std::size_t>> chunks;
    for (const std::vector<std::size_t> &group : groups) {
        const std::size_t parts = (group.size() + cap - 1) / cap;
        for (std::size_t k = 0; k < parts; ++k) {
            chunks.emplace_back(
                group.begin() + group.size() * k / parts,
                group.begin() + group.size() * (k + 1) / parts);
        }
    }
    return chunks;
}

} // namespace

void
runJobs(std::size_t n, unsigned jobs, std::uint64_t seed,
        const std::function<void(std::size_t, Rng &)> &body,
        const char *runName)
{
    telemetry::RunScope run(runName, n);
    forEachJob(n, jobs, [&](std::size_t i) {
        Rng rng(jobSeed(seed, i));
        body(i, rng);
        run.jobFinished();
    });
}

std::vector<SimResult>
runParallelGrid(Simulator &sim,
                const std::vector<SimConfig> &configs,
                const SweepOptions &opts)
{
    const std::size_t n = configs.size();
    const std::vector<std::vector<std::size_t>> groups =
        streamGroups(configs, opts.jobs);
    std::vector<SimResult> results(n);
    std::mutex emitMu;
    std::size_t nextEmit = 0;
    std::vector<char> done(n, 0);

    // /runs progress counts rows, not groups.
    telemetry::RunScope run(opts.name, n);
    forEachJob(groups.size(), opts.jobs, [&](std::size_t g) {
        const std::vector<std::size_t> &rows = groups[g];
        if (rows.size() == 1) {
            results[rows[0]] = sim.run(configs[rows[0]]);
        } else {
            std::vector<SimConfig> members;
            members.reserve(rows.size());
            for (std::size_t i : rows)
                members.push_back(configs[i]);
            std::vector<SimResult> out = sim.runGroup(members);
            for (std::size_t k = 0; k < rows.size(); ++k)
                results[rows[k]] = std::move(out[k]);
        }
        run.jobFinished(rows.size());
        if (!opts.onResult)
            return;
        std::lock_guard<std::mutex> guard(emitMu);
        for (std::size_t i : rows)
            done[i] = 1;
        while (nextEmit < n && done[nextEmit]) {
            opts.onResult(results[nextEmit]);
            ++nextEmit;
        }
    });
    return results;
}

std::vector<SimResult>
runParallelSweep(Simulator &sim, const SimConfig &base,
                 const std::vector<SizePoint> &points,
                 const SweepOptions &opts)
{
    std::vector<SimConfig> configs;
    configs.reserve(points.size());
    for (const SizePoint &point : points) {
        SimConfig config = base;
        config.traceCacheEntries = point.tcEntries;
        config.preconBufferEntries = point.pbEntries;
        configs.push_back(std::move(config));
    }
    return runParallelGrid(sim, configs, opts);
}

} // namespace tpre::par

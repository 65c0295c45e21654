#include "sim/sweep.hh"

namespace tpre
{

std::vector<SizePoint>
figure5Grid()
{
    std::vector<SizePoint> grid;
    // Baseline trace caches (4 KB .. 64 KB of trace storage).
    for (std::size_t tc : {64, 128, 256, 512, 1024})
        grid.push_back({tc, 0});
    // Preconstruction splits at matched combined sizes; the paper
    // varies the buffer from 32 to 256 entries.
    grid.push_back({64, 32});
    grid.push_back({64, 64});
    grid.push_back({128, 64});
    grid.push_back({128, 128});
    grid.push_back({256, 128});
    grid.push_back({256, 256});
    grid.push_back({512, 256});
    grid.push_back({512, 512});
    return grid;
}

std::vector<SimResult>
runSweep(Simulator &sim, const SimConfig &base,
         const std::vector<SizePoint> &points,
         const std::function<void(const SimResult &)> &onResult)
{
    std::vector<SimResult> results;
    results.reserve(points.size());
    for (const SizePoint &point : points) {
        // The base config is copied whole, so warm-state reuse
        // (base.warmupInsts) applies to every point of the sweep:
        // all rows fork from the same shared warm-up checkpoint,
        // which is valid because the grid only varies frontend
        // shape (tc/pb entries), not the committed stream.
        SimConfig config = base;
        config.traceCacheEntries = point.tcEntries;
        config.preconBufferEntries = point.pbEntries;
        results.push_back(sim.run(config));
        if (onResult)
            onResult(results.back());
    }
    return results;
}

} // namespace tpre

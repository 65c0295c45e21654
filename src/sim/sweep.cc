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

} // namespace tpre

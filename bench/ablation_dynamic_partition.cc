/**
 * @file
 * Trace-cache vs preconstruction storage at equal 32 KB (the
 * paper's Section 5.1): "a single trace cache could be used by
 * simply reserving some entries for preconstruction". With a fixed
 * reservation of w of 4 ways, that single cache is the split design
 * with the same set count: a (4 - w)-way trace cache plus w-way
 * preconstruction buffers. Each benchmark runs three such
 * geometries:
 *   - 512 TC entries, 4 ways, no preconstruction (w = 0);
 *   - 384 TC entries, 3 ways + 128 PB entries, 1 way (w = 1);
 *   - 256 TC + 256 PB, 2 ways each (w = 2, the paper's 50/50).
 * The rows of one benchmark share a stream key, so they run in one
 * shared-stream pass (--jobs N / TPRE_JOBS).
 */

#include "bench_common.hh"

using namespace tpre;

namespace
{

struct Geometry
{
    const char *name;
    std::size_t tcEntries;
    unsigned tcAssoc;
    std::size_t pbEntries;
    unsigned pbAssoc;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness harness("ablation_dynamic_partition", argc,
                           argv);
    bench::banner(
        "Trace-cache vs preconstruction storage at equal 32 KB "
        "(Section 5.1)",
        "reserving a quarter of the ways for preconstruction "
        "beats both no reservation and the 50/50 split");

    Simulator sim;
    const InstCount insts = bench::runLength(1'500'000);
    const Geometry geometries[] = {
        {"512TC/4w, no precon", 512, 4, 0, 2},
        {"384TC/3w + 128PB/1w", 384, 3, 128, 1},
        {"256TC/2w + 256PB/2w", 256, 2, 256, 2},
    };
    const char *names[] = {"gcc", "go", "vortex"};

    std::vector<SimConfig> configs;
    for (const char *name : names) {
        for (const Geometry &g : geometries) {
            SimConfig cfg;
            cfg.benchmark = name;
            cfg.maxInsts = insts;
            cfg.traceCacheEntries = g.tcEntries;
            cfg.traceCacheAssoc = g.tcAssoc;
            cfg.preconBufferEntries = g.pbEntries;
            cfg.precon.bufferAssoc = g.pbAssoc;
            configs.push_back(std::move(cfg));
        }
    }
    const std::vector<SimResult> results =
        par::runParallelGrid(sim, configs, harness.sweepOptions());

    std::size_t idx = 0;
    for (const char *name : names) {
        TableReport table({"design", "misses/1000", "preconHits"});
        for (const Geometry &g : geometries) {
            const SimResult &r = harness.record(results[idx++]);
            table.addRow({g.name, TableReport::num(r.missesPerKi, 2),
                          TableReport::num(r.pbHits)});
        }
        std::printf("\n--- %s ---\n%s", name,
                    table.render().c_str());
    }
    return harness.finish();
}

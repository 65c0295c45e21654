/**
 * @file
 * Ablations of the design choices DESIGN.md calls out, run on gcc
 * and go (fast mode, 128TC + 128PB):
 *   - the multiple-of-4 trace-ending alignment heuristic;
 *   - the loop-exit alignment seeding of region worklists;
 *   - the number of parallel constructors / prefetch caches;
 *   - the region start-point stack depth;
 *   - the decision-stack (fork) depth of the constructors.
 * The 2 x 9 variant grid is sharded across the parallel sweep
 * engine (--jobs N / TPRE_JOBS).
 */

#include "bench_common.hh"

using namespace tpre;

namespace
{

struct Variant
{
    const char *name;
    void (*apply)(SimConfig &);
};

void vBaseline(SimConfig &) {}
void vNoAlign(SimConfig &c) { c.selection.alignGranule = 0; }
void vAlign8(SimConfig &c) { c.selection.alignGranule = 8; }
void vNoSeeds(SimConfig &c) { c.precon.policy.loopExitAlignSeeds = 1; }
void vOneCtor(SimConfig &c)
{
    c.precon.numConstructors = 1;
    c.precon.numPrefetchCaches = 1;
}
void vStack4(SimConfig &c) { c.precon.stackDepth = 4; }
void vStack64(SimConfig &c) { c.precon.stackDepth = 64; }
void vNoForks(SimConfig &c) { c.precon.policy.decisionDepth = 0; }
void vDeepForks(SimConfig &c)
{
    c.precon.policy.decisionDepth = 12;
    c.precon.policy.maxTracesPerStart = 16;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness harness("ablation_heuristics", argc, argv);
    bench::banner(
        "Ablations: preconstruction design choices (fast mode, "
        "128TC+128PB)",
        "alignment rule and loop-exit seeds matter; a single "
        "constructor loses throughput; forks help on weakly "
        "biased code");

    Simulator sim;
    const InstCount insts = bench::runLength(1'500'000);
    const Variant variants[] = {
        {"baseline(4-ctor,align4,seeds4)", vBaseline},
        {"no-alignment-rule", vNoAlign},
        {"alignment-granule-8", vAlign8},
        {"no-loop-exit-seeds", vNoSeeds},
        {"one-constructor", vOneCtor},
        {"stack-depth-4", vStack4},
        {"stack-depth-64", vStack64},
        {"no-forks", vNoForks},
        {"deep-forks", vDeepForks},
    };
    const char *names[] = {"gcc", "go"};

    std::vector<SimConfig> configs;
    for (const char *name : names) {
        for (const Variant &v : variants) {
            SimConfig cfg;
            cfg.benchmark = name;
            cfg.maxInsts = insts;
            cfg.traceCacheEntries = 128;
            cfg.preconBufferEntries = 128;
            v.apply(cfg);
            configs.push_back(std::move(cfg));
        }
    }
    const std::vector<SimResult> results =
        par::runParallelGrid(sim, configs, harness.sweepOptions());

    std::size_t idx = 0;
    for (const char *name : names) {
        TableReport table({"variant", "misses/1000", "pbHits",
                           "tracesBuilt"});
        for (const Variant &v : variants) {
            const SimResult &r = harness.record(results[idx++]);
            table.addRow({v.name,
                          TableReport::num(r.missesPerKi, 2),
                          TableReport::num(r.pbHits),
                          TableReport::num(
                              r.precon.tracesConstructed)});
        }
        std::printf("\n--- %s ---\n%s", name,
                    table.render().c_str());
    }
    return harness.finish();
}

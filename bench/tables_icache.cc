/**
 * @file
 * Tables 1-3: three I-cache metrics of the same four runs — gcc and
 * go, a 512-entry trace cache against a 256-entry trace cache +
 * 256-entry preconstruction buffer. The rows run once and each
 * table prints one column of them:
 *  - Table 1, instructions supplied by the I-cache per 1000
 *    instructions: the paper reports a reduction of over 20% for
 *    both benchmarks;
 *  - Table 2, I-cache misses per 1000 instructions: the paper
 *    reports that preconstruction approximately doubles them (its
 *    prefetching competes for L2), while the absolute numbers stay
 *    small;
 *  - Table 3, instructions supplied by I-cache *misses* per 1000
 *    instructions: the paper reports a large drop (gcc 10 -> 7.1,
 *    go 35 -> 14), because the preconstruction engine prefetches
 *    lines that the slow path then finds resident.
 */

#include "bench_common.hh"

using namespace tpre;

namespace
{

/** One printed table: a SimResult column and how to compare it. */
struct Table
{
    const char *title;
    const char *expectation;
    double SimResult::*metric;
    int precision;
    /** Print the ratio precon/base ("x") instead of the reduction. */
    bool ratio;
};

const Table kTables[] = {
    {"Table 1: instructions supplied by the I-cache (per 1000 "
     "instructions)",
     "gcc: 233 -> 181, go: 326 -> 213 (both drop by >20%)",
     &SimResult::icacheSupplyPerKi, 0, false},
    {"Table 2: I-cache misses (per 1000 instructions)",
     "gcc: 3.0 -> 6.2, go: 7.8 -> 11 (preconstruction roughly "
     "doubles them)",
     &SimResult::icacheMissesPerKi, 1, true},
    {"Table 3: instructions supplied by I-cache misses (per "
     "1000 instructions)",
     "gcc: 10 -> 7.1, go: 35 -> 14 (slow path sees fewer "
     "misses)",
     &SimResult::icacheMissSupplyPerKi, 1, false},
};

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness harness("tables_icache", argc, argv);

    Simulator sim;
    const InstCount insts = bench::runLength(2'000'000);
    const char *names[] = {"gcc", "go"};

    // Two configs per benchmark: 512TC baseline, then 256TC+256PB.
    std::vector<SimConfig> configs;
    for (const char *name : names) {
        SimConfig base;
        base.benchmark = name;
        base.maxInsts = insts;
        base.traceCacheEntries = 512;
        configs.push_back(base);

        SimConfig pre = base;
        pre.traceCacheEntries = 256;
        pre.preconBufferEntries = 256;
        configs.push_back(pre);
    }
    for (SimConfig &cfg : configs)
        harness.applySample(cfg);
    const std::vector<SimResult> results =
        par::runParallelGrid(sim, configs, harness.sweepOptions());
    for (const SimResult &r : results)
        harness.record(r);

    for (const Table &t : kTables) {
        bench::banner(t.title, t.expectation);
        TableReport table({"benchmark", "512TC", "256TC+256PB",
                           t.ratio ? "ratio" : "reduction"});
        for (std::size_t i = 0; i < std::size(names); ++i) {
            const double b = results[2 * i].*t.metric;
            const double p = results[2 * i + 1].*t.metric;
            table.addRow(
                {names[i], TableReport::num(b, t.precision),
                 TableReport::num(p, t.precision),
                 t.ratio ? TableReport::num(p / b, 2) + "x"
                         : TableReport::num(100.0 * (b - p) / b, 1) +
                               "%"});
        }
        std::printf("%s", table.render().c_str());
    }
    return harness.finish();
}

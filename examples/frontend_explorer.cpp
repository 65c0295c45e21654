/**
 * @file
 * Frontend explorer: sweep trace cache and preconstruction buffer
 * sizes for one benchmark and study the frontend, including the
 * trace working set and how the preconstruction engine spent its
 * effort.
 *
 * Usage: frontend_explorer [benchmark] [instructions]
 */

#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "tproc/fast_sim.hh"

using namespace tpre;

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "go";
    const InstCount insts =
        argc > 2 ? static_cast<InstCount>(std::atoll(argv[2]))
                 : 1'000'000;

    Simulator sim;

    // First: characterize the workload's trace working set, the
    // distinct trace identities a trace hook sees.
    const auto wlp = sim.workload(bench, 7);
    const GeneratedWorkload &wl = *wlp;
    std::unordered_set<TraceId> seen;
    FastSimConfig probe_cfg;
    probe_cfg.hooks.onTrace = [&seen](const Trace &demanded,
                                      const Trace &, bool) {
        seen.insert(demanded.id);
    };
    FastSim probe(wl.program, probe_cfg);
    const FastSimStats &pr = probe.run(insts);
    std::printf("benchmark %s: %zu static instructions, %llu "
                "dynamic traces,\n  trace working set = %llu "
                "distinct trace identities (%llu KB if all "
                "cached)\n\n",
                bench.c_str(), wl.totalInsts,
                static_cast<unsigned long long>(pr.traces),
                static_cast<unsigned long long>(seen.size()),
                static_cast<unsigned long long>(
                    seen.size() * maxTraceLen * instBytes / 1024));

    // Then: the Figure 5 sweep for this benchmark, with an effort
    // breakdown of the preconstruction engine.
    SimConfig base;
    base.benchmark = bench;
    base.maxInsts = insts;

    TableReport table({"config", "misses/1000", "pbHits",
                       "regions", "caughtUp", "built",
                       "alreadyInTC"});
    for (const SizePoint &point : figure5Grid()) {
        SimConfig cfg = base;
        cfg.traceCacheEntries = point.tcEntries;
        cfg.preconBufferEntries = point.pbEntries;
        const SimResult r = sim.run(cfg);
        char label[48];
        std::snprintf(label, sizeof(label), "%zuTC+%zuPB",
                      point.tcEntries, point.pbEntries);
        table.addRow(
            {label, TableReport::num(r.missesPerKi, 2),
             TableReport::num(r.pbHits),
             TableReport::num(r.precon.regionsStarted),
             TableReport::num(r.precon.regionsCaughtUp),
             TableReport::num(r.precon.tracesConstructed),
             TableReport::num(r.precon.tracesAlreadyInTc)});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

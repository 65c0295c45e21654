#include "sim/simulator.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "obs/obs.hh"
#include "telemetry/prometheus.hh"
#include "tracefmt/replay.hh"
#include "tracefmt/writer.hh"

namespace tpre
{

SimResult
makeFastResult(const SimConfig &config, const FastSimStats &st)
{
    SimResult result;
    result.config = config;
    result.instructions = st.instructions;
    result.cycles = st.cycles;
    result.traces = st.traces;
    result.tcMisses = st.tcMisses;
    result.pbHits = st.pbHits;
    result.missesPerKi = st.missesPerKiloInst();
    const double ki = static_cast<double>(st.instructions) / 1000.0;
    if (ki > 0) {
        result.icacheSupplyPerKi =
            static_cast<double>(st.slowPathInsts) / ki;
        result.icacheMissesPerKi =
            static_cast<double>(st.icache.totalMisses()) / ki;
        result.icacheMissSupplyPerKi =
            static_cast<double>(st.slowPathInstsFromMisses) / ki;
        result.coverage =
            static_cast<double>(st.instructions -
                                st.slowPathInsts) /
            static_cast<double>(st.instructions);
    }
    result.precon = st.precon;
    result.provenance = st.provenance;
    result.attrib = st.attrib;
    result.blocksDecoded = st.blocks.decoded;
    result.blockHits = st.blocks.hits;
    result.blockInvalidations = st.blocks.invalidations;
    return result;
}

SimResult
makeSampledResult(const SimConfig &config,
                  const sample::SampledRun &run)
{
    if (!run.sampled) {
        SimResult result = makeFastResult(config, run.raw);
        result.sampleFallback = run.fallback;
        return result;
    }

    SimResult result;
    result.config = config;
    result.sampled = true;
    result.sampleWindows = run.windows;
    result.sampledInsts = run.sampledInsts;
    result.skippedInsts = run.skippedInsts;
    // Total forward progress, so mips reports the honest mixed-mode
    // rate; sampled_insts/skipped_insts make the split explicit.
    result.instructions = run.instructions;

    const double ki =
        static_cast<double>(run.instructions) / 1000.0;
    const auto scaled = [ki](double perKi) {
        return static_cast<std::uint64_t>(
            std::llround(std::max(0.0, perKi) * ki));
    };
    result.traces = scaled(run.tracesPerKi.mean);
    // Consistent scaling keeps the tcMisses <= traces invariant;
    // the clamp only absorbs rounding at the last digit.
    result.tcMisses =
        std::min(scaled(run.missesPerKi.mean), result.traces);
    result.pbHits = scaled(run.pbHitsPerKi.mean);
    result.cycles = scaled(run.cyclesPerKi.mean);

    result.missesPerKi = run.missesPerKi.mean;
    result.icacheSupplyPerKi = run.icacheSupplyPerKi.mean;
    result.icacheMissesPerKi = run.icacheMissesPerKi.mean;
    result.icacheMissSupplyPerKi = run.icacheMissSupplyPerKi.mean;
    result.coverage = run.coverage.mean;
    result.ci95MissesPerKi = run.missesPerKi.ci95;
    result.ci95Coverage = run.coverage.ci95;
    result.ci95IcacheMissesPerKi = run.icacheMissesPerKi.ci95;

    // Raw, not extrapolated: these ledgers are internally conserved
    // (preconStatsSane) and cover the detailed portions only.
    result.precon = run.raw.precon;
    result.provenance = run.raw.provenance;
    result.attrib = run.raw.attrib;
    result.blocksDecoded = run.raw.blocks.decoded;
    result.blockHits = run.raw.blocks.hits;
    result.blockInvalidations = run.raw.blocks.invalidations;
    return result;
}

SimResult
replayTrace(const std::string &tptPath, SimConfig config)
{
    tracefmt::TptReader reader =
        tracefmt::TptReader::fromFile(tptPath);
    if (!reader.ok())
        fatal("replay %s: %s", tptPath.c_str(),
              reader.error().c_str());

    config.mode = SimMode::Fast;
    if (!reader.meta().benchmark.empty())
        config.benchmark = reader.meta().benchmark;
    config.workloadSeed = reader.meta().seed;

    TPRE_OBS_WALL_SPAN("sim", "replay");
    TPRE_OBS_COUNT("sim.replays");
    tracefmt::ReplayFrontend frontend(reader, config.toFastConfig());
    const tracefmt::ReplayStats &rs = frontend.run(config.maxInsts);
    if (!frontend.ok())
        fatal("replay %s: %s", tptPath.c_str(),
              frontend.error().c_str());

    SimResult result = makeFastResult(config, rs.fast);
    result.wallSeconds = rs.wallSeconds;
    result.mips = rs.mips();
    TPRE_OBS_COUNT("sim.instructions", result.instructions);
    return result;
}

std::optional<StreamKey>
streamKey(const SimConfig &config)
{
    if (config.mode != SimMode::Fast ||
        config.sampleSpec().resolved().enabled() ||
        !config.tptDump.empty())
        return std::nullopt;
    return StreamKey{config.benchmark, config.workloadSeed,
                     config.selection.maxLen,
                     config.selection.alignGranule,
                     config.warmupInsts, config.maxInsts};
}

namespace
{

/**
 * Stamp the host-side fields of a finished row: wall time and the
 * MIPS it implies, the warm-up outcome, and the row's share of the
 * process-wide ledgers.
 */
void
finishResult(SimResult &result, const SimConfig &config,
             double wallSeconds, bool warmRun,
             const std::string &warmFallback)
{
    result.wallSeconds = wallSeconds;
    if (wallSeconds > 0.0) {
        result.mips = static_cast<double>(result.instructions) /
                      1e6 / wallSeconds;
    }
    result.warm = warmRun;
    result.warmupInsts = config.warmupInsts;
    result.warmFallback = warmFallback;
    TPRE_OBS_COUNT("sim.instructions", result.instructions);
    // Make the run's ledgers visible to a live /metrics scrape.
    telemetry::publishRunLedgers(result.provenance, result.attrib);
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

std::shared_ptr<const GeneratedWorkload>
Simulator::workload(const std::string &benchmark,
                    std::uint64_t seed)
{
    const auto key = std::make_pair(benchmark, seed);
    std::shared_ptr<CacheEntry> entry;
    {
        std::lock_guard<std::mutex> guard(mu_);
        std::shared_ptr<CacheEntry> &slot = workloads_[key];
        if (!slot)
            slot = std::make_shared<CacheEntry>();
        slot->lastUse = ++useClock_;
        entry = slot;
    }
    // Generation happens outside the map lock: only demanders of
    // this exact workload serialize on the once_flag.
    std::call_once(entry->once, [&] {
        TPRE_OBS_WALL_SPAN("workload", "generate");
        TPRE_OBS_COUNT("workload.generated");
        WorkloadGenerator gen(namedProfile(benchmark, seed));
        entry->workload = std::make_shared<GeneratedWorkload>(
            gen.generate());
    });
    {
        std::lock_guard<std::mutex> guard(mu_);
        evictWorkloadsLocked(key);
    }
    return entry->workload;
}

void
Simulator::evictWorkloadsLocked(
    const std::pair<std::string, std::uint64_t> &current)
{
    // Evict only *generated* entries (an entry mid-generation has
    // threads parked on its once_flag; their shared_ptr keeps the
    // object alive, but erasing it from the map would regenerate
    // the same workload next time for no benefit) and never the
    // entry just used. Holders of evicted workloads are safe: the
    // data rides the shared_ptr, not the map.
    while (workloads_.size() > workloadCacheLimit_) {
        auto victim = workloads_.end();
        for (auto it = workloads_.begin(); it != workloads_.end();
             ++it) {
            if (it->first == current || !it->second->workload)
                continue;
            if (victim == workloads_.end() ||
                it->second->lastUse < victim->second->lastUse) {
                victim = it;
            }
        }
        if (victim == workloads_.end())
            return;
        TPRE_OBS_COUNT("workload.evicted");
        workloads_.erase(victim);
    }
}

void
Simulator::setWorkloadCacheLimit(std::size_t limit)
{
    tpre_assert(limit >= 1);
    std::lock_guard<std::mutex> guard(mu_);
    workloadCacheLimit_ = limit;
}

std::size_t
Simulator::workloadCacheSize()
{
    std::lock_guard<std::mutex> guard(mu_);
    return workloads_.size();
}

std::shared_ptr<const mem::Checkpoint>
Simulator::warmCheckpoint(const SimConfig &config,
                          const GeneratedWorkload &wl)
{
    const WarmKey key{config.benchmark, config.workloadSeed,
                      config.warmupInsts, config.selection.maxLen,
                      config.selection.alignGranule};
    std::shared_ptr<WarmEntry> entry;
    {
        std::lock_guard<std::mutex> guard(mu_);
        std::shared_ptr<WarmEntry> &slot = warm_[key];
        if (!slot)
            slot = std::make_shared<WarmEntry>();
        entry = slot;
    }
    std::call_once(entry->once, [&] {
        TPRE_OBS_WALL_SPAN("sim", "warmup");
        TPRE_OBS_COUNT("sim.warmups");
        // Only the stream-shaping knobs matter for a functional
        // checkpoint; everything else stays at defaults.
        FastSimConfig wcfg;
        wcfg.selection = config.selection;
        FastSim warmSim(wl.program, wcfg);
        warmSim.runUntil(config.warmupInsts);
        entry->checkpoint = std::make_shared<const mem::Checkpoint>(
            warmSim.checkpoint(mem::CheckpointKind::Functional));
    });
    return entry->checkpoint;
}

Simulator::WarmPlan
Simulator::planWarmup(const SimConfig &config,
                      const GeneratedWorkload &wl)
{
    WarmPlan plan;
    if (config.warmupInsts == 0)
        return plan;
    if (config.mode != SimMode::Fast)
        plan.fallback = "timing-mode";
    else if (!config.tptDump.empty())
        plan.fallback = "tpt-dump";
    else if (config.warmupInsts >= config.maxInsts)
        plan.fallback = "warmup>=maxInsts";
    else
        plan.checkpoint = warmCheckpoint(config, wl);
    return plan;
}

std::vector<SimResult>
Simulator::runGroup(const std::vector<SimConfig> &configs)
{
    tpre_assert(!configs.empty(), "runGroup: no rows");
    const SimConfig &lead = configs.front();
    const std::optional<StreamKey> key = streamKey(lead);
    tpre_assert(key.has_value(), "runGroup: row cannot share a stream");
    for (const SimConfig &config : configs)
        tpre_assert(streamKey(config) == key,
                    "runGroup: rows differ in their stream key");

    const std::shared_ptr<const GeneratedWorkload> wl =
        workload(lead.benchmark, lead.workloadSeed);
    // One warm-up decision for the group: the key shares the
    // warm-up length and the budget.
    const WarmPlan warm = planWarmup(lead, *wl);
    const bool warmRun = warm.checkpoint != nullptr;

    std::vector<FastSimConfig> fastConfigs;
    fastConfigs.reserve(configs.size());
    for (const SimConfig &config : configs)
        fastConfigs.push_back(config.toFastConfig());
    const InstCount budget =
        warmRun ? lead.maxInsts - lead.warmupInsts : lead.maxInsts;

    TPRE_OBS_WALL_SPAN("sim", "run");
    TPRE_OBS_COUNT("sim.runs", configs.size());
    const auto start = std::chrono::steady_clock::now();
    const std::vector<FastSimStats> stats = runSharedStream(
        wl->program, fastConfigs, budget, warm.checkpoint.get());
    const double rowSeconds =
        secondsSince(start) / static_cast<double>(configs.size());

    std::vector<SimResult> results;
    results.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SimResult &result =
            results.emplace_back(makeFastResult(configs[i], stats[i]));
        finishResult(result, configs[i], rowSeconds, warmRun,
                     warm.fallback);
    }
    return results;
}

SimResult
Simulator::run(const SimConfig &config)
{
    if (streamKey(config))
        return runGroup({config}).front();

    const std::shared_ptr<const GeneratedWorkload> wl =
        workload(config.benchmark, config.workloadSeed);

    SimResult result;
    result.config = config;

    const WarmPlan warm = planWarmup(config, *wl);
    const bool warmRun = warm.checkpoint != nullptr;

    // Sampled simulation: resolve (and validate) the spec up front;
    // runs that cannot sample fall back to detailed and record why.
    // A .tpt dump needs every committed instruction on the commit
    // hook, which functional fast-forward never materializes.
    const sample::SampleSpec sampleSpec =
        config.sampleSpec().resolved();
    bool sampleRun = false;
    std::string sampleFallback;
    if (sampleSpec.enabled()) {
        if (config.mode != SimMode::Fast)
            sampleFallback = "timing-mode";
        else if (!config.tptDump.empty())
            sampleFallback = "tpt-dump";
        else
            sampleRun = true;
    }

    TPRE_OBS_WALL_SPAN("sim", "run");
    TPRE_OBS_COUNT("sim.runs");
    const auto start = std::chrono::steady_clock::now();

    if (config.mode == SimMode::Fast) {
        FastSimConfig fcfg = config.toFastConfig();

        // Trace dump: tap the commit hook so the file records
        // exactly the stream the frontend processed.
        std::unique_ptr<tracefmt::TptWriter> dump;
        if (!config.tptDump.empty()) {
            dump = std::make_unique<tracefmt::TptWriter>(
                wl->program,
                tracefmt::TptMeta{config.benchmark,
                                  config.workloadSeed});
            auto chained = std::move(fcfg.hooks.onCommit);
            fcfg.hooks.onCommit = [&dump, chained](
                                      const DynInst &dyn) {
                dump->add(dyn);
                if (chained)
                    chained(dyn);
            };
        }

        FastSim sim(wl->program, fcfg);
        if (warmRun)
            sim.forkFrom(*warm.checkpoint);
        const InstCount budget =
            warmRun ? config.maxInsts - config.warmupInsts
                    : config.maxInsts;
        if (sampleRun) {
            result = makeSampledResult(
                config, sample::runSampled(sim, sampleSpec, budget));
        } else {
            result = makeFastResult(config, sim.run(budget));
        }

        if (dump) {
            if (!tracefmt::writeFileBytes(config.tptDump,
                                          dump->finish()))
                fatal("cannot write trace dump %s",
                      config.tptDump.c_str());
            inform("wrote %llu-instruction trace to %s",
                   static_cast<unsigned long long>(
                       result.instructions),
                   config.tptDump.c_str());
        }
    } else {
        if (!config.tptDump.empty())
            warn("tptDump is only supported in Fast mode; "
                 "ignoring %s", config.tptDump.c_str());
        TraceProcessor proc(wl->program,
                            config.toProcessorConfig());
        const ProcessorStats &st = proc.run(config.maxInsts);
        result.instructions = st.instructions;
        result.cycles = st.cycles;
        result.ipc = st.ipc();
        result.traces = st.traces;
        result.tcMisses = st.tcMisses;
        result.pbHits = st.pbHits;
        const double ki =
            static_cast<double>(st.instructions) / 1000.0;
        if (ki > 0) {
            result.missesPerKi =
                static_cast<double>(st.tcMisses) / ki;
            result.icacheSupplyPerKi =
                static_cast<double>(st.slowPathInsts) / ki;
            result.icacheMissesPerKi =
                static_cast<double>(st.icache.totalMisses()) / ki;
        }
        result.precon = st.precon;
        result.prep = st.prep;
        result.provenance = st.provenance;
        result.attrib = st.attrib;
    }

    finishResult(result, config, secondsSince(start), warmRun,
                 warm.fallback);
    // A degenerate sampled run records its own fallback reason
    // ("window>=maxInsts"); preserve it over the empty string here.
    if (!result.sampled && result.sampleFallback.empty())
        result.sampleFallback = sampleFallback;
    return result;
}

} // namespace tpre

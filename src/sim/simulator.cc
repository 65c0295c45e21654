#include "sim/simulator.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "obs/obs.hh"
#include "telemetry/prometheus.hh"
#include "tracefmt/reader.hh"
#include "tracefmt/writer.hh"

namespace tpre
{

namespace
{

/*
 * Row-end obs counters (DESIGN.md section 11). These families
 * restate simulator statistics, so each row publishes them once,
 * from its raw stats, instead of bumping them per event. A family
 * is registered only when its event happened, as a per-event bump
 * would register it, so /metrics lists the same families.
 */
#define TPRE_PUBLISH_COUNT(name, n)                                 \
    do {                                                            \
        if (const std::uint64_t tprePublishN_ = (n))                \
            TPRE_OBS_COUNT(name, tprePublishN_);                    \
    } while (0)

/**
 * The trace-cache, buffer and engine families of one trace supply.
 * Every trace probes the cache once, and every miss of a supply
 * with preconstruction probes the buffers; a buffer hit is one of
 * those.
 */
void
publishSupply(const SupplyStats &st, bool precon)
{
    TPRE_PUBLISH_COUNT("tcache.probes",
                       st.tcHits + st.tcMisses + st.pbHits);
    TPRE_PUBLISH_COUNT("tcache.hits", st.tcHits);
    TPRE_PUBLISH_COUNT("tcache.fills", st.tcMisses + st.pbHits);
    TPRE_PUBLISH_COUNT(
        "tcache.evictions",
        st.attrib.originSum(TraceOrigin::FillUnit).evictCapacity +
            st.attrib.originSum(TraceOrigin::Precon).evictCapacity);
    if (precon)
        TPRE_PUBLISH_COUNT("pb.probes", st.tcMisses + st.pbHits);
    TPRE_PUBLISH_COUNT("pb.hits", st.precon.bufferHits);
    TPRE_PUBLISH_COUNT("precon.start_points",
                       st.precon.startPointsPushed);
    TPRE_PUBLISH_COUNT("precon.regions_started",
                       st.precon.regionsStarted);
    TPRE_PUBLISH_COUNT("precon.traces_constructed",
                       st.precon.tracesConstructed);
    TPRE_PUBLISH_COUNT("precon.traces_buffered",
                       st.precon.tracesBuffered);
    TPRE_PUBLISH_COUNT("precon.lines_fetched", st.precon.linesFetched);
}

/** The fill families of one trace stream, however many frontends
 *  it served. */
void
publishStream(InstCount insts, std::uint64_t traces,
              std::uint64_t flushes = 0)
{
    TPRE_PUBLISH_COUNT("fill.insts", insts);
    TPRE_PUBLISH_COUNT("fill.traces", traces);
    TPRE_PUBLISH_COUNT("fill.flushes", flushes);
}

void
publishTiming(const TraceProcessor &proc, const ProcessorConfig &cfg)
{
    const ProcessorStats &st = proc.stats();
    publishSupply(st, cfg.preconEnabled);
    publishStream(proc.instsSegmented(), proc.tracesSegmented());
    TPRE_PUBLISH_COUNT("ntp.predictions",
                       st.ntpCorrect + st.ntpWrong + st.ntpNone);
    TPRE_PUBLISH_COUNT("ntp.updates", st.traces);
    // Each preprocessed trace runs every pass once, so a pass's
    // family is registered even when it changed nothing.
    if (st.prep.tracesProcessed > 0) {
        TPRE_OBS_COUNT("prep.traces", st.prep.tracesProcessed);
        TPRE_OBS_COUNT("prep.consts_propagated",
                       st.prep.constsPropagated);
        TPRE_OBS_COUNT("prep.ops_fused", st.prep.opsFused);
        TPRE_OBS_COUNT("prep.insts_moved", st.prep.instsMoved);
    }
}

#undef TPRE_PUBLISH_COUNT

/**
 * The SimResult fields both modes map alike from their supply
 * counters. The miss rate is left to the caller: each mode keeps its
 * own floating-point expression for it.
 */
SimResult
supplyResult(const SimConfig &config, const SupplyStats &st)
{
    SimResult result;
    result.config = config;
    result.instructions = st.instructions;
    result.cycles = st.cycles;
    result.traces = st.traces;
    result.tcMisses = st.tcMisses;
    result.pbHits = st.pbHits;
    const double ki = static_cast<double>(st.instructions) / 1000.0;
    if (ki > 0) {
        result.icacheSupplyPerKi =
            static_cast<double>(st.slowPathInsts) / ki;
        result.icacheMissesPerKi =
            static_cast<double>(st.icache.totalMisses()) / ki;
    }
    result.precon = st.precon;
    result.provenance = st.attrib.provenance();
    result.attrib = st.attrib;
    return result;
}

} // namespace

SimResult
makeFastResult(const SimConfig &config, const FastSimStats &st)
{
    SimResult result = supplyResult(config, st);
    result.missesPerKi = st.missesPerKiloInst();
    const double ki = static_cast<double>(st.instructions) / 1000.0;
    if (ki > 0) {
        result.icacheMissSupplyPerKi =
            static_cast<double>(st.slowPathInstsFromMisses) / ki;
        result.coverage =
            static_cast<double>(st.instructions -
                                st.slowPathInsts) /
            static_cast<double>(st.instructions);
    }
    result.blocksDecoded = st.blocks.decoded;
    result.blockHits = st.blocks.hits;
    result.blockInvalidations = st.blocks.invalidations;
    return result;
}

SimResult
makeSampledResult(const SimConfig &config,
                  const sample::SampledRun &run)
{
    // The ledgers stay raw, not extrapolated: they are internally
    // conserved (preconStatsSane) and cover the detailed portions
    // only. A sampled run overwrites every count and rate.
    SimResult result = makeFastResult(config, run.raw);
    if (!run.sampled) {
        result.sampleFallback = run.fallback;
        return result;
    }

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
    telemetry::publishRunLedgers(result.attrib);
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

SimResult
replayTrace(const std::string &tptPath, SimConfig config)
{
    tracefmt::TptReader reader =
        tracefmt::TptReader::fromFile(tptPath);
    if (!reader.ok())
        fatal("replay %s: %s", tptPath.c_str(),
              reader.error().c_str());

    // A replay runs cold, in fast mode, on the file's workload.
    config.mode = SimMode::Fast;
    config.warmupInsts = 0;
    if (!reader.meta().benchmark.empty())
        config.benchmark = reader.meta().benchmark;
    config.workloadSeed = reader.meta().seed;

    TPRE_OBS_WALL_SPAN("sim", "replay");
    TPRE_OBS_COUNT("sim.replays");
    const auto start = std::chrono::steady_clock::now();
    const FastSimConfig fastConfig = config.toFastConfig();
    FastSim sim(reader.program(), fastConfig);
    bool flushed = false;
    const FastSimStats &st =
        sim.replay(reader, config.maxInsts, &flushed);
    if (!reader.ok())
        fatal("replay %s: %s", tptPath.c_str(),
              reader.error().c_str());

    publishSupply(st, fastConfig.preconEnabled);
    publishStream(st.instructions, st.traces - flushed, flushed);

    SimResult result = makeFastResult(config, st);
    finishResult(result, config, secondsSince(start), false, "");
    return result;
}

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
        publishSupply(warmSim.syncStats(), false);
        publishStream(warmSim.instsExecuted(), warmSim.stats().traces);
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
    InstCount segmented = 0;
    const std::vector<FastSimStats> stats =
        runSharedStream(wl->program, fastConfigs, budget,
                        warm.checkpoint.get(), &segmented);
    const double rowSeconds =
        secondsSince(start) / static_cast<double>(configs.size());
    publishStream(segmented, stats.front().traces);

    std::vector<SimResult> results;
    results.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        publishSupply(stats[i], fastConfigs[i].preconEnabled);
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
        const InstCount coreStart = sim.instsExecuted();
        InstCount skipped = 0;
        if (sampleRun) {
            const sample::SampledRun run =
                sample::runSampled(sim, sampleSpec, budget);
            skipped = run.skippedInsts;
            result = makeSampledResult(config, run);
        } else {
            result = makeFastResult(config, sim.run(budget));
        }
        // Sampled rows publish the detailed portions only: the raw
        // stats, and the instructions not fast-forwarded.
        publishSupply(sim.stats(), fcfg.preconEnabled);
        publishStream(sim.instsExecuted() - coreStart - skipped,
                      sim.stats().traces);

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
        const ProcessorConfig pcfg = config.toProcessorConfig();
        TraceProcessor proc(wl->program, pcfg);
        const ProcessorStats &st = proc.run(config.maxInsts);
        publishTiming(proc, pcfg);
        result = supplyResult(config, st);
        const double ki =
            static_cast<double>(st.instructions) / 1000.0;
        if (ki > 0)
            result.missesPerKi = static_cast<double>(st.tcMisses) / ki;
        result.ipc = st.ipc();
        result.prep = st.prep;
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

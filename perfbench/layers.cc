/**
 * @file
 * The component drive of the traced run: capture one row's committed
 * stream through the public check::SimHooks::onCommit tap, then
 * replay it through each layer's public functions, timing batches of
 * calls. Each batch is repeated and the median taken. README.md maps
 * every metric to the end-to-end metric it should move.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "bpred/next_trace.hh"
#include "check/invariants.hh"
#include "perfbench.hh"
#include "prep/preprocessor.hh"
#include "telemetry/attrib.hh"
#include "tproc/backend.hh"
#include "tproc/fast_sim.hh"

using namespace tpre;
using Clock = std::chrono::steady_clock;

namespace tpb
{
namespace
{

/** Committed instructions captured and replayed per layer. */
constexpr InstCount kStreamInsts = 300'000;

/** Repetitions of each timed batch (the median is reported). */
constexpr int kReps = 3;

/** Median of the repetitions' durations, in seconds. */
class Reps
{
  public:
    void start() { t0_ = Clock::now(); }
    void stop() { t_.push_back(secondsSince(t0_)); }

    double
    median()
    {
        std::sort(t_.begin(), t_.end());
        return t_[t_.size() / 2];
    }

  private:
    Clock::time_point t0_;
    std::vector<double> t_;
};

/** Seconds one steady_clock::now() pair costs (subtracted from
 *  per-trace timings inside interleaved loops). */
double
clockPairSeconds()
{
    constexpr int n = 100'000;
    const Clock::time_point t0 = Clock::now();
    double sink = 0.0;
    for (int i = 0; i < n; ++i)
        sink += secondsSince(Clock::now());
    const double per = secondsSince(t0) / n;
    return sink < 0.0 ? 0.0 : per;
}

/** The captured stream segmented into traces with their windows. */
struct Stream
{
    std::vector<DynInst> insts;
    std::vector<Trace> traces;
    /** Index into insts of each trace's first instruction. */
    std::vector<std::size_t> first;
};

Stream
capture(const Program &program, const SimConfig &config)
{
    Stream s;
    s.insts.reserve(kStreamInsts + kMaxTraceLen);
    FastSimConfig fc = config.toFastConfig();
    fc.hooks.onCommit = [&s](const DynInst &d) {
        s.insts.push_back(d);
    };
    FastSim sim(program, fc);
    sim.run(kStreamInsts);

    FillUnit fill(config.selection);
    std::size_t start = 0;
    for (std::size_t i = 0; i < s.insts.size(); ++i) {
        if (Trace *t = fill.feed(s.insts[i])) {
            s.traces.push_back(*t);
            s.first.push_back(start);
            start = i + 1;
        }
    }
    return s;
}

double
perUnitNs(double seconds, double units)
{
    return units > 0.0 ? seconds * 1e9 / units : 0.0;
}

/**
 * Fetch the I-cache lines @p t spans, as FastSim's slow path does.
 * Adds the fetches to @p fetches and returns the miss latency.
 */
Cycle
fetchTraceLines(ICache &ic, const Trace &t, double &fetches)
{
    Cycle latency = 0;
    Addr line = invalidAddr;
    for (const TraceInst &ti : t.insts) {
        if (ic.lineAddr(ti.pc) == line)
            continue;
        line = ic.lineAddr(ti.pc);
        const ICache::AccessResult res = ic.fetchLine(line, false);
        if (!res.hit)
            latency += res.latency;
        ++fetches;
    }
    return latency;
}

} // namespace

Metrics
driveComponents(const Program &program, const SimConfig &config,
                const SimResult &row)
{
    const Stream s = capture(program, config);
    const double insts = static_cast<double>(s.insts.size());
    const double traces = static_cast<double>(s.traces.size());
    const FastSimConfig fc = config.toFastConfig();
    std::uint64_t sink = 0;
    Metrics m;

    // func: scalar step and predecoded block dispatch.
    Reps step;
    for (int r = 0; r < kReps; ++r) {
        FunctionalCore core(program);
        step.start();
        for (InstCount i = 0; i < kStreamInsts; ++i) {
            if (core.halted())
                core.reset();
            sink += core.step().nextPc;
        }
        step.stop();
    }
    const double stepNs = perUnitNs(step.median(), kStreamInsts);
    m.push_back({"func.step_ns_per_inst", stepNs, "ns/inst"});

    Reps block;
    double blockHitRatio = 0.0;
    for (int r = 0; r < kReps; ++r) {
        FunctionalCore core(program);
        BlockCache blocks(program);
        InstCount done = 0;
        block.start();
        while (done < kStreamInsts) {
            if (core.halted())
                core.reset();
            const DecodedBlock &b = blocks.lookup(core.pc());
            if (b.bodyLen) {
                core.execBody(b.insts, b.bodyLen);
                done += b.bodyLen;
            }
            if (b.end != BlockEnd::Clipped && !core.halted()) {
                sink += core.step().nextPc;
                ++done;
            }
        }
        block.stop();
        const BlockCache::Stats &bs = blocks.stats();
        blockHitRatio = static_cast<double>(bs.hits) /
                        static_cast<double>(bs.hits + bs.decoded);
    }
    const double blockNs = perUnitNs(block.median(), kStreamInsts);
    m.push_back({"func.block_ns_per_inst", blockNs, "ns/inst"});
    m.push_back({"func.block_hit_ratio", blockHitRatio, "ratio"});

    // trace: segmentation and trace-cache probes (insert on miss).
    Reps fillReps;
    for (int r = 0; r < kReps; ++r) {
        FillUnit fill(config.selection);
        fillReps.start();
        for (const DynInst &d : s.insts)
            sink += fill.feed(d) != nullptr;
        fillReps.stop();
    }
    const double fillNs = perUnitNs(fillReps.median(), insts);
    m.push_back({"trace.fill_ns_per_inst", fillNs, "ns/inst"});

    Reps probe;
    std::vector<std::size_t> missed;
    for (int r = 0; r < kReps; ++r) {
        TraceCache tc(config.traceCacheEntries);
        missed.clear();
        probe.start();
        for (std::size_t i = 0; i < s.traces.size(); ++i) {
            if (!tc.lookup(s.traces[i].id)) {
                tc.insert(s.traces[i]);
                missed.push_back(i);
            }
        }
        probe.stop();
    }
    const double probeNs = perUnitNs(probe.median(), traces);
    m.push_back({"trace.tc_probe_ns", probeNs, "ns"});
    m.push_back({"trace.tc_hit_ratio",
                 1.0 - static_cast<double>(missed.size()) / traces,
                 "ratio"});

    // cache: demand line fetches of the traces that missed the TC.
    Reps fetch;
    double fetches = 0.0, missRatio = 0.0;
    for (int r = 0; r < kReps; ++r) {
        ICache ic(fc.icache);
        fetches = 0.0;
        fetch.start();
        for (const std::size_t i : missed)
            sink += fetchTraceLines(ic, s.traces[i], fetches);
        fetch.stop();
        missRatio = static_cast<double>(ic.stats().demandMisses) /
                    static_cast<double>(ic.stats().demandAccesses);
    }
    const double fetchNs = perUnitNs(fetch.median(), fetches);
    m.push_back({"cache.fetch_ns", fetchNs, "ns"});
    m.push_back({"cache.icache_miss_ratio", missRatio, "ratio"});

    // precon: the engine's calls, timed per trace inside a replay of
    // FastSim's trace loop (TC probe, buffer promotion, slow path).
    const double clockPair = clockPairSeconds();
    std::vector<double> engineNet;
    for (int r = 0; r < kReps; ++r) {
        ICache ic(fc.icache);
        BimodalPredictor bimodal;
        TraceCache tc(config.traceCacheEntries);
        PreconstructionEngine engine(program, ic, bimodal, tc,
                                     fc.precon);
        double engineSeconds = 0.0;
        std::uint64_t pairs = 0;
        for (std::size_t i = 0; i < s.traces.size(); ++i) {
            const Trace &t = s.traces[i];
            bool served = tc.lookup(t.id) != nullptr;
            if (!served) {
                const Clock::time_point t0 = Clock::now();
                if (const Trace *buffered = engine.lookupBuffer(t.id)) {
                    tc.insert(*buffered, true);
                    engine.consumeHit(t.id);
                    served = true;
                }
                engineSeconds += secondsSince(t0);
                ++pairs;
            }
            Cycle cycles = std::max<Cycle>(
                1, static_cast<Cycle>(t.len() / fc.assumedIpc));
            if (!served) {
                double lineFetches = 0.0;
                cycles = (t.len() + fc.slowFetchWidth - 1) /
                             fc.slowFetchWidth +
                         fetchTraceLines(ic, t, lineFetches);
                tc.insert(t);
            }
            for (std::size_t k = 0; k < t.len(); ++k) {
                const DynInst &d = s.insts[s.first[i] + k];
                if (d.inst.isCondBranch())
                    bimodal.update(d.pc, d.taken);
            }
            const Clock::time_point t0 = Clock::now();
            for (std::size_t k = 0; k < t.len(); ++k) {
                const DynInst &d = s.insts[s.first[i] + k];
                engine.observeCommit(d.pc, d.inst, d.taken);
            }
            engine.tick(cycles, served);
            engineSeconds += secondsSince(t0);
            ++pairs;
        }
        engineNet.push_back(std::max(
            0.0, engineSeconds - static_cast<double>(pairs) * clockPair));
    }
    std::sort(engineNet.begin(), engineNet.end());
    const double preconNs =
        perUnitNs(engineNet[engineNet.size() / 2], traces);
    m.push_back({"precon.tick_ns_per_trace", preconNs, "ns/trace"});

    // bpred: next-trace predictor predict + update over the stream.
    std::vector<char> hasCall(s.traces.size(), 0);
    for (std::size_t i = 0; i < s.traces.size(); ++i)
        for (const TraceInst &ti : s.traces[i].insts)
            hasCall[i] |= ti.inst.isCall();
    Reps ntpReps;
    double correct = 0.0;
    for (int r = 0; r < kReps; ++r) {
        NextTracePredictor ntp;
        correct = 0.0;
        ntpReps.start();
        for (std::size_t i = 0; i < s.traces.size(); ++i) {
            const Trace &t = s.traces[i];
            correct += ntp.predict() == t.id;
            ntp.advance(t.id, hasCall[i], t.endsInReturn());
        }
        ntpReps.stop();
    }
    const double ntpNs = perUnitNs(ntpReps.median(), traces);
    m.push_back({"bpred.ntp_ns_per_trace", ntpNs, "ns/trace"});
    m.push_back({"bpred.ntp_accuracy", correct / traces, "ratio"});

    // prep: the preprocessing passes on copies of every trace.
    Reps prepReps;
    for (int r = 0; r < kReps; ++r) {
        std::vector<Trace> copies = s.traces;
        Preprocessor prep;
        prepReps.start();
        for (Trace &t : copies)
            prep.process(t);
        prepReps.stop();
        sink += prep.stats().opsFused;
    }
    const double prepNs = perUnitNs(prepReps.median(), traces);
    m.push_back({"prep.process_ns_per_trace", prepNs, "ns/trace"});

    // tproc: the timing backend driven over the trace stream, as the
    // TraceProcessor's cycle loop does (tick, retire, dispatch).
    std::vector<std::vector<DynInst>> windows(s.traces.size());
    for (std::size_t i = 0; i < s.traces.size(); ++i)
        windows[i].assign(s.insts.begin() + s.first[i],
                          s.insts.begin() + s.first[i] +
                              s.traces[i].len());
    Reps backend;
    double ticks = 0.0, idle = 0.0;
    for (int r = 0; r < kReps; ++r) {
        TimingBackend be;
        std::size_t next = 0;
        Cycle now = 0;
        ticks = idle = 0.0;
        backend.start();
        while (next < s.traces.size() || !be.empty()) {
            ++now;
            const std::uint64_t issued = be.stats().instsIssued;
            be.tick(now);
            bool retired = false;
            while (!be.empty()) {
                const Cycle done = be.headCompletionTime();
                if (done == TimingBackend::noCompletion || done > now)
                    break;
                be.retireHead();
                retired = true;
            }
            if (next < s.traces.size() && be.hasFreePe()) {
                be.dispatch(s.traces[next], windows[next], now);
                ++next;
            }
            ticks += 1.0;
            idle += be.stats().instsIssued == issued && !retired;
        }
        backend.stop();
    }
    const double backendNs = perUnitNs(backend.median(), ticks);
    m.push_back({"tproc.backend_ns_per_cycle", backendNs, "ns/cycle"});
    m.push_back({"tproc.backend_idle_cycle_frac", idle / ticks,
                 "fraction"});

    FastSimConfig plain = fc;
    plain.hooks = {};
    Reps ff, detailed;
    for (int r = 0; r < kReps; ++r) {
        FastSim a(program, plain);
        ff.start();
        sink += a.fastForward(kStreamInsts);
        ff.stop();
        FastSim b(program, plain);
        detailed.start();
        sink += b.runUntil(kStreamInsts).traces;
        detailed.stop();
    }
    const double ffNs = perUnitNs(ff.median(), kStreamInsts);
    const double detailedNs = perUnitNs(detailed.median(), kStreamInsts);
    m.push_back({"tproc.ff_ns_per_inst", ffNs, "ns/inst"});
    m.push_back({"tproc.detailed_ns_per_inst", detailedNs, "ns/inst"});

    // mem: functional checkpoint of a warmed simulator, and a fork.
    FastSimConfig warmCfg;
    warmCfg.selection = config.selection;
    FastSim warm(program, warmCfg);
    warm.runUntil(config.warmupInsts ? config.warmupInsts
                                     : kStreamInsts);
    Reps cpReps, forkReps;
    mem::Checkpoint cp;
    for (int r = 0; r < kReps; ++r) {
        cpReps.start();
        cp = warm.checkpoint(mem::CheckpointKind::Functional);
        cpReps.stop();
        FastSim child(program, plain);
        forkReps.start();
        child.forkFrom(cp);
        forkReps.stop();
    }
    const double forkS = forkReps.median();
    m.push_back({"mem.checkpoint_s", cpReps.median(), "s"});
    m.push_back({"mem.fork_s", forkS, "s"});
    m.push_back({"mem.checkpoint_kb",
                 static_cast<double>(cp.bytes.size()) / 1024.0, "KB"});

    // check and telemetry: per-trace invariant and classify calls.
    const std::vector<Trace> served = s.traces;
    Reps wellFormed, match, classify;
    for (int r = 0; r < kReps; ++r) {
        wellFormed.start();
        for (const Trace &t : s.traces)
            sink += check::traceWellFormed(t, config.selection)
                        .has_value();
        wellFormed.stop();
        match.start();
        for (std::size_t i = 0; i < s.traces.size(); ++i)
            sink += check::tracesMatch(s.traces[i], served[i])
                        .has_value();
        match.stop();
        classify.start();
        for (const Trace &t : s.traces)
            sink += static_cast<unsigned>(classifyTrace(t).loopClass);
        classify.stop();
    }
    const double wfNs = perUnitNs(wellFormed.median(), traces);
    const double matchNs = perUnitNs(match.median(), traces);
    const double classifyNs = perUnitNs(classify.median(), traces);
    m.push_back({"check.well_formed_ns_per_trace", wfNs, "ns/trace"});
    m.push_back({"check.traces_match_ns_per_trace", matchNs,
                 "ns/trace"});
    m.push_back({"telemetry.classify_ns_per_trace", classifyNs,
                 "ns/trace"});

    // How much of the real row's wall time the layer costs account
    // for: each layer's cost per unit times the row's unit counts.
    const double rowInsts = static_cast<double>(row.instructions);
    const double rowTraces = static_cast<double>(row.traces);
    const double fetchesPerMiss =
        missed.empty() ? 0.0 : fetches / static_cast<double>(missed.size());
    const double perTrace = probeNs + wfNs + matchNs + classifyNs +
                            (config.preconBufferEntries ? preconNs : 0.0);
    const double missNs = static_cast<double>(row.tcMisses) *
                          fetchesPerMiss * fetchNs;
    double ns = 0.0;
    if (row.sampled) {
        const double skipped = static_cast<double>(row.skippedInsts);
        ns = skipped * ffNs + (rowInsts - skipped) * detailedNs;
    } else if (config.mode == SimMode::Timing) {
        ns = rowInsts * (stepNs + fillNs) +
             rowTraces * (perTrace + ntpNs +
                          (config.prepEnabled ? prepNs : 0.0)) +
             missNs + static_cast<double>(row.cycles) * backendNs;
    } else {
        ns = rowInsts * ((config.blockCache ? blockNs : stepNs) +
                         fillNs) +
             rowTraces * perTrace + missNs +
             (row.warm ? forkS * 1e9 : 0.0);
    }
    m.push_back({"tracing.explained_frac",
                 row.wallSeconds > 0.0 ? ns * 1e-9 / row.wallSeconds
                                       : 0.0,
                 "fraction"});
    // Keep the replayed work observable so none is optimized away.
    if (sink == 0)
        std::fprintf(stderr, "component drive produced no work\n");
    return m;
}

} // namespace tpb

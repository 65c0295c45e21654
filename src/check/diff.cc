#include "check/diff.hh"

#include <algorithm>
#include <sstream>

#include "check/stats_check.hh"
#include "isa/disasm.hh"
#include "mem/checkpoint.hh"
#include "trace/fill_unit.hh"
#include "tracefmt/reader.hh"
#include "tracefmt/writer.hh"

namespace tpre::check
{

namespace
{

/** Trace-boundary record kept per model for cross-comparison. */
struct Boundary
{
    TraceId id;
    unsigned len = 0;
    TraceEndReason endReason = TraceEndReason::MaxLength;
    Addr fallThrough = invalidAddr;
};

Boundary
boundaryOf(const Trace &t)
{
    return {t.id, t.len(), t.endReason, t.fallThrough};
}

std::string
describeInst(const DynInst &dyn)
{
    std::ostringstream os;
    os << "0x" << std::hex << dyn.pc << ": "
       << disassemble(dyn.inst, dyn.pc) << " -> 0x" << dyn.nextPc
       << (dyn.taken ? " taken" : "")
       << (dyn.inst.isLoad() || dyn.inst.isStore()
               ? " ea=0x" + [&] {
                     std::ostringstream ea;
                     ea << std::hex << dyn.effAddr;
                     return ea.str();
                 }()
               : "");
    return os.str();
}

bool
sameDyn(const DynInst &a, const DynInst &b)
{
    return a.pc == b.pc && a.inst == b.inst && a.nextPc == b.nextPc &&
           a.taken == b.taken && a.effAddr == b.effAddr;
}

/**
 * Compare @p stream against the reference prefix-wise; @p exact
 * additionally demands equal lengths.
 */
std::optional<std::string>
compareStreams(const char *model, const std::vector<DynInst> &ref,
               const std::vector<DynInst> &stream, bool exact)
{
    const std::size_t n = std::min(ref.size(), stream.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (!sameDyn(ref[i], stream[i])) {
            std::ostringstream os;
            os << model << "-stream: divergence at committed "
               << "instruction " << i << ": reference "
               << describeInst(ref[i]) << " but model "
               << describeInst(stream[i]);
            return os.str();
        }
    }
    if (exact && ref.size() != stream.size()) {
        std::ostringstream os;
        os << model << "-stream: model committed " << stream.size()
           << " instructions, reference " << ref.size();
        return os.str();
    }
    return std::nullopt;
}

std::optional<std::string>
compareBoundaries(const char *model, const std::vector<Trace> &ref,
                  const std::vector<Boundary> &got, bool exact)
{
    const std::size_t n = std::min(ref.size(), got.size());
    for (std::size_t i = 0; i < n; ++i) {
        const Boundary want = boundaryOf(ref[i]);
        const Boundary &have = got[i];
        if (!(want.id == have.id) || want.len != have.len ||
            want.endReason != have.endReason ||
            want.fallThrough != have.fallThrough) {
            std::ostringstream os;
            os << model << "-boundary: trace " << i
               << " disagrees with the shared selection rules: "
               << "reference @0x" << std::hex << want.id.startPc
               << std::dec << " len " << want.len << " reason "
               << unsigned(static_cast<std::uint8_t>(want.endReason))
               << ", model @0x" << std::hex << have.id.startPc
               << std::dec << " len " << have.len << " reason "
               << unsigned(static_cast<std::uint8_t>(have.endReason));
            return os.str();
        }
    }
    if (exact && ref.size() != got.size()) {
        std::ostringstream os;
        os << model << "-boundary: model fetched " << got.size()
           << " traces, reference segmented " << ref.size();
        return os.str();
    }
    return std::nullopt;
}

std::optional<std::string>
prefixed(const char *model, Violation v)
{
    if (!v)
        return std::nullopt;
    return std::string(model) + "-" + *v;
}

/** Hook state collected from one simulator run. */
struct Observed
{
    std::vector<DynInst> stream;
    std::vector<Boundary> boundaries;
    Violation served;
};

SimHooks
tapsFor(Observed &obs, bool archCheckPreprocessed)
{
    SimHooks hooks;
    hooks.onCommit = [&obs](const DynInst &dyn) {
        obs.stream.push_back(dyn);
    };
    hooks.onTrace = [&obs, archCheckPreprocessed](
                        const Trace &demanded, const Trace &served,
                        bool) {
        obs.boundaries.push_back(boundaryOf(demanded));
        if (obs.served)
            return;
        obs.served = tracesMatch(demanded, served);
        if (!obs.served && archCheckPreprocessed &&
            served.preprocessed) {
            obs.served = tracesArchEquivalent(
                demanded, served, demanded.id.hash());
        }
    };
    return hooks;
}

/**
 * The checks a finished run of either simulator gets: its
 * trace-cache ledger against its stats, the images
 * its hooks saw served, its committed stream and trace boundaries
 * against the reference (all of them when @p exact, else the common
 * prefix), its conservation and its engine's buffers.
 */
template <class Sim, class Stats>
std::optional<std::string>
runChecked(const char *model, const Sim &sim, const Stats &stats,
           const Observed &obs, const RefRun &ref, bool exact,
           const SelectionPolicy &selection)
{
    if (auto f = prefixed(model,
                          provenanceReconciles(stats, sim.traceCache())))
        return f;
    if (obs.served)
        return prefixed(model, obs.served);
    if (auto f = compareStreams(model, ref.stream, obs.stream, exact))
        return f;
    if (auto f = compareBoundaries(model, ref.traces, obs.boundaries,
                                   exact))
        return f;
    if (auto f = prefixed(model, statsConserved(stats)))
        return f;
    if (!sim.engine())
        return std::nullopt;
    return prefixed(model,
                    buffersWellFormed(sim.engine()->buffers(), selection));
}

/** The FastSim configuration a DiffConfig describes. */
FastSimConfig
fastConfigOf(const DiffConfig &cfg)
{
    FastSimConfig fast;
    fast.traceCacheEntries = cfg.traceCacheEntries;
    fast.traceCacheAssoc = cfg.traceCacheAssoc;
    fast.selection = cfg.selection;
    fast.preconEnabled = cfg.preconEnabled;
    fast.precon = cfg.precon;
    return fast;
}

} // namespace

RefRun
referenceRun(const Program &program, const SelectionPolicy &policy,
             InstCount maxInsts)
{
    RefRun run;
    ArchState state;
    state.setReg(stackReg, FunctionalCore::initialStack);
    Addr pc = program.entry();
    FillUnit segmenter(policy);
    InstCount committed = 0;

    while (!run.halted && committed < maxInsts) {
        if (!program.contains(pc)) {
            run.leftImage = true;
            break;
        }
        const Instruction &inst = program.instAt(pc);
        const ExecResult res = executeInst(inst, pc, state);

        DynInst dyn;
        dyn.pc = pc;
        dyn.inst = inst;
        dyn.nextPc = res.nextPc;
        dyn.taken = res.taken;
        dyn.effAddr = res.effAddr;
        run.stream.push_back(dyn);

        run.halted = res.halted;
        pc = res.nextPc;

        if (auto trace = segmenter.feed(dyn)) {
            committed += trace->len();
            run.traces.push_back(std::move(*trace));
        }
    }
    if (auto trace = segmenter.flush())
        run.traces.push_back(std::move(*trace));
    return run;
}

DiffResult
diffModels(const Program &program, const DiffConfig &cfg)
{
    DiffResult result;
    const RefRun ref =
        referenceRun(program, cfg.selection, cfg.maxInsts);
    result.instructions = ref.stream.size();
    result.traces = ref.traces.size();

    if (ref.leftImage) {
        result.failure = "invalid-program: control flow leaves the "
                         "code image";
        return result;
    }

    // The reference segmentation itself must obey the selection
    // rules (this is the independent re-derivation that catches
    // TraceBuilder bugs both models would otherwise share). Only a
    // trace flushed mid-assembly may stop short.
    for (std::size_t i = 0; i < ref.traces.size(); ++i) {
        const bool partial =
            i + 1 == ref.traces.size() && !ref.halted &&
            ref.traces[i].endReason == TraceEndReason::MaxLength &&
            ref.traces[i].len() < cfg.selection.maxLen;
        if (Violation v = traceWellFormed(ref.traces[i],
                                          cfg.selection, partial)) {
            result.failure = "reference-" + *v;
            return result;
        }
    }
    if (Violation v = streamCallRetBalanced(ref.stream, ref.halted)) {
        result.failure = *v;
        return result;
    }

    // --- FastSim -------------------------------------------------
    FastSimStats liveStats;
    {
        Observed obs;
        FastSimConfig fcfg = fastConfigOf(cfg);
        fcfg.hooks = tapsFor(obs, false);

        FastSim sim(program, fcfg);
        const FastSimStats &stats = sim.run(cfg.maxInsts);

        result.failure = runChecked("fastsim", sim, stats, obs, ref,
                                    true, cfg.selection);
        if (result.failure)
            return result;
        liveStats = stats;
    }

    // --- Windowless stream --------------------------------------
    // The hooked run above recorded a commit window for every trace
    // and its onCommit stream matched the reference instruction by
    // instruction. Re-run the same configuration hookless, so the
    // stream records no window: every statistic except the block
    // counters must come out identical, and the run must still
    // conserve instructions.
    {
        const FastSimConfig hookless = fastConfigOf(cfg);

        FastSim sim(program, hookless);
        const FastSimStats &stats = sim.run(cfg.maxInsts);

        if (auto f = prefixed("windowless",
                              fastStatsEqual(liveStats, stats))) {
            result.failure = f;
            return result;
        }
        if (auto f = prefixed("windowless",
                              statsConserved(stats))) {
            result.failure = f;
            return result;
        }
    }

    // --- Shared stream ------------------------------------------
    // The fuzz config and two siblings (half the trace-cache
    // entries; preconstruction toggled) run as one group over a
    // single TraceStream. Each frontend must match its own solo
    // FastSim::run field by field.
    {
        const FastSimConfig lead = fastConfigOf(cfg);
        FastSimConfig half = lead;
        half.traceCacheEntries = lead.traceCacheEntries / 2;
        FastSimConfig toggled = lead;
        toggled.preconEnabled = !lead.preconEnabled;
        const std::vector<FastSimConfig> group = {lead, half, toggled};

        const std::vector<FastSimStats> shared =
            runSharedStream(program, group, cfg.maxInsts);
        for (std::size_t i = 0; i < group.size(); ++i) {
            FastSim solo(program, group[i]);
            if (auto f = prefixed("shared-stream",
                                  fastStatsEqual(
                                      solo.run(cfg.maxInsts),
                                      shared[i]))) {
                result.failure = *f + " (frontend " +
                                 std::to_string(i) + ")";
                return result;
            }
        }
    }

    // --- Checkpoint fork ----------------------------------------
    // Snapshot a run mid-flight (an arbitrary core-instruction
    // point, typically mid-trace), serialize the checkpoint to
    // bytes, restore the bytes into a fresh simulator, and run the
    // fork to the same budget. The forked run's statistics must be
    // bit-identical to the uninterrupted run's.
    {
        const FastSimConfig ccfg = fastConfigOf(cfg);
        FastSim donor(program, ccfg);
        donor.runUntil(std::max<InstCount>(1, cfg.maxInsts / 2));
        const mem::Checkpoint saved =
            donor.checkpoint(mem::CheckpointKind::Full);

        // Round-trip through the wire format so the category also
        // proves the buffer is relocatable.
        const mem::Checkpoint restored =
            mem::Checkpoint::deserialize(saved.serialize());

        FastSim forked(program, ccfg);
        forked.forkFrom(restored);
        const FastSimStats &stats = forked.run(cfg.maxInsts);
        if (auto f = prefixed("checkpoint",
                              fastStatsEqual(liveStats, stats))) {
            result.failure = f;
            return result;
        }
    }

    // --- Sampled simulation -------------------------------------
    // Two properties on sample::runSampled. (1) A degenerate spec
    // (window >= budget) must fall back to the plain detailed loop
    // and be bit-identical to the live run. (2) A contract-style
    // high-duty spec scaled to the budget must produce stratified
    // miss-rate and coverage estimates inside a tolerance envelope
    // of the detailed run's true rates, and its instruction
    // accounting must balance. The envelope combines the run's own
    // 95% interval with calibrated floors: functional skips perturb
    // the frontend trajectory by a few misses each (independent of
    // skip length), so short fuzz budgets carry an irreducible
    // absolute noise floor that shrinks only as totals grow.
    {
        const FastSimConfig scfg = fastConfigOf(cfg);
        {
            sample::SampleSpec degenerate;
            degenerate.every = cfg.maxInsts;
            degenerate.window = cfg.maxInsts;

            FastSim sim(program, scfg);
            const sample::SampledRun run =
                sample::runSampled(sim, degenerate, cfg.maxInsts);
            if (run.sampled) {
                result.failure =
                    "sampling-degenerate: window >= budget did not "
                    "fall back to the detailed loop";
                return result;
            }
            if (auto f = prefixed("sampling-degenerate",
                                  fastStatsEqual(liveStats,
                                                 run.raw))) {
                result.failure = f;
                return result;
            }
        }

        {
            // Contract-regime proportions (sample::contractSpec)
            // scaled to the fuzz budget: 92% window, 5% warm-up.
            sample::SampleSpec spec;
            spec.every = std::max<InstCount>(cfg.maxInsts / 8, 512);
            spec.window =
                std::max<InstCount>(spec.every / 100 * 92, 1);
            spec.warmup = spec.every / 20;

            FastSim sim(program, scfg);
            const sample::SampledRun run =
                sample::runSampled(sim, spec, cfg.maxInsts);
            // Budgets below the window degenerate; the fall back
            // was proven bit-identical above.
            if (run.sampled) {
                if (auto f = sampledRunSane(run, liveStats,
                                            cfg.selection)) {
                    result.failure = prefixed("sampling", f);
                    return result;
                }
            }
        }
    }

    // --- .tpt codec round trip and replay equality ---------------
    // The committed stream was just shown identical to ref.stream,
    // so encoding the reference stream encodes exactly what the
    // live frontend saw.
    {
        tracefmt::TptWriter writer(program);
        for (const DynInst &dyn : ref.stream)
            writer.add(dyn);
        const std::string bytes = writer.finish();

        // encode ∘ decode must be the identity on the stream...
        tracefmt::TptReader reader(bytes);
        std::vector<DynInst> decoded;
        decoded.reserve(ref.stream.size());
        DynInst dyn;
        while (reader.next(dyn))
            decoded.push_back(dyn);
        if (!reader.ok()) {
            result.failure = "tpt-decode: " + reader.error();
            return result;
        }
        if (auto f = compareStreams("tpt", ref.stream, decoded,
                                    true)) {
            result.failure = f;
            return result;
        }

        // ...and re-encoding the decoded stream must reproduce the
        // file byte for byte (the format is canonical).
        tracefmt::TptWriter rewriter(program);
        for (const DynInst &d : decoded)
            rewriter.add(d);
        if (rewriter.finish() != bytes) {
            result.failure =
                "tpt-reencode: re-encoding the decoded stream does "
                "not reproduce the file byte for byte";
            return result;
        }

        // Replaying the recorded stream through a fresh frontend
        // must reproduce the live run's statistics field by field.
        tracefmt::TptReader replayReader(bytes);
        FastSim replaySim(replayReader.program(), fastConfigOf(cfg));
        const FastSimStats &replayed =
            replaySim.replay(replayReader, cfg.maxInsts);
        if (!replayReader.ok()) {
            result.failure = "tpt-replay: " + replayReader.error();
            return result;
        }
        if (auto f = prefixed("tpt-replay",
                              fastStatsEqual(liveStats, replayed))) {
            result.failure = f;
            return result;
        }
    }

    // --- Full TraceProcessor ------------------------------------
    if (cfg.runProcessor) {
        Observed obs;
        ProcessorConfig pcfg;
        pcfg.traceCacheEntries = cfg.traceCacheEntries;
        pcfg.traceCacheAssoc = cfg.traceCacheAssoc;
        pcfg.selection = cfg.selection;
        pcfg.preconEnabled = cfg.preconEnabled;
        pcfg.precon = cfg.precon;
        pcfg.prepEnabled = cfg.prepEnabled;
        pcfg.hooks = tapsFor(obs, true);

        TraceProcessor proc(program, pcfg);
        const ProcessorStats &stats = proc.run(cfg.maxInsts);

        // Dispatch runs ahead of retirement, so on a budget stop the
        // processor's stream may legitimately be shorter or longer
        // than the reference; it must agree on the common prefix and
        // exactly when the program ran to completion.
        result.failure = runChecked("processor", proc, stats, obs,
                                    ref, ref.halted, cfg.selection);
    }

    return result;
}

} // namespace tpre::check

#include "check/stats_check.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

namespace tpre::check
{

namespace
{

Violation
fail(const std::string &what)
{
    return "stats: " + what;
}

std::string
num(std::uint64_t v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

} // namespace

Violation
icacheStatsSane(const ICache::Stats &s)
{
    if (s.demandMisses > s.demandAccesses)
        return fail("icache demand misses " + num(s.demandMisses) +
                    " exceed accesses " + num(s.demandAccesses));
    if (s.preconMisses > s.preconAccesses)
        return fail("icache precon misses " + num(s.preconMisses) +
                    " exceed accesses " + num(s.preconAccesses));
    return std::nullopt;
}

Violation
preconStatsSane(const PreconstructionEngine::Stats &s)
{
    if (s.tracesBuffered + s.tracesAlreadyInTc > s.tracesConstructed)
        return fail("precon buffered " + num(s.tracesBuffered) +
                    " + already-in-tc " + num(s.tracesAlreadyInTc) +
                    " exceed constructed " + num(s.tracesConstructed));
    if (s.bufferHits > s.tracesBuffered)
        return fail("precon buffer hits " + num(s.bufferHits) +
                    " exceed buffered traces " +
                    num(s.tracesBuffered));
    if (s.regionsStarted > s.startPointsPushed)
        return fail("precon regions started " +
                    num(s.regionsStarted) +
                    " exceed start points pushed " +
                    num(s.startPointsPushed));
    const std::uint64_t terminated =
        s.regionsCompleted + s.regionsCaughtUp +
        s.regionsPrefetchFull + s.regionsBuffersFull + s.regionsWarm;
    if (terminated > s.regionsStarted)
        return fail("precon regions terminated " + num(terminated) +
                    " exceed started " + num(s.regionsStarted));
    return std::nullopt;
}

Violation
supplyConserved(const SupplyStats &s, bool inFlightLookup)
{
    const std::uint64_t lookups = s.tcHits + s.pbHits + s.tcMisses;
    if (lookups != s.traces &&
        !(inFlightLookup && lookups == s.traces + 1))
        return fail("tcHits " + num(s.tcHits) + " + pbHits " +
                    num(s.pbHits) + " + tcMisses " + num(s.tcMisses) +
                    " != traces fetched " + num(s.traces) +
                    (inFlightLookup ? " (nor one in-flight lookup more)"
                                    : ""));
    if (Violation v = icacheStatsSane(s.icache))
        return v;
    return preconStatsSane(s.precon);
}

Violation
statsConserved(const FastSimStats &s)
{
    if (Violation v = supplyConserved(s, false))
        return v;
    if (s.slowPathInstsFromMisses > s.slowPathInsts)
        return fail("slow-path insts from misses " +
                    num(s.slowPathInstsFromMisses) +
                    " exceed slow-path insts " + num(s.slowPathInsts));
    if (s.slowPathInsts > s.instructions)
        return fail("slow-path insts " + num(s.slowPathInsts) +
                    " exceed committed instructions " +
                    num(s.instructions));
    return std::nullopt;
}

Violation
fastStatsEqual(const FastSimStats &live,
               const FastSimStats &replayed)
{
    // Walk every counter; report the first mismatch by name so a
    // replay divergence pinpoints the stray field immediately.
    std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>>
        fields;
#define TPRE_FIELD(f) fields.emplace_back(prefix + #f, a.f, b.f)
    // The trace cache's line ledger is deterministic bookkeeping on
    // the same trace stream, so it replays exactly, cell by cell and
    // kind by kind.
    for (std::size_t i = 0; i < kNumOrigins; ++i) {
        const auto origin = static_cast<TraceOrigin>(i);
        for (std::size_t c = 0; c < kNumLoopClasses; ++c) {
            const auto cls = static_cast<LoopClass>(c);
            const AttribCell &a = live.attrib.of(origin, cls);
            const AttribCell &b = replayed.attrib.of(origin, cls);
            const std::string prefix =
                std::string("attrib.") + traceOriginName(origin) +
                "." + loopClassName(cls) + ".";
            TPRE_FIELD(builds);
            TPRE_FIELD(hits);
            TPRE_FIELD(firstUses);
            TPRE_FIELD(firstUseLatencySum);
            TPRE_FIELD(evictCapacity);
            TPRE_FIELD(evictRefresh);
            TPRE_FIELD(evictInvalidate);
            TPRE_FIELD(evictClear);
            TPRE_FIELD(evictedUnused);
            for (std::size_t k = 0; k < kNumInstKinds; ++k) {
                const std::string kind =
                    instKindName(static_cast<InstKind>(k));
                fields.emplace_back(prefix + "instBuilt." + kind,
                                    a.instBuilt[k], b.instBuilt[k]);
                fields.emplace_back(prefix + "instServed." + kind,
                                    a.instServed[k], b.instServed[k]);
            }
        }
    }

    {
        const FastSimStats &a = live;
        const FastSimStats &b = replayed;
        const std::string prefix;
        TPRE_FIELD(instructions);
        TPRE_FIELD(cycles);
        TPRE_FIELD(traces);
        TPRE_FIELD(tcHits);
        TPRE_FIELD(pbHits);
        TPRE_FIELD(tcMisses);
        TPRE_FIELD(slowPathInsts);
        TPRE_FIELD(slowPathInstsFromMisses);
        TPRE_FIELD(icache.demandAccesses);
        TPRE_FIELD(icache.demandMisses);
        TPRE_FIELD(icache.preconAccesses);
        TPRE_FIELD(icache.preconMisses);
        TPRE_FIELD(precon.startPointsPushed);
        TPRE_FIELD(precon.regionsStarted);
        TPRE_FIELD(precon.regionsCompleted);
        TPRE_FIELD(precon.regionsCaughtUp);
        TPRE_FIELD(precon.regionsPrefetchFull);
        TPRE_FIELD(precon.regionsBuffersFull);
        TPRE_FIELD(precon.regionsWarm);
        TPRE_FIELD(precon.tracesConstructed);
        TPRE_FIELD(precon.tracesBuffered);
        TPRE_FIELD(precon.tracesAlreadyInTc);
        TPRE_FIELD(precon.bufferHits);
        TPRE_FIELD(precon.linesFetched);
    }
#undef TPRE_FIELD

    for (const auto &[name, a, b] : fields) {
        if (a != b)
            return fail(name + " diverges: live " + num(a) +
                        ", replay " + num(b));
    }
    return std::nullopt;
}

Violation
sampledRunSane(const sample::SampledRun &run,
               const FastSimStats &detailed,
               const SelectionPolicy &selection)
{
    if (run.windows == 0 || run.instructions == 0)
        return fail("sampled run recorded no measurement windows "
                    "over " + num(run.instructions) +
                    " instructions");

    // Accounting: measured + warm-up + skipped instructions must
    // cover the run's forward progress. Window boundaries are
    // core-instruction exact but the committed counters trail by up
    // to one in-flight trace per boundary, so allow that much slack.
    const std::uint64_t parts =
        run.sampledInsts + run.warmInsts + run.skippedInsts;
    const std::uint64_t slack =
        2 * (run.windows + 2) * selection.maxLen;
    const std::uint64_t diff = parts > run.instructions
                                   ? parts - run.instructions
                                   : run.instructions - parts;
    if (diff > slack)
        return fail("instruction accounting off by " + num(diff) +
                    " (> slack " + num(slack) + "): sampled " +
                    num(run.sampledInsts) + " + warm " +
                    num(run.warmInsts) + " + skipped " +
                    num(run.skippedInsts) + " vs total " +
                    num(run.instructions));

    if (run.coverage.mean < 0.0 || run.coverage.mean > 1.0)
        return fail("coverage estimate " +
                    std::to_string(run.coverage.mean) +
                    " is not a fraction");

    if (detailed.instructions == 0)
        return std::nullopt;

    // Estimate envelopes. The floors are calibrated over the fuzz
    // corpus: every functional skip perturbs the frontend
    // trajectory by a few misses when detailed execution resumes,
    // independent of skip length, so the noise floor is absolute in
    // miss *count* — it scales with the number of windows and
    // dominates when the measured slice is small (tiny budgets).
    // The bound is the run's own interval widened by relative,
    // absolute, and per-skip floors, never a bare CI.
    const double insts = static_cast<double>(detailed.instructions);
    const double trueMisses =
        1000.0 * static_cast<double>(detailed.tcMisses) / insts;
    const double sampledKi =
        static_cast<double>(run.sampledInsts) / 1000.0;
    const double perSkip =
        6.0 * static_cast<double>(run.windows) / sampledKi;
    const double missTol =
        std::max({4.0 * run.missesPerKi.ci95, 0.25 * trueMisses,
                  2.0, perSkip});
    const double missErr =
        std::abs(run.missesPerKi.mean - trueMisses);
    if (missErr > missTol)
        return fail("miss-rate estimate " +
                    std::to_string(run.missesPerKi.mean) +
                    "/KI is " + std::to_string(missErr) +
                    " from the detailed run's " +
                    std::to_string(trueMisses) +
                    "/KI (tolerance " + std::to_string(missTol) +
                    ", ci95 " +
                    std::to_string(run.missesPerKi.ci95) + ")");

    const double trueCover =
        (insts - static_cast<double>(detailed.slowPathInsts)) /
        insts;
    const double coverTol =
        std::max(4.0 * run.coverage.ci95, 0.15);
    const double coverErr = std::abs(run.coverage.mean - trueCover);
    if (coverErr > coverTol)
        return fail("coverage estimate " +
                    std::to_string(run.coverage.mean) + " is " +
                    std::to_string(coverErr) +
                    " from the detailed run's " +
                    std::to_string(trueCover) + " (tolerance " +
                    std::to_string(coverTol) + ", ci95 " +
                    std::to_string(run.coverage.ci95) + ")");
    return std::nullopt;
}

Violation
statsConserved(const ProcessorStats &s)
{
    // The processor chains the next trace's TC lookup into the
    // dispatch cycle, so a budget stop can leave exactly one counted
    // lookup whose trace never dispatched.
    if (Violation v = supplyConserved(s, true))
        return v;
    // The last dispatched trace gets no successor prediction, so the
    // predictor outcome counters cover at most traces - 1.
    if (s.ntpCorrect + s.ntpWrong + s.ntpNone > s.traces)
        return fail("next-trace predictor outcomes " +
                    num(s.ntpCorrect + s.ntpWrong + s.ntpNone) +
                    " exceed traces " + num(s.traces));
    return std::nullopt;
}

} // namespace tpre::check

#include "check/stats_check.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
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
statsConserved(const FastSimStats &s)
{
    if (s.tcHits + s.pbHits + s.tcMisses != s.traces)
        return fail("tcHits " + num(s.tcHits) + " + pbHits " +
                    num(s.pbHits) + " + tcMisses " + num(s.tcMisses) +
                    " != traces fetched " + num(s.traces));
    if (s.slowPathInstsFromMisses > s.slowPathInsts)
        return fail("slow-path insts from misses " +
                    num(s.slowPathInstsFromMisses) +
                    " exceed slow-path insts " + num(s.slowPathInsts));
    if (s.slowPathInsts > s.instructions)
        return fail("slow-path insts " + num(s.slowPathInsts) +
                    " exceed committed instructions " +
                    num(s.instructions));
    if (Violation v = icacheStatsSane(s.icache))
        return v;
    return preconStatsSane(s.precon);
}

Violation
fastStatsEqual(const FastSimStats &live,
               const FastSimStats &replayed)
{
    // Walk every counter; report the first mismatch by name so a
    // replay divergence pinpoints the stray field immediately.
    std::vector<std::tuple<const char *, std::uint64_t,
                           std::uint64_t>>
        fields = {
            {"instructions", live.instructions,
             replayed.instructions},
            {"cycles", live.cycles, replayed.cycles},
            {"traces", live.traces, replayed.traces},
            {"tcHits", live.tcHits, replayed.tcHits},
            {"pbHits", live.pbHits, replayed.pbHits},
            {"tcMisses", live.tcMisses, replayed.tcMisses},
            {"slowPathInsts", live.slowPathInsts,
             replayed.slowPathInsts},
            {"slowPathInstsFromMisses",
             live.slowPathInstsFromMisses,
             replayed.slowPathInstsFromMisses},
            {"traceWorkingSet", live.traceWorkingSet,
             replayed.traceWorkingSet},
            {"icache.demandAccesses", live.icache.demandAccesses,
             replayed.icache.demandAccesses},
            {"icache.demandMisses", live.icache.demandMisses,
             replayed.icache.demandMisses},
            {"icache.preconAccesses", live.icache.preconAccesses,
             replayed.icache.preconAccesses},
            {"icache.preconMisses", live.icache.preconMisses,
             replayed.icache.preconMisses},
            {"precon.startPointsPushed",
             live.precon.startPointsPushed,
             replayed.precon.startPointsPushed},
            {"precon.regionsStarted", live.precon.regionsStarted,
             replayed.precon.regionsStarted},
            {"precon.regionsCompleted",
             live.precon.regionsCompleted,
             replayed.precon.regionsCompleted},
            {"precon.regionsCaughtUp", live.precon.regionsCaughtUp,
             replayed.precon.regionsCaughtUp},
            {"precon.regionsPrefetchFull",
             live.precon.regionsPrefetchFull,
             replayed.precon.regionsPrefetchFull},
            {"precon.regionsBuffersFull",
             live.precon.regionsBuffersFull,
             replayed.precon.regionsBuffersFull},
            {"precon.regionsWarm", live.precon.regionsWarm,
             replayed.precon.regionsWarm},
            {"precon.tracesConstructed",
             live.precon.tracesConstructed,
             replayed.precon.tracesConstructed},
            {"precon.tracesBuffered", live.precon.tracesBuffered,
             replayed.precon.tracesBuffered},
            {"precon.tracesAlreadyInTc",
             live.precon.tracesAlreadyInTc,
             replayed.precon.tracesAlreadyInTc},
            {"precon.bufferHits", live.precon.bufferHits,
             replayed.precon.bufferHits},
            {"precon.linesFetched", live.precon.linesFetched,
             replayed.precon.linesFetched},
        };

    for (std::size_t i = 0; i < kNumOrigins; ++i) {
        const auto origin = static_cast<TraceOrigin>(i);
        const OriginProvenance &a = live.provenance.of(origin);
        const OriginProvenance &b = replayed.provenance.of(origin);
        const std::string prefix =
            std::string("provenance.") + traceOriginName(origin) +
            ".";
        const std::pair<const char *, std::pair<std::uint64_t,
                                                std::uint64_t>>
            rows[] = {
                {"builds", {a.builds, b.builds}},
                {"hits", {a.hits, b.hits}},
                {"firstUses", {a.firstUses, b.firstUses}},
                {"firstUseLatencySum",
                 {a.firstUseLatencySum, b.firstUseLatencySum}},
                {"evictCapacity", {a.evictCapacity, b.evictCapacity}},
                {"evictRefresh", {a.evictRefresh, b.evictRefresh}},
                {"evictInvalidate",
                 {a.evictInvalidate, b.evictInvalidate}},
                {"evictClear", {a.evictClear, b.evictClear}},
                {"evictedUnused", {a.evictedUnused, b.evictedUnused}},
            };
        for (const auto &[name, vals] : rows) {
            if (vals.first != vals.second)
                return fail(prefix + name + " diverges: live " +
                            num(vals.first) + ", replay " +
                            num(vals.second));
        }
    }

    // Attribution is deterministic bookkeeping on the same trace
    // stream, so it replays exactly too (all zeros when inactive).
    for (std::size_t i = 0; i < kNumOrigins; ++i) {
        const auto origin = static_cast<TraceOrigin>(i);
        for (std::size_t c = 0; c < kNumLoopClasses; ++c) {
            const auto cls = static_cast<LoopClass>(c);
            const AttribCell &a = live.attrib.of(origin, cls);
            const AttribCell &b = replayed.attrib.of(origin, cls);
            const std::string prefix =
                std::string("attrib.") + traceOriginName(origin) +
                "." + loopClassName(cls) + ".";
            const std::pair<const char *,
                            std::pair<std::uint64_t, std::uint64_t>>
                rows[] = {
                    {"builds", {a.builds, b.builds}},
                    {"hits", {a.hits, b.hits}},
                    {"firstUses", {a.firstUses, b.firstUses}},
                    {"firstUseLatencySum",
                     {a.firstUseLatencySum, b.firstUseLatencySum}},
                    {"evictions", {a.evictions(), b.evictions()}},
                    {"evictedUnused",
                     {a.evictedUnused, b.evictedUnused}},
                    {"instBuilt[*]",
                     {std::accumulate(a.instBuilt.begin(),
                                      a.instBuilt.end(),
                                      std::uint64_t{0}),
                      std::accumulate(b.instBuilt.begin(),
                                      b.instBuilt.end(),
                                      std::uint64_t{0})}},
                    {"instServed[*]",
                     {std::accumulate(a.instServed.begin(),
                                      a.instServed.end(),
                                      std::uint64_t{0}),
                      std::accumulate(b.instServed.begin(),
                                      b.instServed.end(),
                                      std::uint64_t{0})}},
                };
            for (const auto &[name, vals] : rows) {
                if (vals.first != vals.second)
                    return fail(prefix + name + " diverges: live " +
                                num(vals.first) + ", replay " +
                                num(vals.second));
            }
        }
    }

    for (const auto &[name, a, b] : fields) {
        if (a != b)
            return fail(std::string(name) + " diverges: live " +
                        num(a) + ", replay " + num(b));
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
    const std::uint64_t lookups = s.tcHits + s.pbHits + s.tcMisses;
    if (lookups != s.traces && lookups != s.traces + 1)
        return fail("tcHits " + num(s.tcHits) + " + pbHits " +
                    num(s.pbHits) + " + tcMisses " + num(s.tcMisses) +
                    " != traces fetched " + num(s.traces) +
                    " (nor one in-flight lookup more)");
    // The last dispatched trace gets no successor prediction, so the
    // predictor outcome counters cover at most traces - 1.
    if (s.ntpCorrect + s.ntpWrong + s.ntpNone > s.traces)
        return fail("next-trace predictor outcomes " +
                    num(s.ntpCorrect + s.ntpWrong + s.ntpNone) +
                    " exceed traces " + num(s.traces));
    if (Violation v = icacheStatsSane(s.icache))
        return v;
    return preconStatsSane(s.precon);
}

} // namespace tpre::check

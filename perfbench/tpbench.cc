/**
 * @file
 * tpbench: the repository benchmark. One process runs one
 * named workload through the tracepre public API, checks every
 * simulated row, and prints the workload's metrics; the last line
 * of standard output is one JSON object
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * with the end-to-end metrics (--trace 0) or the per-layer metrics
 * of the separate traced run (--trace 1). README.md in this
 * directory documents the workloads, metrics and noise handling.
 *
 *   tpbench --workload NAME --seed N --seconds S --trace 0|1
 *           [--digests FILE] [--git-ref REF] [--spans FILE]
 *   tpbench --record-digests > FILE   (seed 7, every workload)
 *   tpbench --selftest --digests FILE
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <mutex>
#include <thread>

#include "check/invariants.hh"
#include "check/stats_check.hh"
#include "common/random.hh"
#include "par/parallel_sweep.hh"
#include "perfbench.hh"
#include "sim/sweep.hh"

using namespace tpre;
using Clock = std::chrono::steady_clock;

namespace tpb
{
namespace
{

/** The seed whose row digests are recorded in the digests file. */
constexpr std::uint64_t kDigestSeed = 7;

/** Spacing of the repeated set-up measurements in the timed phase. */
constexpr double kSetupEverySeconds = 0.5;

/**
 * Set-up measurements before each parallel batch (~1.7 s), about as
 * many per second as kSetupEverySeconds gives a serial workload.
 */
constexpr int kSetupSamplesPerBatch = 3;

/**
 * TPRE_* variables that change simulated results or pick a code
 * path. A stray one would silently change what a number means, so
 * the benchmark refuses to run while any is set.
 */
bool
shapesResults(const std::string &name)
{
    static const char *const exact[] = {
        "TPRE_INSTS", "TPRE_BLOCK_CACHE", "TPRE_ARENA",
        "TPRE_ATTRIB", "TPRE_SUITE", "TPRE_WARM_INSTS",
        "TPRE_JOBS", "TPRE_TRACE",
    };
    for (const char *e : exact)
        if (name == e)
            return true;
    return name.rfind("TPRE_SAMPLE_", 0) == 0;
}

// ------------------------------------------------------------------
// Workloads

/** One workload: its rows, their labels and how they are run. */
struct Workload
{
    std::string name;
    /** Programs generated at set-up (the workload's benchmarks). */
    std::vector<std::string> programs;
    /** Rows in timed order; labels[i] names rows[i]. */
    std::vector<SimConfig> rows;
    std::vector<std::string> labels;
    /** Worker threads; 1 runs rows inline on the main thread. */
    unsigned jobs = 1;
    /** Label of the row the component drive replays. */
    std::string representative;
};

std::string
rowLabel(const SimConfig &c)
{
    std::string s = c.benchmark + "/tc" +
                    std::to_string(c.traceCacheEntries) + "/pb" +
                    std::to_string(c.preconBufferEntries);
    if (c.prepEnabled)
        s += "/prep";
    return s;
}

/**
 * Interleave rows in a fixed pseudo-random order (independent of
 * the seed): a run that stops mid-pass then still covers a
 * representative mix of benchmarks and cache sizes.
 */
void
shuffleRows(Workload &wl)
{
    Rng rng(0x7470626e63680001ULL);
    for (std::size_t i = wl.rows.size(); i > 1; --i)
        std::swap(wl.rows[i - 1], wl.rows[rng.nextBelow(i)]);
    for (const SimConfig &c : wl.rows)
        wl.labels.push_back(rowLabel(c));
}

std::optional<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             unsigned nproc)
{
    Workload wl;
    wl.name = name;
    auto add = [&](const std::string &bench, SizePoint p,
                   InstCount insts) -> SimConfig & {
        SimConfig c;
        c.benchmark = bench;
        c.workloadSeed = seed;
        c.maxInsts = insts;
        c.traceCacheEntries = p.tcEntries;
        c.preconBufferEntries = p.pbEntries;
        wl.rows.push_back(c);
        return wl.rows.back();
    };
    if (name == "fast_grid" || name == "sampled_grid") {
        const bool sampled = name == "sampled_grid";
        const InstCount insts = sampled ? 3'000'000 : 1'000'000;
        wl.programs = specint95Names();
        for (const std::string &b : wl.programs)
            for (const SizePoint &p : figure5Grid()) {
                SimConfig &c = add(b, p, insts);
                if (sampled) {
                    const sample::SampleSpec s =
                        sample::defaultSpec(insts);
                    c.sampleEvery = s.every;
                    c.sampleWindow = s.window;
                    c.sampleWarmup = s.warmup;
                }
            }
        wl.representative = "gcc/tc128/pb128";
    } else if (name == "timing_grid") {
        wl.programs = {"gcc", "go", "perl", "vortex"};
        for (const std::string &b : wl.programs)
            for (const bool prep : {false, true})
                for (const SizePoint &p :
                     {SizePoint{256, 0}, SizePoint{128, 128}}) {
                    SimConfig &c = add(b, p, 300'000);
                    c.mode = SimMode::Timing;
                    c.prepEnabled = prep;
                }
        wl.representative = "gcc/tc128/pb128/prep";
    } else if (name == "parallel_warm") {
        wl.programs = specint95Names();
        for (const std::string &b : extendedNames())
            wl.programs.push_back(b);
        for (const std::string &b : wl.programs)
            for (const SizePoint &p :
                 {SizePoint{64, 0}, SizePoint{256, 0},
                  SizePoint{128, 128}, SizePoint{512, 512}})
                add(b, p, 1'500'000).warmupInsts = 500'000;
        wl.jobs = std::max(1u, std::min(4u, nproc));
        wl.representative = "server/tc128/pb128";
    } else {
        return std::nullopt;
    }
    shuffleRows(wl);
    return wl;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fast_grid", "timing_grid", "sampled_grid", "parallel_warm"};
    return names;
}

// ------------------------------------------------------------------
// Output check

/** FNV-1a over the simulated statistics of one row. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    add(double d)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        add(bits);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Digest of every simulated statistic of a row. Host-side fields
 * (wall time, MIPS, block-dispatch counters) are left out, and so is
 * the attribution table, which a TPRE_OBS_DISABLED build zeroes; the
 * attribution table is reconciled against provenance instead.
 */
std::uint64_t
rowDigest(const SimResult &r)
{
    Digest d;
    for (const std::uint64_t v :
         {r.instructions, r.cycles, r.traces, r.tcMisses, r.pbHits,
          r.sampleWindows, r.sampledInsts, r.skippedInsts,
          r.warmupInsts, std::uint64_t(r.warm),
          std::uint64_t(r.sampled)})
        d.add(v);
    for (const double v :
         {r.ipc, r.missesPerKi, r.icacheSupplyPerKi,
          r.icacheMissesPerKi, r.icacheMissSupplyPerKi, r.coverage,
          r.ci95MissesPerKi, r.ci95Coverage,
          r.ci95IcacheMissesPerKi})
        d.add(v);
    const PreconstructionEngine::Stats &p = r.precon;
    for (const std::uint64_t v :
         {p.startPointsPushed, p.regionsStarted, p.regionsCompleted,
          p.regionsCaughtUp, p.regionsPrefetchFull,
          p.regionsBuffersFull, p.regionsWarm, p.tracesConstructed,
          p.tracesBuffered, p.tracesAlreadyInTc, p.bufferHits,
          p.linesFetched})
        d.add(v);
    for (const std::uint64_t v :
         {r.prep.tracesProcessed, r.prep.constsPropagated,
          r.prep.opsFused, r.prep.instsMoved})
        d.add(v);
    for (const OriginProvenance &o : r.provenance.origins)
        for (const std::uint64_t v :
             {o.builds, o.hits, o.firstUses, o.firstUseLatencySum,
              o.evictCapacity, o.evictRefresh, o.evictInvalidate,
              o.evictClear, o.evictedUnused})
            d.add(v);
    return d.value();
}

/**
 * Conservation and reconciliation checks on one row; the first
 * violation, or nullopt. SimResult carries no tcHits, so the ledger's
 * hits stand in for tcHits + pbHits and are held to the row's trace
 * count instead: exactly in Fast mode, within the one trace a timing
 * run has looked up but not yet dispatched when it stops. Sampled
 * rows extrapolate their counters while provenance stays raw, so
 * they skip the provenance reconciliation.
 */
check::Violation
checkRow(const SimResult &r)
{
    if (r.instructions == 0)
        return "row committed no instructions";
    if (r.tcMisses + r.pbHits > r.traces)
        return "misses + buffer hits exceed traces";
    if (check::Violation v = check::preconStatsSane(r.precon))
        return v;
    const ProvenanceTable &prov = r.provenance;
    if (r.sampled) {
        if (r.sampleWindows == 0 ||
            r.skippedInsts + r.sampledInsts > r.instructions)
            return "sampled row accounting does not balance";
    } else {
        const std::uint64_t served = prov.totalHits() + r.tcMisses;
        const std::uint64_t slack =
            r.config.mode == SimMode::Timing ? 1 : 0;
        if (prov.totalHits() < r.pbHits || served < r.traces ||
            served > r.traces + slack)
            return "provenance hits + misses do not match traces";
        if (check::Violation v = check::provenanceReconciles(
                prov, prov.totalHits() - r.pbHits, r.pbHits,
                r.tcMisses, prov.resident()))
            return v;
    }
    return check::attribReconciles(
        r.attrib, prov, obs::kEnabled && attribDefaultEnabled());
}

using DigestTable = std::map<std::string, std::uint64_t>;

/** "workload label hex" lines; empty table when the file is absent. */
DigestTable
loadDigests(const std::string &path, const std::string &workload)
{
    DigestTable table;
    std::ifstream in(path);
    std::string wl, label, hex;
    while (in >> wl >> label >> hex)
        if (wl == workload)
            table[label] = std::strtoull(hex.c_str(), nullptr, 16);
    return table;
}

/** Counts rows and their failures; failure details go to stderr. */
struct RowChecker
{
    /** Digests to hold rows to (empty: digests are not checked). */
    DigestTable digests;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, std::uint64_t> failedByLabel;

    bool
    verify(const SimResult &r, const std::string &label)
    {
        ++attempted;
        std::optional<std::string> why = checkRow(r);
        if (!why && !digests.empty()) {
            const auto it = digests.find(label);
            if (it == digests.end())
                why = "no recorded digest";
            else if (it->second != rowDigest(r))
                why = "simulated statistics differ from the "
                      "recorded digest";
        }
        if (!why)
            return true;
        ++failed;
        if (failedByLabel[label]++ == 0)
            std::fprintf(stderr, "row %s failed: %s\n",
                         label.c_str(), why->c_str());
        return false;
    }
};

// ------------------------------------------------------------------
// Timed phase

/** Generate every program of the workload through @p sim. */
double
timeSetup(Simulator &sim, const Workload &wl, std::uint64_t seed)
{
    const Clock::time_point start = Clock::now();
    for (const std::string &p : wl.programs)
        sim.workload(p, seed);
    return secondsSince(start);
}

struct TimedResult
{
    /** Host seconds of the timed phase, gauge readings excluded. */
    double seconds = 0.0;
    /** The same phase in nominal-host seconds. */
    double nominalSeconds = 0.0;
    std::uint64_t insts = 0;
    /** Set-up times in host and in nominal-host seconds. */
    std::vector<double> setupSamples;
    std::vector<double> nominalSetupSamples;
};

/**
 * The timed phase: rows run pass after pass (each pass in the
 * workload's fixed order) until @p seconds have elapsed, and every
 * row is checked as it finishes. Every kSetupEverySeconds (before
 * every parallel batch, kSetupSamplesPerBatch times) the clock
 * pauses while the set-up work is timed again on a fresh Simulator,
 * so the set-up figure covers the whole run rather than one moment
 * of it. Parallel workloads run each pass as one runParallelGrid
 * batch on a fresh Simulator, so every batch builds its own warm-up
 * checkpoints as a user's sweep would.
 *
 * The host gauge is read, with the clock paused, after every serial
 * row (on all workers at once after every parallel batch) and on
 * both sides of every set-up timing. Each interval is converted to
 * nominal-host seconds at the mean of the readings on its two sides.
 */
TimedResult
runTimed(const Workload &wl, std::uint64_t seed, double seconds,
         RowChecker &checker)
{
    TimedResult out;
    const auto setupSample = [&](Simulator &fresh) {
        const double before = hostSpeed();
        const double t = timeSetup(fresh, wl, seed);
        const double after = hostSpeed();
        out.setupSamples.push_back(t);
        out.nominalSetupSamples.push_back(t * 0.5 * (before + after));
    };
    Simulator sim;
    setupSample(sim);

    const Clock::time_point start = Clock::now();
    double paused = 0.0;
    double nextSetup = kSetupEverySeconds;
    const auto elapsed = [&] { return secondsSince(start) - paused; };
    // Read the gauge with the phase's clock paused.
    const auto gauge = [&] {
        const Clock::time_point p = Clock::now();
        const double speed = hostSpeedAll(wl.jobs);
        paused += secondsSince(p);
        return speed;
    };
    double speed = gauge();
    const auto account = [&](double intervalSeconds) {
        const double after = gauge();
        out.nominalSeconds += intervalSeconds * 0.5 * (speed + after);
        speed = after;
    };

    if (wl.jobs <= 1) {
        for (std::size_t i = 0;; i = (i + 1) % wl.rows.size()) {
            const Clock::time_point t0 = Clock::now();
            const SimResult r = sim.run(wl.rows[i]);
            checker.verify(r, wl.labels[i]);
            out.insts += r.instructions;
            account(secondsSince(t0));
            if (elapsed() >= seconds)
                break;
            if (elapsed() >= nextSetup) {
                const Clock::time_point p = Clock::now();
                Simulator fresh;
                setupSample(fresh);
                paused += secondsSince(p);
                nextSetup = elapsed() + kSetupEverySeconds;
            }
        }
    } else {
        while (elapsed() < seconds) {
            Simulator batch;
            const Clock::time_point p = Clock::now();
            setupSample(batch);
            for (int k = 1; k < kSetupSamplesPerBatch; ++k) {
                Simulator fresh;
                setupSample(fresh);
            }
            paused += secondsSince(p);
            par::SweepOptions opts;
            opts.jobs = wl.jobs;
            opts.name = wl.name.c_str();
            std::size_t next = 0;
            opts.onResult = [&](const SimResult &r) {
                checker.verify(r, wl.labels[next++]);
                out.insts += r.instructions;
            };
            const Clock::time_point t0 = Clock::now();
            par::runParallelGrid(batch, wl.rows, opts);
            account(secondsSince(t0));
        }
    }
    out.seconds = elapsed();
    return out;
}

/**
 * Largest relative error (percent) of the sampled missesPerKi of
 * the workload's 128 TC + 128 PB rows against a detailed run of the
 * same rows, all in Fast mode (timing rows are compared on their
 * fast-frontend twins, since timing mode cannot sample). Runs outside the timed phase, always on the programs of
 * the digest seed: the error is deterministic per seed but differs
 * between seeds by up to 3x, so only a fixed set of programs makes
 * it comparable from run to run; a change in it is a code change.
 */
double
sampleErrorPct(const Workload &wl)
{
    Simulator sim;
    double worst = 0.0;
    for (const SimConfig &row : wl.rows) {
        if (row.traceCacheEntries != 128 ||
            row.preconBufferEntries != 128 || row.prepEnabled)
            continue;
        SimConfig detailed = row;
        detailed.mode = SimMode::Fast;
        detailed.workloadSeed = kDigestSeed;
        detailed.sampleEvery = detailed.sampleWindow =
            detailed.sampleWarmup = 0;
        SimConfig sampled = detailed;
        const sample::SampleSpec s = sample::defaultSpec(
            row.maxInsts - row.warmupInsts);
        sampled.sampleEvery = s.every;
        sampled.sampleWindow = s.window;
        sampled.sampleWarmup = s.warmup;
        const double ref = sim.run(detailed).missesPerKi;
        const double est = sim.run(sampled).missesPerKi;
        if (ref > 0.0)
            worst = std::max(worst, std::fabs(est - ref) / ref);
    }
    return 100.0 * worst;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
mean(const std::vector<double> &xs)
{
    double s = 0.0;
    for (double x : xs)
        s += x;
    return xs.empty() ? 0.0 : s / static_cast<double>(xs.size());
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

// ------------------------------------------------------------------
// Traced run

/** One span: a row (or job) from start to end, in seconds. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    unsigned thread = 0;
};

/**
 * Run the workload's first @p n rows once through par::runJobs — the
 * engine under runParallelGrid — with the workload's job count, on a
 * fresh Simulator whose programs are generated before the clock
 * starts (so every batch builds its own warm-up checkpoints). Results land in @p results. When @p spans is given, each
 * Simulator::run is wrapped in a span (times relative to the pass
 * start) appended to it in memory. Returns the pass's wall time.
 */
double
runPass(const Workload &wl, std::uint64_t seed, std::size_t n,
        std::vector<SimResult> &results, std::vector<Span> *spans)
{
    Simulator sim;
    timeSetup(sim, wl, seed);
    results.assign(n, SimResult{});
    std::vector<Span> local(n);
    std::mutex mu;
    std::map<std::thread::id, unsigned> threads;
    const Clock::time_point start = Clock::now();
    par::runJobs(n, wl.jobs, 0,
                 [&](std::size_t i, Rng &) {
                     const double t0 = spans ? secondsSince(start) : 0.0;
                     results[i] = sim.run(wl.rows[i]);
                     if (!spans)
                         return;
                     const double t1 = secondsSince(start);
                     std::lock_guard<std::mutex> guard(mu);
                     const auto ins = threads.emplace(
                         std::this_thread::get_id(),
                         static_cast<unsigned>(threads.size()));
                     local[i] = {wl.labels[i], t0, t1,
                                 ins.first->second};
                 },
                 "tpbench");
    const double wall = secondsSince(start);
    if (spans)
        spans->insert(spans->end(), local.begin(), local.end());
    return wall;
}

/** Spans as Chrome trace_event JSON (open in Perfetto). */
void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write spans to %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(f, "{\"traceEvents\": [");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s\n{\"name\": \"%s\", \"cat\": \"sim.run\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                     "\"ts\": %.3f, \"dur\": %.3f}",
                     i ? "," : "", s.name.c_str(), s.thread,
                     s.start * 1e6, (s.end - s.start) * 1e6);
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
}

/**
 * The traced run: untraced and traced runs of the same rows, then
 * the component drive over the representative row. Every per-layer
 * metric is returned.
 */
Metrics
tracedRun(const Workload &wl, std::uint64_t seed, RowChecker &checker,
          const std::string &spanPath)
{
    Metrics m;
    Simulator sim;
    std::vector<double> genSeconds;
    for (const std::string &p : wl.programs) {
        const Clock::time_point t = Clock::now();
        sim.workload(p, seed);
        genSeconds.push_back(secondsSince(t));
    }
    m.push_back({"workload.gen_s", mean(genSeconds), "s"});

    // Untraced and traced runs of the same rows alternate in ABBA
    // order, so a drift in host speed weighs on both alike. Parallel
    // workloads alternate whole batches. Serial workloads alternate
    // row by row, back to back, over the first half of their rows (an
    // interleaved mix); their spans are laid end to end, as a traced
    // pass on its own would run them.
    std::vector<SimResult> rows;
    std::vector<Span> spans;
    double untraced = 0.0, traced = 0.0;
    if (wl.jobs > 1) {
        for (int k = 0; k < 8; ++k) {
            const bool tracing = k % 4 == 1 || k % 4 == 2;
            (tracing ? traced : untraced) +=
                runPass(wl, seed, wl.rows.size(), rows,
                        tracing ? &spans : nullptr);
            for (std::size_t i = 0; i < rows.size(); ++i)
                checker.verify(rows[i], wl.labels[i]);
        }
    } else {
        Simulator plain, tracedSim;
        timeSetup(plain, wl, seed);
        timeSetup(tracedSim, wl, seed);
        rows.resize((wl.rows.size() + 1) / 2);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            for (const bool tracing : {i % 2 == 1, i % 2 == 0}) {
                const Clock::time_point t0 = Clock::now();
                rows[i] = (tracing ? tracedSim : plain).run(wl.rows[i]);
                const double d = secondsSince(t0);
                if (tracing)
                    spans.push_back(
                        {wl.labels[i], traced, traced + d, 0});
                (tracing ? traced : untraced) += d;
                checker.verify(rows[i], wl.labels[i]);
            }
        }
    }
    if (!spanPath.empty())
        writeSpans(spanPath, spans);

    std::vector<double> rowSeconds;
    double busy = 0.0, wait = 0.0;
    for (const Span &s : spans) {
        rowSeconds.push_back(s.end - s.start);
        busy += s.end - s.start;
        wait += s.start;
    }
    m.push_back({"sim.row_s.p50", quantile(rowSeconds, 0.5), "s"});
    m.push_back({"sim.row_s.p90", quantile(rowSeconds, 0.9), "s"});
    m.push_back({"par.worker_busy_frac",
                 busy / (traced * static_cast<double>(wl.jobs)),
                 "fraction"});
    m.push_back({"par.queue_wait_s",
                 wait / static_cast<double>(spans.size()), "s"});

    std::uint64_t constructed = 0, bufferHits = 0;
    double insts = 0.0, detailed = 0.0, windows = 0.0;
    for (const SimResult &r : rows) {
        constructed += r.precon.tracesConstructed;
        bufferHits += r.precon.bufferHits;
        insts += static_cast<double>(r.instructions);
        detailed += static_cast<double>(r.instructions - r.skippedInsts);
        windows += static_cast<double>(r.sampleWindows);
    }
    m.push_back({"precon.useful_ratio",
                 constructed ? static_cast<double>(bufferHits) /
                                   static_cast<double>(constructed)
                             : 0.0,
                 "ratio"});
    m.push_back({"sample.detailed_frac", detailed / insts, "fraction"});
    m.push_back({"sample.windows",
                 windows / static_cast<double>(rows.size()),
                 "count/row"});
    m.push_back({"tracing.overhead_frac", traced / untraced - 1.0,
                 "fraction"});

    const auto rep = std::find(wl.labels.begin(), wl.labels.end(),
                               wl.representative);
    const SimConfig &rc =
        wl.rows[static_cast<std::size_t>(rep - wl.labels.begin())];
    const SimResult repRow = sim.run(rc);
    checker.verify(repRow, wl.representative);
    const Metrics layers = driveComponents(
        sim.workload(rc.benchmark, seed)->program, rc, repRow);
    m.insert(m.end(), layers.begin(), layers.end());
    return m;
}

// ------------------------------------------------------------------
// Reporting

void
printProvenance(const std::string &gitRef)
{
    std::printf("{\"build\": {\"build_type\": \"%s\", "
                "\"TPRE_CHECK\": \"%s\", \"TPRE_OBS_DISABLED\": "
                "\"%s\", \"TPRE_NATIVE_ARCH\": \"%s\", "
                "\"compiler\": \"%s\", \"nproc\": %u, "
                "\"git_ref\": \"%s\"}}\n",
                TPB_BUILD_TYPE, TPB_CHECK, TPB_OBS_DISABLED,
                TPB_NATIVE_ARCH, TPB_COMPILER,
                std::thread::hardware_concurrency(), gitRef.c_str());
}

void
printResult(const RowChecker &checker, const Metrics &metrics)
{
    for (const Metric &mt : metrics)
        std::printf("  %-36s %14.6g %s\n", mt.name.c_str(), mt.value,
                    mt.unit.c_str());
    std::printf("rows attempted %" PRIu64 ", failed %" PRIu64 "\n",
                checker.attempted, checker.failed);
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                checker.failed == 0 ? "true" : "false",
                checker.attempted, checker.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

/** Run one pass of every workload at the digest seed and print the
 *  digest lines. */
int
recordDigests(unsigned nproc)
{
    for (const std::string &name : workloadNames()) {
        const Workload wl = *makeWorkload(name, kDigestSeed, nproc);
        std::vector<SimResult> rows;
        runPass(wl, kDigestSeed, wl.rows.size(), rows, nullptr);
        for (std::size_t i = 0; i < rows.size(); ++i)
            std::printf("%s %s %016" PRIx64 "\n", name.c_str(),
                        wl.labels[i].c_str(), rowDigest(rows[i]));
    }
    return 0;
}

/**
 * Self-test of the output check: with one recorded digest changed,
 * every run of that row, and only that row, must count as failed.
 */
int
selftest(const std::string &digestPath, unsigned nproc)
{
    const Workload wl = *makeWorkload("timing_grid", kDigestSeed, nproc);
    RowChecker checker;
    checker.digests = loadDigests(digestPath, wl.name);
    if (checker.digests.size() != wl.rows.size()) {
        std::fprintf(stderr, "selftest: %s holds no complete digest "
                             "set for %s\n",
                     digestPath.c_str(), wl.name.c_str());
        return 1;
    }
    const std::string victim = wl.labels.front();
    checker.digests[victim] ^= 1;
    runTimed(wl, kDigestSeed, 1.0, checker);
    const bool ok = checker.failed >= 1 &&
                    checker.failedByLabel.size() == 1 &&
                    checker.failedByLabel.count(victim) &&
                    checker.failed == checker.failedByLabel[victim];
    std::printf("selftest: changed digest of %s; %" PRIu64
                " of %" PRIu64 " rows failed: %s\n",
                victim.c_str(), checker.failed, checker.attempted,
                ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "tpbench: %s\nusage: tpbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--digests FILE] "
                 "[--git-ref REF] [--spans FILE]\n"
                 "       tpbench --record-digests\n"
                 "       tpbench --selftest --digests FILE\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseNumber(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || end == text || *end || text[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

} // namespace
} // namespace tpb

int
main(int argc, char **argv)
{
    using namespace tpb;
    extern char **environ;
    for (char **e = environ; *e; ++e) {
        const std::string var(*e);
        const std::string name = var.substr(0, var.find('='));
        if (shapesResults(name)) {
            std::fprintf(stderr,
                         "tpbench: refusing to run with %s set: it "
                         "changes what the numbers mean; unset it\n",
                         name.c_str());
            return 2;
        }
    }

    std::string workload, digestPath, spanPath, gitRef = "unknown";
    std::uint64_t seed = kDigestSeed, seconds = 0, trace = 0;
    bool record = false, self = false, haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage((arg + " needs a value").c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            workload = value();
        else if (arg == "--seed")
            seed = parseNumber("--seed", value());
        else if (arg == "--seconds") {
            seconds = parseNumber("--seconds", value());
            haveSeconds = true;
        } else if (arg == "--trace")
            trace = parseNumber("--trace", value());
        else if (arg == "--digests")
            digestPath = value();
        else if (arg == "--git-ref")
            gitRef = value();
        else if (arg == "--spans")
            spanPath = value();
        else if (arg == "--record-digests")
            record = true;
        else if (arg == "--selftest")
            self = true;
        else
            usage(("unknown option " + arg).c_str());
    }
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    if (record)
        return recordDigests(nproc);
    if (self)
        return selftest(digestPath, nproc);
    if (trace > 1 || (!trace && (!haveSeconds || seconds == 0)))
        usage("--trace must be 0 or 1 and --seconds positive");

    std::optional<Workload> wl = makeWorkload(workload, seed, nproc);
    if (!wl)
        usage(("unknown workload '" + workload + "'").c_str());

    printProvenance(gitRef);
    std::printf("workload %s, seed %" PRIu64 ", %s run, %u job%s\n",
                wl->name.c_str(), seed, trace ? "traced" : "timed",
                wl->jobs, wl->jobs == 1 ? "" : "s");

    RowChecker checker;
    if (seed == kDigestSeed) {
        checker.digests = loadDigests(digestPath, wl->name);
        if (checker.digests.empty()) {
            std::fprintf(stderr, "tpbench: no recorded digests for %s "
                                 "in '%s'\n",
                         wl->name.c_str(), digestPath.c_str());
            return 1;
        }
    }

    Metrics metrics;
    if (trace) {
        metrics = tracedRun(*wl, seed, checker, spanPath);
    } else {
        const TimedResult t =
            runTimed(*wl, seed, static_cast<double>(seconds), checker);
        const double insts = static_cast<double>(t.insts);
        metrics.push_back(
            {"mips", insts / 1e6 / t.nominalSeconds, "Minst/s"});
        metrics.push_back(
            {"setup_s", quantile(t.nominalSetupSamples, 0.5), "s"});
        metrics.push_back({"sample_err_pct", sampleErrorPct(*wl), "%"});
        metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
        std::printf("timed phase %.3f s (%.3f nominal-host s, host "
                    "speed %.4f), %" PRIu64 " instructions, %zu "
                    "set-up samples\n",
                    t.seconds, t.nominalSeconds,
                    t.nominalSeconds / t.seconds, t.insts,
                    t.setupSamples.size());
        std::printf("{\"host_seconds\": {\"mips\": %.6g, "
                    "\"setup_s\": %.6g}}\n",
                    insts / 1e6 / t.seconds,
                    quantile(t.setupSamples, 0.5));
    }
    printResult(checker, metrics);
    return 0;
}

/**
 * @file
 * Shared helpers for the benchmark harnesses: run lengths, the
 * standard header each binary prints, and the Harness wrapper that
 * gives every binary --jobs N / TPRE_JOBS sharding plus a
 * machine-readable BENCH_<name>.json report.
 */

#ifndef TPRE_BENCH_BENCH_COMMON_HH
#define TPRE_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "check/stats_check.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "obs/obs.hh"
#include "par/parallel_sweep.hh"
#include "par/thread_pool.hh"
#include "sim/json_report.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/server.hh"

namespace tpre::bench
{

/**
 * Default per-run instruction budget (override via TPRE_INSTS).
 * Rejects non-numeric, zero, or negative budgets with a fatal()
 * naming the bad value instead of letting them flow downstream as
 * a 0-instruction run with a misleading panic.
 */
inline InstCount
runLength(InstCount fallback)
{
    if (const char *env = std::getenv("TPRE_INSTS"))
        return static_cast<InstCount>(
            parsePositiveInt(env, "TPRE_INSTS"));
    return fallback;
}

inline void
banner(const char *what, const char *paper_expectation)
{
    std::printf("==============================================="
                "=================\n");
    std::printf("%s\n", what);
    std::printf("Paper expectation: %s\n", paper_expectation);
    std::printf("==============================================="
                "=================\n");
}

/**
 * Sanity-check one experiment's statistics before its numbers go
 * into a table: counters must be conserved (a figure built on a
 * leaking counter is silently wrong). Panics on violation.
 */
inline const SimResult &
verified(const SimResult &r)
{
    if (r.instructions == 0)
        panic("benchmark run committed no instructions");
    if (r.tcMisses > r.traces)
        panic("trace-cache misses exceed traces fetched");
    check::enforce(check::preconStatsSane(r.precon),
                   "benchmark result");
    return r;
}

/**
 * Per-binary harness: parses --jobs N (or TPRE_JOBS, or the CPUs
 * the process may run on by default), --trace-out FILE (enable the
 * tpre::obs tracer and export Chrome trace_event JSON on finish —
 * open the file in Perfetto) and --telemetry-port N (or
 * TPRE_TELEMETRY_PORT: serve /metrics, /healthz and /runs on
 * 127.0.0.1:N for the duration of the run; port 0 picks an
 * ephemeral port) and --sample (SMARTS-style sampled simulation:
 * apply sample::defaultSpec to every Fast-mode row via applySample(),
 * unless TPRE_SAMPLE_* pins an explicit regime). The crash flight
 * recorder is always installed (opt out with
 * TPRE_FLIGHT_RECORDER=0). Times the run, collects verified result
 * rows, and writes BENCH_<name>.json on finish(). Intended use:
 *
 *   int main(int argc, char **argv) {
 *       bench::Harness harness("fig5_miss_rates", argc, argv);
 *       ...
 *       auto rows = par::runParallelGrid(sim, configs,
 *                                        harness.sweepOptions());
 *       for (const SimResult &r : rows) harness.record(r);
 *       return harness.finish();
 *   }
 */
class Harness
{
  public:
    Harness(const char *name, int argc, char **argv)
        : start_(std::chrono::steady_clock::now()),
          opts_(parseCommandLine(argc, argv)),
          report_(name, opts_.jobs)
    {
        if (!opts_.traceOut.empty())
            obs::Tracer::instance().setEnabled(true);
        telemetry::installFlightRecorder(name);
        if (opts_.telemetryPort >= 0)
            telemetry_.start(
                static_cast<std::uint16_t>(opts_.telemetryPort));
        benchStart_ = obs::wallMicros();
        TPRE_TRACE_INSTANT("bench", name, obs::Domain::Wall,
                           benchStart_);
    }

    /** Worker threads the binary's sweeps shard over. */
    unsigned jobs() const { return opts_.jobs; }

    /** Was --sample given (SMARTS-style sampled simulation)? */
    bool sampling() const { return opts_.sample; }

    /**
     * Apply the --sample flag to one experiment config: fills in
     * sample::defaultSpec for the config's budget unless explicit
     * TPRE_SAMPLE_* knobs already configured a regime. A no-op
     * without --sample, so binaries can call it unconditionally.
     */
    SimConfig &
    applySample(SimConfig &cfg) const
    {
        if (!opts_.sample || cfg.sampleEvery != 0)
            return cfg;
        const sample::SampleSpec spec =
            sample::defaultSpec(cfg.maxInsts);
        cfg.sampleEvery = spec.every;
        cfg.sampleWindow = spec.window;
        cfg.sampleWarmup = spec.warmup;
        return cfg;
    }

    /** Chrome-trace output path ("" when --trace-out not given). */
    const std::string &traceOut() const { return opts_.traceOut; }

    /** The live telemetry endpoint's port (0 when disabled). */
    std::uint16_t telemetryPort() const { return telemetry_.port(); }

    /** SweepOptions preset with this run's job count and name. */
    par::SweepOptions
    sweepOptions() const
    {
        par::SweepOptions opts;
        opts.jobs = opts_.jobs;
        opts.name = report_.name().c_str();
        return opts;
    }

    /** Verify one result row and add it to the JSON report. */
    const SimResult &
    record(const SimResult &r)
    {
        report_.add(verified(r));
        simulatedInsts_ += r.instructions;
        return r;
    }

    /** Write the JSON report; returns the binary's exit status. */
    int
    finish()
    {
        telemetry_.stop();
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        const std::string path = report_.write(wall);
        if (path.empty())
            return 1;
        const double mips =
            wall > 0.0
                ? static_cast<double>(simulatedInsts_) / 1e6 / wall
                : 0.0;
        std::printf("\n[%u job%s, %.2fs, %.2f MIPS] wrote %s "
                    "(%zu rows)\n",
                    opts_.jobs, opts_.jobs == 1 ? "" : "s", wall,
                    mips, path.c_str(), report_.rows());
        if (!opts_.traceOut.empty()) {
            TPRE_TRACE_COMPLETE("bench", "run", obs::Domain::Wall,
                                benchStart_,
                                obs::wallMicros() - benchStart_,
                                report_.rows());
            const obs::Tracer &tracer = obs::Tracer::instance();
            if (!tracer.writeChromeJson(opts_.traceOut)) {
                warn("cannot write Chrome trace to %s",
                     opts_.traceOut.c_str());
                return 1;
            }
            std::printf("wrote Chrome trace %s (%llu events, "
                        "%llu dropped); open in Perfetto\n",
                        opts_.traceOut.c_str(),
                        static_cast<unsigned long long>(
                            tracer.numEvents()),
                        static_cast<unsigned long long>(
                            tracer.droppedEvents()));
        }
        return 0;
    }

  private:
    struct Options
    {
        unsigned jobs = 1;
        std::string traceOut;
        /** Telemetry port; -1 = disabled, 0 = ephemeral. */
        int telemetryPort = -1;
        /** SMARTS-style sampled simulation (sample::defaultSpec). */
        bool sample = false;
    };

    static Options
    parseCommandLine(int argc, char **argv)
    {
        Options opts;
        opts.jobs = par::defaultJobs();
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--jobs") {
                if (i + 1 >= argc)
                    fatal("--jobs needs a value");
                opts.jobs = parseJobs(argv[++i], "--jobs");
            } else if (arg.rfind("--jobs=", 0) == 0) {
                opts.jobs = parseJobs(arg.c_str() + 7, "--jobs");
            } else if (arg == "--trace-out") {
                if (i + 1 >= argc)
                    fatal("--trace-out needs a file path");
                opts.traceOut = argv[++i];
            } else if (arg.rfind("--trace-out=", 0) == 0) {
                opts.traceOut = arg.substr(12);
                if (opts.traceOut.empty())
                    fatal("--trace-out needs a file path");
            } else if (arg == "--telemetry-port") {
                if (i + 1 >= argc)
                    fatal("--telemetry-port needs a value");
                opts.telemetryPort =
                    parsePort(argv[++i], "--telemetry-port");
            } else if (arg.rfind("--telemetry-port=", 0) == 0) {
                opts.telemetryPort =
                    parsePort(arg.c_str() + 17, "--telemetry-port");
            } else if (arg == "--sample") {
                opts.sample = true;
            } else {
                fatal("unknown option '%s' (supported: --jobs N, "
                      "--trace-out FILE, --telemetry-port N, "
                      "--sample; budget via "
                      "TPRE_INSTS, sampling regime via "
                      "TPRE_SAMPLE_EVERY/WINDOW/WARMUP)",
                      arg.c_str());
            }
        }
        if (opts.telemetryPort < 0) {
            if (const char *env =
                    std::getenv("TPRE_TELEMETRY_PORT"))
                opts.telemetryPort =
                    parsePort(env, "TPRE_TELEMETRY_PORT");
        }
        return opts;
    }

    std::chrono::steady_clock::time_point start_;
    Options opts_;
    BenchReport report_;
    telemetry::TelemetryServer telemetry_;
    /** obs::wallMicros() at harness construction (bench span). */
    std::uint64_t benchStart_ = 0;
    /** Total simulated instructions across recorded rows. */
    std::uint64_t simulatedInsts_ = 0;
};

} // namespace tpre::bench

#endif // TPRE_BENCH_BENCH_COMMON_HH

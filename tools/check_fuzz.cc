/**
 * @file
 * check_fuzz: differential-fuzzing driver over the tpre::check
 * oracle. Each seed builds either a mutated benchmark profile or a
 * raw random program plus a randomized machine configuration, runs
 * it through the reference interpreter, FastSim and (optionally)
 * the full TraceProcessor, and cross-checks the committed streams,
 * trace boundaries, served trace images and statistics. Failures
 * are shrunk to a minimal reproducer and dumped to
 * check_fuzz_repro_<seed>.txt.
 *
 * Usage: check_fuzz [--seeds N] [--seed S] [--max-insts N]
 *                   [--jobs N] [--no-shrink] [--quiet]
 *                   [--telemetry-port N]
 *   --seeds N      number of cases to run (default 256)
 *   --seed S       first seed (default 1); with --seeds 1 this
 *                  reruns exactly one case, e.g. a reproducer
 *   --max-insts N  committed-instruction budget per case
 *   --jobs N       worker threads for the campaign (default:
 *                  TPRE_JOBS, else the CPUs it may run on); the
 *                  report is identical at any job count
 *   --no-shrink    report the original failing case unshrunk
 *   --quiet        suppress per-case progress output
 *   --telemetry-port N  serve /metrics /healthz /runs on
 *                  127.0.0.1:N for the campaign (0 = ephemeral;
 *                  also TPRE_TELEMETRY_PORT)
 *
 * The crash flight recorder is installed by default
 * (TPRE_FLIGHT_RECORDER=0 opts out).
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "check/fuzz.hh"
#include "common/parse.hh"
#include "isa/disasm.hh"
#include "par/thread_pool.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/server.hh"

using namespace tpre;

namespace
{

void
dumpReproducer(const check::FuzzFailure &f)
{
    const std::string path =
        "check_fuzz_repro_" + std::to_string(f.shrunk.seed) +
        ".txt";
    std::ofstream out(path);
    out << "# check_fuzz reproducer, seed " << f.shrunk.seed
        << "\n# case: " << f.shrunk.description
        << "\n# original failure: " << f.failure
        << "\n# shrunk failure:   " << f.shrunkFailure
        << "\n# shrunk " << f.originalInsts << " -> "
        << f.shrunkInsts << " live instructions"
        << "\n# rerun: check_fuzz --seed " << f.shrunk.seed
        << " --seeds 1\n#\n";
    const Program program = f.shrunk.program();
    out << disassemble(program);
    std::cerr << "reproducer written to " << path << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    check::FuzzOptions opts;
    opts.jobs = par::defaultJobs();
    bool quiet = false;
    int telemetryPort = -1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        auto number = [&]() -> std::uint64_t {
            const char *text = value();
            char *end = nullptr;
            const std::uint64_t n = std::strtoull(text, &end, 0);
            if (end == text || *end != '\0') {
                std::cerr << arg << " needs a number, got '"
                          << text << "'\n";
                std::exit(2);
            }
            return n;
        };
        if (!std::strcmp(arg, "--seeds")) {
            opts.seeds = number();
        } else if (!std::strcmp(arg, "--seed")) {
            opts.baseSeed = number();
        } else if (!std::strcmp(arg, "--max-insts")) {
            opts.maxInsts = number();
            if (opts.maxInsts == 0) {
                std::cerr << "--max-insts must be positive\n";
                return 2;
            }
        } else if (!std::strcmp(arg, "--jobs")) {
            opts.jobs = parseJobs(value(), "--jobs");
        } else if (!std::strcmp(arg, "--no-shrink")) {
            opts.shrink = false;
        } else if (!std::strcmp(arg, "--quiet")) {
            quiet = true;
        } else if (!std::strcmp(arg, "--telemetry-port")) {
            telemetryPort = parsePort(value(), "--telemetry-port");
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            return 2;
        }
    }
    if (telemetryPort < 0) {
        if (const char *env = std::getenv("TPRE_TELEMETRY_PORT"))
            telemetryPort = parsePort(env, "TPRE_TELEMETRY_PORT");
    }

    telemetry::installFlightRecorder("check_fuzz");
    telemetry::TelemetryServer telemetry;
    if (telemetryPort >= 0)
        telemetry.start(static_cast<std::uint16_t>(telemetryPort));

    std::uint64_t done = 0;
    opts.onCase = [&](const check::FuzzCase &c,
                      const check::DiffResult &r) {
        ++done;
        if (!quiet && (done % 16 == 0 || r.failure)) {
            std::cerr << "[" << done << "/" << opts.seeds
                      << "] seed " << c.seed << ": "
                      << (r.failure ? *r.failure : "ok") << " ("
                      << r.instructions << " insts, " << r.traces
                      << " traces)\n";
        }
    };

    const check::FuzzReport report = check::runFuzz(opts);

    std::cout << "check_fuzz: " << report.casesRun << " cases, "
              << report.instructionsExecuted
              << " committed instructions, " << report.tracesChecked
              << " traces checked, " << report.failures.size()
              << " failure(s)\n";
    for (const check::FuzzFailure &f : report.failures) {
        std::cout << "FAIL seed " << f.shrunk.seed << " ["
                  << f.shrunk.description << "]\n  original: "
                  << f.failure << "\n  shrunk:   "
                  << f.shrunkFailure << " (" << f.originalInsts
                  << " -> " << f.shrunkInsts << " live insts)\n";
        dumpReproducer(f);
    }
    return report.ok() ? 0 : 1;
}

#include "telemetry/flight_recorder.hh"

#include <csignal>
#include <cstdio>
#include <cstdlib>

#include <unistd.h>

#include "common/logging.hh"
#include "common/parse.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "sim/json_report.hh"

namespace tpre::telemetry
{

namespace
{

std::string gFlightTag; // NOLINT: set once before handlers fire

/** Hard ceiling on the fatal-signal dump (see flightHandler). */
constexpr unsigned kFlightDumpTimeoutSecs = 5;

const char *
signalName(int sig)
{
    switch (sig) {
      case SIGSEGV: return "SIGSEGV";
      case SIGBUS: return "SIGBUS";
      case SIGILL: return "SIGILL";
      case SIGFPE: return "SIGFPE";
      case SIGABRT: return "SIGABRT";
    }
    return "signal";
}

std::string
benchDir()
{
    if (const char *env = std::getenv("TPRE_BENCH_DIR"))
        return std::string(env) + "/";
    return "";
}

/** The registry snapshot as one JSON object (counters/gauges/hists). */
std::string
registryJson()
{
    std::string counters, gauges, histograms;
    for (const obs::MetricRow &row :
         obs::MetricsRegistry::instance().snapshot()) {
        switch (row.kind) {
          case obs::MetricKind::Counter:
            if (!counters.empty())
                counters += ", ";
            counters += "\"" + jsonEscape(row.name) +
                        "\": " + std::to_string(row.value);
            break;
          case obs::MetricKind::Gauge:
            if (!gauges.empty())
                gauges += ", ";
            gauges += "\"" + jsonEscape(row.name) +
                      "\": " + std::to_string(row.value);
            break;
          case obs::MetricKind::Histogram:
            if (!histograms.empty())
                histograms += ", ";
            histograms += "\"" + jsonEscape(row.name) +
                          "\": {\"count\": " +
                          std::to_string(row.hist.count) +
                          ", \"sum\": " +
                          std::to_string(row.hist.sum) + "}";
            break;
        }
    }
    return "{\"counters\": {" + counters + "}, \"gauges\": {" +
           gauges + "}, \"histograms\": {" + histograms + "}}";
}

void
flightHandler(int sig)
{
    // writeFlightRecord() is deliberately best-effort and not
    // async-signal-safe (it allocates, walks the registry, does
    // stdio). Two guards keep that bounded: a re-entry flag so a
    // second fault inside the dump re-raises immediately, and a
    // default-action alarm() so a dump wedged on a corrupted heap
    // (e.g. the fault hit inside malloc) kills the process instead
    // of converting a detectable crash into an indefinite hang.
    static volatile std::sig_atomic_t dumping = 0;
    if (!dumping) {
        dumping = 1;
        ::signal(SIGALRM, SIG_DFL);
        ::alarm(kFlightDumpTimeoutSecs);
        writeFlightRecord(signalName(sig));
        ::alarm(0);
    }
    ::raise(sig); // SA_RESETHAND restored the default action
}

} // namespace

std::string
writeFlightRecord(const char *reason)
{
    const std::string base = benchDir() + "FLIGHT_" + gFlightTag;
    const std::string path = base + ".json";

    std::string doc = "{\n  \"tag\": \"" + jsonEscape(gFlightTag) +
                      "\",\n";
    doc += "  \"reason\": \"" + jsonEscape(reason) + "\",\n";
    doc += "  \"wall_micros\": " +
           std::to_string(obs::wallMicros()) + ",\n";
    doc += "  \"obs\": " + registryJson() + "\n}\n";

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return "";
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);

    const obs::Tracer &tracer = obs::Tracer::instance();
    if (tracer.enabled() && tracer.numEvents() > 0)
        tracer.writeChromeJson(base + "_trace.json");

    std::fprintf(stderr, "flight recorder: %s -> %s\n", reason,
                 path.c_str());
    return path;
}

void
installFlightRecorder(const std::string &tag)
{
    static bool installed = false;
    if (installed)
        return;
    if (!parseFlag("TPRE_FLIGHT_RECORDER", true))
        return;
    installed = true;
    gFlightTag = tag;

    struct sigaction action{};
    action.sa_handler = flightHandler;
    sigemptyset(&action.sa_mask);
    // One shot: the handler dumps, then the re-raise takes the
    // default action (core dump / termination preserved).
    action.sa_flags = SA_RESETHAND;
    for (const int sig :
         {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT})
        ::sigaction(sig, &action, nullptr);
}

} // namespace tpre::telemetry

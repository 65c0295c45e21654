/**
 * @file
 * Tests for the tpre::telemetry layer: Prometheus text rendering
 * pinned against golden documents, the live HTTP endpoint
 * (including a scrape taken *during* a parallel batch), the run
 * registry, trace provenance reconciliation against the simulator
 * statistics, structured NDJSON logging, strict TPRE_TRACE_BUF
 * parsing, and the crash flight recorder (as a death test whose
 * child leaves a dump behind).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "check/diff.hh"
#include "check/invariants.hh"
#include "common/logging.hh"
#include "obs/obs.hh"
#include "par/parallel_sweep.hh"
#include "sim/simulator.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/prometheus.hh"
#include "telemetry/provenance.hh"
#include "telemetry/run_registry.hh"
#include "telemetry/server.hh"
#include "tproc/fast_sim.hh"
#include "trace/trace_cache.hh"
#include "workload/generator.hh"

namespace tpre
{
namespace
{

using obs::MetricKind;
using obs::MetricRow;
using telemetry::promFamilyName;
using telemetry::renderPrometheus;

// ---------------------------------------------------------------
// Prometheus text exposition.
// ---------------------------------------------------------------

TEST(PromNameTest, PrefixesSanitizesAndSuffixesCounters)
{
    EXPECT_EQ(promFamilyName("tcache.probes", MetricKind::Counter),
              "tpre_tcache_probes_total");
    EXPECT_EQ(
        promFamilyName("pool.queue_depth", MetricKind::Gauge),
        "tpre_pool_queue_depth");
    EXPECT_EQ(
        promFamilyName("precon.stack_depth",
                       MetricKind::Histogram),
        "tpre_precon_stack_depth");
    // Anything outside [a-zA-Z0-9_] becomes '_'.
    EXPECT_EQ(promFamilyName("a-b c/d", MetricKind::Gauge),
              "tpre_a_b_c_d");
}

TEST(PromRenderTest, GoldenDocument)
{
    std::vector<MetricRow> rows(3);
    rows[0].name = "tcache.probes";
    rows[0].kind = MetricKind::Counter;
    rows[0].value = 42;
    rows[1].name = "pool.queue_depth";
    rows[1].kind = MetricKind::Gauge;
    rows[1].value = -3;
    rows[2].name = "lat";
    rows[2].kind = MetricKind::Histogram;
    rows[2].hist.bounds = {1, 2, 4};
    rows[2].hist.buckets = {5, 0, 2, 1};  // last = overflow
    rows[2].hist.count = 8;
    rows[2].hist.sum = 30;

    EXPECT_EQ(renderPrometheus(rows),
              "# HELP tpre_tcache_probes_total tpre::obs counter "
              "tcache.probes\n"
              "# TYPE tpre_tcache_probes_total counter\n"
              "tpre_tcache_probes_total 42\n"
              "# HELP tpre_pool_queue_depth tpre::obs gauge "
              "pool.queue_depth\n"
              "# TYPE tpre_pool_queue_depth gauge\n"
              "tpre_pool_queue_depth -3\n"
              "# HELP tpre_lat tpre::obs histogram lat\n"
              "# TYPE tpre_lat histogram\n"
              "tpre_lat_bucket{le=\"1\"} 5\n"
              "tpre_lat_bucket{le=\"2\"} 5\n"
              "tpre_lat_bucket{le=\"4\"} 7\n"
              "tpre_lat_bucket{le=\"+Inf\"} 8\n"
              "tpre_lat_sum 30\n"
              "tpre_lat_count 8\n");
}

TEST(PromRenderTest, HelpLineEscapesBackslashAndNewline)
{
    std::vector<MetricRow> rows(1);
    rows[0].name = "weird\\name\nhere";
    rows[0].kind = MetricKind::Gauge;
    rows[0].value = 1;
    const std::string doc = renderPrometheus(rows);
    EXPECT_NE(doc.find("weird\\\\name\\nhere"), std::string::npos);
    // The family name itself is sanitized, so the document stays
    // line-oriented: exactly 3 lines.
    EXPECT_NE(doc.find("tpre_weird_name_here 1\n"),
              std::string::npos);
}

TEST(PromRenderTest, RegistrySnapshotRendersRegisteredMetrics)
{
    obs::Counter counter("telemetry_test.scrapes");
    counter.add(7);
    const std::string doc = telemetry::renderRegistryPrometheus();
    EXPECT_NE(doc.find("tpre_telemetry_test_scrapes_total"),
              std::string::npos);
    // Families from the simulator contract are present once any
    // simulation ran in this process; at minimum the document is
    // non-empty and every line is HELP, TYPE or a sample.
    std::istringstream lines(doc);
    std::string line;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        if (line[0] == '#') {
            EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                        line.rfind("# TYPE ", 0) == 0)
                << line;
        } else {
            EXPECT_EQ(line.rfind("tpre_", 0), 0u) << line;
        }
    }
}

// ---------------------------------------------------------------
// HTTP endpoint.
// ---------------------------------------------------------------

/** Minimal blocking GET against 127.0.0.1:port; "" on error. */
std::string
httpGet(std::uint16_t port, const char *path)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        ::close(fd);
        return "";
    }
    std::string req = std::string("GET ") + path +
                      " HTTP/1.1\r\nHost: localhost\r\n"
                      "Connection: close\r\n\r\n";
    (void)!::write(fd, req.data(), req.size());
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0)
        response.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return response;
}

TEST(TelemetryServerTest, ServesMetricsHealthzRunsAnd404)
{
    obs::Counter counter("telemetry_test.server");
    counter.add();

    telemetry::TelemetryServer server;
    server.start(0);  // ephemeral
    ASSERT_TRUE(server.running());
    ASSERT_GT(server.port(), 0);

    const std::string health = httpGet(server.port(), "/healthz");
    EXPECT_NE(health.find("200 OK"), std::string::npos);
    EXPECT_NE(health.find("ok"), std::string::npos);

    const std::string metrics = httpGet(server.port(), "/metrics");
    EXPECT_NE(metrics.find("200 OK"), std::string::npos);
    EXPECT_NE(metrics.find("text/plain; version=0.0.4"),
              std::string::npos);
    EXPECT_NE(metrics.find("tpre_telemetry_test_server_total"),
              std::string::npos);

    const std::string runs = httpGet(server.port(), "/runs");
    EXPECT_NE(runs.find("200 OK"), std::string::npos);
    EXPECT_NE(runs.find("application/json"), std::string::npos);
    EXPECT_NE(runs.find("["), std::string::npos);

    const std::string missing = httpGet(server.port(), "/nope");
    EXPECT_NE(missing.find("404"), std::string::npos);

    server.stop();
    EXPECT_FALSE(server.running());
    server.stop();  // idempotent
}

TEST(TelemetryServerTest, ScrapeDuringRunJobsSeesTheRun)
{
    // Direct registration, so the scrape has at least one family
    // even under -DTPRE_OBS_DISABLED=ON (where the simulator's
    // TPRE_OBS_* call sites compile away).
    obs::Counter counter("telemetry_test.batch");
    counter.add();

    telemetry::TelemetryServer server;
    server.start(0);
    const std::uint16_t port = server.port();

    std::string duringRuns, duringMetrics;
    par::runJobs(
        4, 2, 99,
        [&](std::size_t i, Rng &) {
            if (i == 0) {
                duringRuns = httpGet(port, "/runs");
                duringMetrics = httpGet(port, "/metrics");
            } else {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            }
        },
        "telemetry_test_run");
    server.stop();

    // Scraped from inside a job, so the RunScope was open.
    EXPECT_NE(duringRuns.find("\"name\": \"telemetry_test_run\""),
              std::string::npos);
    EXPECT_NE(duringRuns.find("\"total_jobs\": 4"),
              std::string::npos);
    EXPECT_NE(duringMetrics.find("tpre_"), std::string::npos);

    // After the batch the scope is closed again.
    EXPECT_EQ(telemetry::RunRegistry::instance().numRuns(), 0u);
}

TEST(TelemetryServerTest, SilentClientDoesNotBlockStop)
{
    telemetry::TelemetryServer server;
    server.start(0);

    // A client that connects and never sends a request must not
    // wedge the serving thread: stop() has to return promptly (the
    // request poll watches the stop pipe), not hang on join().
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::connect(fd,
                        reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    // Let the server accept and enter the request wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    const auto start = std::chrono::steady_clock::now();
    server.stop();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, std::chrono::seconds(5));
    ::close(fd);
}

TEST(TelemetryServerTest, MidResponseDisconnectDoesNotKillProcess)
{
    obs::Counter counter("telemetry_test.disconnect");
    counter.add();

    telemetry::TelemetryServer server;
    server.start(0);

    // Scrapers that vanish mid-response (curl --max-time, scrape
    // timeouts) must surface as EPIPE in the server, not a
    // process-terminating SIGPIPE. SO_LINGER(0) turns close() into
    // an immediate RST so the server's send() hits a dead socket.
    for (int i = 0; i < 20; ++i) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(server.port());
        if (::connect(fd,
                      reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) < 0) {
            ::close(fd);
            continue;
        }
        const char req[] =
            "GET /metrics HTTP/1.1\r\nHost: l\r\n\r\n";
        (void)!::write(fd, req, sizeof(req) - 1);
        const linger hardClose{1, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hardClose,
                     sizeof(hardClose));
        ::close(fd);
    }

    // Still alive and serving.
    const std::string health = httpGet(server.port(), "/healthz");
    EXPECT_NE(health.find("200 OK"), std::string::npos);
    server.stop();
}

TEST(RunRegistryTest, ScopesAppearAndDisappear)
{
    auto &registry = telemetry::RunRegistry::instance();
    EXPECT_EQ(registry.runsJson(), "[]");
    {
        telemetry::RunScope run("unit_run", 3);
        run.jobFinished();
        run.jobFinished();
        const std::string json = registry.runsJson();
        EXPECT_NE(json.find("\"name\": \"unit_run\""),
                  std::string::npos);
        EXPECT_NE(json.find("\"total_jobs\": 3"),
                  std::string::npos);
        EXPECT_NE(json.find("\"completed_jobs\": 2"),
                  std::string::npos);
        EXPECT_NE(json.find("\"mips\": "), std::string::npos);
        EXPECT_NE(json.find("\"queue_depth\": "),
                  std::string::npos);
    }
    EXPECT_EQ(registry.runsJson(), "[]");
}

// ---------------------------------------------------------------
// Trace provenance.
// ---------------------------------------------------------------

Trace
provTrace(Addr start, TraceOrigin origin, Cycle buildCycle = 0)
{
    Trace t;
    t.id = {start, 0, 0};
    Instruction inst;
    inst.op = Opcode::Add;
    inst.rd = 1;
    inst.rs1 = 1;
    inst.rs2 = 2;
    t.insts.push_back({start, inst, false, 0});
    t.fallThrough = start + 4;
    t.origin = origin;
    t.buildCycle = buildCycle;
    return t;
}

TEST(ProvenanceTest, LedgerTracksBuildsHitsAndEvictions)
{
    TraceCache tc(4, 2);  // 2 sets x 2 ways
    tc.insert(provTrace(0x1000, TraceOrigin::FillUnit));
    tc.insert(provTrace(0x2000, TraceOrigin::Precon));

    // provenance() is a snapshot summed from the cells: re-read it
    // after every step.
    ProvenanceTable prov = tc.provenance();
    EXPECT_EQ(prov.of(TraceOrigin::FillUnit).builds, 1u);
    EXPECT_EQ(prov.of(TraceOrigin::Precon).builds, 1u);
    EXPECT_EQ(prov.totalHits(), 0u);

    // Two lookups: first use + a repeat hit.
    EXPECT_NE(tc.lookup({0x1000, 0, 0}), nullptr);
    EXPECT_NE(tc.lookup({0x1000, 0, 0}), nullptr);
    prov = tc.provenance();
    EXPECT_EQ(prov.of(TraceOrigin::FillUnit).hits, 2u);
    EXPECT_EQ(prov.of(TraceOrigin::FillUnit).firstUses, 1u);

    // Invalidate the never-used precon line: evicted unused.
    EXPECT_TRUE(tc.invalidate({0x2000, 0, 0}));
    prov = tc.provenance();
    EXPECT_EQ(prov.of(TraceOrigin::Precon).evictInvalidate, 1u);
    EXPECT_EQ(prov.of(TraceOrigin::Precon).evictedUnused, 1u);

    // clear() closes the remaining line's record.
    tc.clear();
    prov = tc.provenance();
    EXPECT_EQ(prov.of(TraceOrigin::FillUnit).evictClear, 1u);
    EXPECT_EQ(prov.totalBuilds() - prov.totalEvictions(),
              tc.numValid());
    EXPECT_EQ(prov.resident(), 0u);
}

TEST(ProvenanceTest, FirstUseLatencyMeasuredOnProvenanceClock)
{
    TraceCache tc(4, 2);
    tc.advanceTo(100);
    tc.insert(provTrace(0x1000, TraceOrigin::Precon,
                        /*buildCycle=*/40));
    tc.advanceTo(150);
    EXPECT_NE(tc.lookup({0x1000, 0, 0}), nullptr);
    const OriginProvenance pre = tc.provenance().of(
        TraceOrigin::Precon);
    EXPECT_EQ(pre.firstUses, 1u);
    EXPECT_EQ(pre.firstUseLatencySum, 110u);  // 150 - 40
    EXPECT_DOUBLE_EQ(pre.meanFirstUseLatency(), 110.0);
}

TEST(ProvenanceTest, ServedAtInsertCountsAsHitAndFirstUse)
{
    TraceCache tc(4, 2);
    tc.insert(provTrace(0x1000, TraceOrigin::Precon),
              /*servedAtInsert=*/true);
    const OriginProvenance pre = tc.provenance().of(
        TraceOrigin::Precon);
    EXPECT_EQ(pre.builds, 1u);
    EXPECT_EQ(pre.hits, 1u);
    EXPECT_EQ(pre.firstUses, 1u);
}

TEST(ProvenanceTest, CapacityEvictionClosesTheVictimRecord)
{
    TraceCache tc(2, 2);  // one set, two ways
    tc.insert(provTrace(0x1000, TraceOrigin::FillUnit));
    tc.insert(provTrace(0x2000, TraceOrigin::FillUnit));
    tc.insert(provTrace(0x3000, TraceOrigin::FillUnit));
    const OriginProvenance fill = tc.provenance().of(
        TraceOrigin::FillUnit);
    EXPECT_EQ(fill.builds, 3u);
    EXPECT_EQ(fill.evictCapacity, 1u);
    EXPECT_EQ(tc.provenance().resident(), tc.numValid());
}

TEST(ProvenanceTest, SimulatorRowReconcilesWithProvenance)
{
    Simulator sim;
    SimConfig cfg;
    cfg.benchmark = "gcc";
    cfg.traceCacheEntries = 128;
    cfg.preconBufferEntries = 128;
    cfg.maxInsts = 200000;
    const SimResult r = sim.run(cfg);

    const OriginProvenance &fill =
        r.provenance.of(TraceOrigin::FillUnit);
    const OriginProvenance &pre =
        r.provenance.of(TraceOrigin::Precon);

    // Every miss fill and every promotion built exactly one line.
    EXPECT_EQ(fill.builds, r.tcMisses);
    EXPECT_EQ(pre.builds, r.pbHits);
    EXPECT_GT(pre.builds, 0u) << "workload exercised no precon";

    // Serves: trace-cache hits plus promote-serves.
    EXPECT_EQ(fill.hits + pre.hits, r.traces - r.tcMisses);

    // A promoted line is served as it lands.
    EXPECT_EQ(pre.firstUses, pre.builds);
    EXPECT_EQ(pre.evictedUnused, 0u);
    EXPECT_GT(pre.firstUseLatencySum, 0u);
}

TEST(ProvenanceTest, DiffOracleChecksProvenanceEveryCase)
{
    // diffModels embeds provenanceReconciles; a green
    // diff over a non-trivial case is the end-to-end guarantee the
    // fuzzer relies on.
    Simulator sim;
    const auto workload = sim.workload("go", 0);
    const Program &program = workload->program;
    check::DiffConfig cfg;
    cfg.traceCacheEntries = 64;
    cfg.preconEnabled = true;
    cfg.maxInsts = 60000;
    cfg.runProcessor = true;
    const check::DiffResult r = check::diffModels(program, cfg);
    EXPECT_FALSE(r.failure) << *r.failure;
}

TEST(ProvenanceTest, JsonRenderingCarriesBothOrigins)
{
    ProvenanceTable table;
    table.of(TraceOrigin::FillUnit).builds = 3;
    table.of(TraceOrigin::Precon).hits = 9;
    const std::string json = renderProvenanceJson(table);
    EXPECT_NE(json.find("\"fill\": {\"builds\": 3"),
              std::string::npos);
    EXPECT_NE(json.find("\"precon\": {"), std::string::npos);
    EXPECT_NE(json.find("\"hits\": 9"), std::string::npos);
    EXPECT_NE(json.find("\"first_use_latency_sum\": 0"),
              std::string::npos);
}

// ---------------------------------------------------------------
// Structured logging.
// ---------------------------------------------------------------

/** RAII: force a log format/level, restore the previous one. */
struct ScopedLogConfig
{
    ScopedLogConfig(LogFormat format, LogLevel level)
        : format_(logFormat()), level_(logLevel())
    {
        setLogFormat(format);
        setLogLevel(level);
    }
    ~ScopedLogConfig()
    {
        setLogFormat(format_);
        setLogLevel(level_);
    }
    LogFormat format_;
    LogLevel level_;
};

TEST(JsonLogTest, EmitsOneParseableRecordPerMessage)
{
    ScopedLogConfig scope(LogFormat::Json, LogLevel::Info);
    ScopedLogTag tag("t7");
    testing::internal::CaptureStderr();
    inform("hello \"world\" %d", 42);
    warn("tab\there");
    const std::string err = testing::internal::GetCapturedStderr();

    EXPECT_NE(err.find("{\"ts_us\": "), std::string::npos);
    EXPECT_NE(err.find("\"level\": \"info\""), std::string::npos);
    EXPECT_NE(err.find("\"thread\": \"t7\""), std::string::npos);
    EXPECT_NE(err.find("\"msg\": \"hello \\\"world\\\" 42\""),
              std::string::npos);
    EXPECT_NE(err.find("\"level\": \"warn\""), std::string::npos);
    EXPECT_NE(err.find("tab\\there"), std::string::npos);
    // NDJSON: every line is one record, starting with '{' and
    // ending with '}'.
    std::istringstream lines(err);
    std::string line;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
    }
}

TEST(JsonLogTest, LevelThresholdSuppressesBelow)
{
    ScopedLogConfig scope(LogFormat::Text, LogLevel::Warn);
    testing::internal::CaptureStderr();
    debugmsg("invisible");
    inform("also invisible");
    warn("visible");
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find("invisible"), std::string::npos);
    EXPECT_NE(err.find("visible"), std::string::npos);
    EXPECT_FALSE(logLevelEnabled(LogLevel::Debug));
    EXPECT_TRUE(logLevelEnabled(LogLevel::Error));
}

// ---------------------------------------------------------------
// TPRE_TRACE_BUF strict parsing.
// ---------------------------------------------------------------

TEST(TraceBufTest, ParsesValidCapacity)
{
    ASSERT_EQ(setenv("TPRE_TRACE_BUF", "1024", 1), 0);
    EXPECT_EQ(obs::traceRingCapacityFromEnv(), 1024u);
    ASSERT_EQ(unsetenv("TPRE_TRACE_BUF"), 0);
    EXPECT_EQ(obs::traceRingCapacityFromEnv(), 65536u);
}

TEST(TraceBufDeathTest, RejectsGarbageAndUndersizedRings)
{
    // Regression: these used to warn and silently fall back to the
    // default capacity.
    EXPECT_EXIT(
        {
            setenv("TPRE_TRACE_BUF", "64k", 1);
            obs::traceRingCapacityFromEnv();
        },
        testing::ExitedWithCode(1), "TPRE_TRACE_BUF.*64k");
    EXPECT_EXIT(
        {
            setenv("TPRE_TRACE_BUF", "8", 1);
            obs::traceRingCapacityFromEnv();
        },
        testing::ExitedWithCode(1), "minimum ring capacity");
    EXPECT_EXIT(
        {
            setenv("TPRE_TRACE_BUF", "-4", 1);
            obs::traceRingCapacityFromEnv();
        },
        testing::ExitedWithCode(1), "not a decimal integer");
}

// ---------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------

TEST(FlightRecorderTest, WritesRegistryDump)
{
    obs::Counter counter("telemetry_test.flight");
    counter.add(5);
    obs::Histogram hist("telemetry_test.flight_hist", {8});
    hist.record(3);
    const std::string dir = testing::TempDir();
    ASSERT_EQ(setenv("TPRE_BENCH_DIR", dir.c_str(), 1), 0);
    const std::string path =
        telemetry::writeFlightRecord("unit-test");
    ASSERT_EQ(unsetenv("TPRE_BENCH_DIR"), 0);
    ASSERT_FALSE(path.empty());

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream content;
    content << in.rdbuf();
    const std::string doc = content.str();
    EXPECT_NE(doc.find("\"reason\": \"unit-test\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"counters\": {"), std::string::npos);
    EXPECT_NE(doc.find("\"telemetry_test.flight\": 5"),
              std::string::npos);
    // The dump shares the BENCH report's obs renderer, so it carries
    // the same fields, histogram buckets included.
    EXPECT_NE(doc.find("\"enabled\": "), std::string::npos);
    EXPECT_NE(doc.find("\"buckets\": ["), std::string::npos);
    EXPECT_NE(doc.find("\"telemetry_test.flight_hist\": {\"count\": "
                       "1, \"sum\": 3, \"bounds\": [8], "
                       "\"buckets\": [1, 0]}"),
              std::string::npos);
}

TEST(FlightRecorderDeathTest, FatalSignalLeavesADumpBehind)
{
    const std::string dir = testing::TempDir();
    const std::string dump = dir + "FLIGHT_telemetry_test.json";
    std::remove(dump.c_str());

    EXPECT_DEATH(
        {
            setenv("TPRE_BENCH_DIR", dir.c_str(), 1);
            telemetry::installFlightRecorder("telemetry_test");
            std::abort();
        },
        "flight recorder: SIGABRT");

    // The handler dumped before re-raising; the child's file
    // survives it.
    std::ifstream in(dump);
    EXPECT_TRUE(in.good()) << dump;
}


/**
 * The obs counter families that restate simulator statistics must
 * move by the same amounts for every kind of Simulator row: a cold
 * TC-only row, a TC+PB row, a shared-stream group, a timing row with
 * preconstruction and preprocessing, a sampled row, warm-forked rows
 * (the second reuses the first's warm-up), a .tpt dump and two
 * replays of it, the second ending in a flush. The deltas were recorded once; the rows run on this
 * thread, so the aggregate counters move only with them.
 */
TEST(RowCountersTest, FamiliesMoveByTheRecordedRowDeltas)
{
    if (!obs::kEnabled)
        GTEST_SKIP() << "obs counters are compiled out";

    static constexpr std::array<const char *, 20> kFamilies = {
        "tcache.probes", "tcache.hits", "tcache.fills",
        "tcache.evictions", "pb.probes", "pb.hits", "fill.insts",
        "fill.traces", "fill.flushes", "ntp.predictions",
        "ntp.updates", "precon.start_points",
        "precon.regions_started", "precon.traces_constructed",
        "precon.traces_buffered", "precon.lines_fetched",
        "prep.traces", "prep.consts_propagated", "prep.ops_fused",
        "prep.insts_moved"};
    using Deltas = std::array<std::uint64_t, kFamilies.size()>;
    const auto read = [] {
        Deltas v{};
        for (std::size_t i = 0; i < kFamilies.size(); ++i)
            v[i] = obs::MetricsRegistry::instance().counterValue(
                kFamilies[i]);
        return v;
    };
    const auto delta = [&read](const auto &row) {
        const Deltas before = read();
        row();
        Deltas d = read();
        for (std::size_t i = 0; i < d.size(); ++i)
            d[i] -= before[i];
        return d;
    };

    SimConfig tc;
    tc.benchmark = "gcc";
    tc.maxInsts = 60'000;
    tc.sampleEvery = tc.sampleWindow = tc.sampleWarmup = 0;
    SimConfig pb = tc;
    pb.traceCacheEntries = 128;
    pb.preconBufferEntries = 128;
    SimConfig small = tc;
    small.traceCacheEntries = 64;
    SimConfig timing = pb;
    timing.mode = SimMode::Timing;
    timing.maxInsts = 20'000;
    timing.prepEnabled = true;
    SimConfig sampled = pb;
    sampled.maxInsts = 200'000;
    sampled.sampleEvery = 40'000;
    sampled.sampleWindow = 5'000;
    sampled.sampleWarmup = 2'000;
    SimConfig warm = pb;
    warm.maxInsts = 80'000;
    warm.warmupInsts = 30'000;
    SimConfig warmSampled = sampled;
    warmSampled.warmupInsts = warm.warmupInsts;
    const std::string tpt =
        testing::TempDir() + "telemetry_test_row_counters.tpt";
    SimConfig dump = pb;
    dump.tptDump = tpt;
    // Replay past the recorded end, cut at other boundaries, so
    // the replay ends mid-trace and flushes. The trace cache is
    // tiny so no stored line shares the partial trace's id.
    SimConfig flush = tc;
    flush.traceCacheEntries = 4;
    flush.maxInsts = 2 * dump.maxInsts;
    flush.selection.maxLen = 13;

    Simulator sim;
    const std::vector<std::pair<std::string, Deltas>> want = {
        {"cold-tc",
         {4261, 2104, 2157, 1901, 0, 0, 60008, 4261, 0, 0, 0, 0, 0, 0,
          0, 0, 0, 0, 0, 0}},
        {"tc128-pb128",
         {4261, 1818, 2443, 2315, 2443, 379, 60008, 4261, 0, 0, 0,
          580, 565, 4268, 3908, 2114, 0, 0, 0, 0}},
        {"group",
         {12783, 5535, 7248, 6800, 2443, 379, 60008, 4261, 0, 0, 0,
          580, 565, 4268, 3908, 2114, 0, 0, 0, 0}},
        {"timing",
         {1411, 564, 847, 719, 847, 242, 20132, 1414, 0, 1410, 1410,
          191, 189, 3784, 3401, 1394, 847, 242, 469, 5020}},
        {"sampled",
         {3682, 1642, 2040, 1912, 2040, 209, 52000, 3682, 0, 0, 0,
          456, 420, 3129, 2842, 1594, 0, 0, 0, 0}},
        {"warm",
         {5690, 2624, 3066, 2683, 1929, 291, 80003, 5690, 0, 0, 0,
          504, 494, 3416, 3113, 1829, 0, 0, 0, 0}},
        {"warm-sampled",
         {3341, 1652, 1689, 1561, 1689, 191, 47000, 3341, 0, 0, 0,
          428, 414, 2867, 2561, 1505, 0, 0, 0, 0}},
        {"tpt-dump",
         {4261, 1818, 2443, 2315, 2443, 379, 60008, 4261, 0, 0, 0,
          580, 565, 4268, 3908, 2114, 0, 0, 0, 0}},
        {"tpt-replay",
         {4261, 1818, 2443, 2315, 2443, 379, 60008, 4261, 0, 0, 0,
          580, 565, 4268, 3908, 2114, 0, 0, 0, 0}},
        {"tpt-replay-flush",
         {5183, 1236, 3947, 3943, 0, 0, 60008, 5182, 1, 0, 0, 0, 0, 0,
          0, 0, 0, 0, 0, 0}},
    };
    const std::vector<Deltas> got = {
        delta([&] { sim.run(tc); }),
        delta([&] { sim.run(pb); }),
        delta([&] { sim.runGroup({tc, pb, small}); }),
        delta([&] { sim.run(timing); }),
        delta([&] { sim.run(sampled); }),
        delta([&] { sim.run(warm); }),
        delta([&] { sim.run(warmSampled); }),
        delta([&] { sim.run(dump); }),
        delta([&] { replayTrace(tpt, pb); }),
        delta([&] { replayTrace(tpt, flush); }),
    };
    std::remove(tpt.c_str());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t r = 0; r < want.size(); ++r) {
        for (std::size_t i = 0; i < kFamilies.size(); ++i) {
            EXPECT_EQ(got[r][i], want[r].second[i])
                << want[r].first << " row, " << kFamilies[i];
        }
    }
}

} // namespace
} // namespace tpre

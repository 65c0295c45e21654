/**
 * @file
 * Tests for the tpre::obs observability layer: metrics registry
 * semantics (counters, gauges, histograms, idempotent registration,
 * multi-thread aggregation under par::runJobs), event-ring
 * wraparound, and the Chrome trace_event JSON export checked field
 * by field against golden snippets.
 *
 * The tests drive the obs *classes* directly, so they pass both in
 * the default build and under -DTPRE_OBS_DISABLED=ON (where only
 * the TPRE_OBS_* macros compile away); the macro behaviour itself
 * is pinned against tpre::obs::kEnabled.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "obs/obs.hh"
#include "par/parallel_sweep.hh"

namespace tpre
{
namespace
{

using obs::MetricsRegistry;

/** Unique metric names per test: registrations are process-wide. */
std::string
uniqueName(const char *base)
{
    static std::atomic<int> n{0};
    return std::string("obs_test.") + base + "." +
           std::to_string(n++);
}

TEST(MetricsRegistryTest, CounterAccumulates)
{
    const std::string name = uniqueName("counter");
    obs::Counter counter(name);
    EXPECT_EQ(MetricsRegistry::instance().counterValue(name), 0u);
    counter.add();
    counter.add(41);
    EXPECT_EQ(MetricsRegistry::instance().counterValue(name), 42u);
}

TEST(MetricsRegistryTest, UnregisteredNamesReadZero)
{
    const auto &reg = MetricsRegistry::instance();
    EXPECT_EQ(reg.counterValue("obs_test.never_registered"), 0u);
    EXPECT_EQ(reg.gaugeValue("obs_test.never_registered"), 0);
    EXPECT_EQ(
        reg.histogramValue("obs_test.never_registered").count, 0u);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotent)
{
    const std::string name = uniqueName("idempotent");
    obs::Counter a(name);
    obs::Counter b(name);  // same name -> same cell
    a.add(2);
    b.add(3);
    EXPECT_EQ(MetricsRegistry::instance().counterValue(name), 5u);
}

TEST(MetricsRegistryDeathTest, KindMismatchPanics)
{
    const std::string name = uniqueName("kind_mismatch");
    obs::Counter counter(name);
    EXPECT_DEATH(obs::Gauge gauge(name), "re-registered");
}

TEST(MetricsRegistryTest, GaugeMovesBothWays)
{
    const std::string name = uniqueName("gauge");
    obs::Gauge gauge(name);
    gauge.add(5);
    gauge.add(-3);
    EXPECT_EQ(MetricsRegistry::instance().gaugeValue(name), 2);
    gauge.add(-7);
    EXPECT_EQ(MetricsRegistry::instance().gaugeValue(name), -5);
}

TEST(MetricsRegistryTest, HistogramBucketsAndSum)
{
    const std::string name = uniqueName("hist");
    obs::Histogram hist(name, {1, 4, 16});
    hist.record(0);   // <= 1
    hist.record(1);   // <= 1
    hist.record(3);   // <= 4
    hist.record(16);  // <= 16
    hist.record(99);  // overflow
    const obs::HistogramData data =
        MetricsRegistry::instance().histogramValue(name);
    ASSERT_EQ(data.bounds, (std::vector<std::uint64_t>{1, 4, 16}));
    ASSERT_EQ(data.buckets.size(), 4u);
    EXPECT_EQ(data.buckets[0], 2u);
    EXPECT_EQ(data.buckets[1], 1u);
    EXPECT_EQ(data.buckets[2], 1u);
    EXPECT_EQ(data.buckets[3], 1u);
    EXPECT_EQ(data.count, 5u);
    EXPECT_EQ(data.sum, 0u + 1 + 3 + 16 + 99);
}

TEST(MetricsRegistryTest, SnapshotCarriesEveryKind)
{
    const std::string cname = uniqueName("snap_counter");
    const std::string hname = uniqueName("snap_hist");
    obs::Counter counter(cname);
    obs::Histogram hist(hname, {8});
    counter.add(7);
    hist.record(3);

    bool saw_counter = false, saw_hist = false;
    std::string prev;
    for (const obs::MetricRow &row :
         MetricsRegistry::instance().snapshot()) {
        EXPECT_LE(prev, row.name) << "snapshot not sorted";
        prev = row.name;
        if (row.name == cname) {
            saw_counter = true;
            EXPECT_EQ(row.kind, obs::MetricKind::Counter);
            EXPECT_EQ(row.value, 7);
        } else if (row.name == hname) {
            saw_hist = true;
            EXPECT_EQ(row.kind, obs::MetricKind::Histogram);
            EXPECT_EQ(row.hist.count, 1u);
            EXPECT_EQ(row.hist.sum, 3u);
        }
    }
    EXPECT_TRUE(saw_counter);
    EXPECT_TRUE(saw_hist);
}

TEST(MetricsRegistryTest, AggregatesAcrossRunJobsWorkers)
{
    const std::string name = uniqueName("mt_counter");
    obs::Counter counter(name);
    constexpr std::size_t kJobs = 64;
    constexpr std::uint64_t kPerJob = 1000;
    par::runJobs(kJobs, 4, /*seed=*/1, [&](std::size_t, Rng &) {
        for (std::uint64_t i = 0; i < kPerJob; ++i)
            counter.add();
    });
    // Worker threads may have exited (folding their cells into the
    // retired accumulator) or still be alive; the aggregate must
    // see every increment either way.
    EXPECT_EQ(MetricsRegistry::instance().counterValue(name),
              kJobs * kPerJob);
}

TEST(ObsMacroTest, CountMacroFollowsBuildConfiguration)
{
    // The macro must count in the default build and compile to
    // nothing under TPRE_OBS_DISABLED.
    TPRE_OBS_COUNT("obs_test.macro_counter");
    TPRE_OBS_COUNT("obs_test.macro_counter", 9);
    const std::uint64_t expect = obs::kEnabled ? 10u : 0u;
    EXPECT_EQ(MetricsRegistry::instance().counterValue(
                  "obs_test.macro_counter"),
              expect);
}

// --- event ring -------------------------------------------------

obs::TraceEvent
makeEvent(std::uint64_t ts)
{
    obs::TraceEvent e;
    e.cat = "obs_test";
    e.name = "event";
    e.ts = ts;
    e.domain = obs::Domain::Cycles;
    e.phase = 'i';
    return e;
}

TEST(EventRingTest, StoresInOrderBelowCapacity)
{
    obs::EventRing ring(8);
    for (std::uint64_t i = 0; i < 5; ++i)
        ring.push(makeEvent(i));
    EXPECT_EQ(ring.size(), 5u);
    EXPECT_EQ(ring.dropped(), 0u);
    const auto events = ring.snapshotOrdered();
    ASSERT_EQ(events.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(events[i].ts, i);
}

TEST(EventRingTest, WraparoundKeepsNewestAndCountsDropped)
{
    obs::EventRing ring(4);
    for (std::uint64_t i = 0; i < 11; ++i)
        ring.push(makeEvent(i));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.dropped(), 7u);
    const auto events = ring.snapshotOrdered();
    ASSERT_EQ(events.size(), 4u);
    // Oldest-first order of the newest four events: 7, 8, 9, 10.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(events[i].ts, 7 + i);
}

TEST(EventRingTest, ClearResetsContentAndDropCount)
{
    obs::EventRing ring(2);
    for (std::uint64_t i = 0; i < 5; ++i)
        ring.push(makeEvent(i));
    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.dropped(), 0u);
    ring.push(makeEvent(42));
    const auto events = ring.snapshotOrdered();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].ts, 42u);
}

// --- Chrome trace export ----------------------------------------

/** RAII: enable the tracer on a clean slate, restore on exit. */
class ScopedTracer
{
  public:
    ScopedTracer()
    {
        obs::Tracer::instance().clear();
        obs::Tracer::instance().setEnabled(true);
    }
    ~ScopedTracer()
    {
        obs::Tracer::instance().setEnabled(false);
        obs::Tracer::instance().clear();
    }
};

TEST(TracerTest, DisabledTracerRecordsNothing)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.clear();
    tracer.setEnabled(false);
    obs::traceInstant("obs_test", "ignored", obs::Domain::Wall, 1);
    EXPECT_EQ(tracer.numEvents(), 0u);
}

TEST(TracerTest, GoldenChromeTraceJson)
{
    ScopedTracer scoped;
    obs::traceInstant("obs_test", "tick", obs::Domain::Cycles, 100,
                      7);
    obs::traceComplete("obs_test", "span", obs::Domain::Cycles, 200,
                       50, 3);
    obs::traceCounter("obs_test", "depth", obs::Domain::Wall, 300,
                      9);
    const std::string json =
        obs::Tracer::instance().renderChromeJson();
    // tids are assigned process-globally, so the golden snippets
    // interpolate this thread's id.
    const std::string tid =
        std::to_string(obs::threadRing().tid());

    // Document structure.
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
    EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n") << json;

    // Field-by-field golden events (serialization order is fixed).
    const std::string instant =
        "{\"pid\":2,\"tid\":" + tid +
        ",\"ph\":\"i\",\"cat\":\"obs_test\",\"name\":\"tick\","
        "\"ts\":100,\"s\":\"t\",\"args\":{\"v\":7}}";
    const std::string complete =
        "{\"pid\":2,\"tid\":" + tid +
        ",\"ph\":\"X\",\"cat\":\"obs_test\",\"name\":\"span\","
        "\"ts\":200,\"dur\":50,\"args\":{\"v\":3}}";
    const std::string counter =
        "{\"pid\":1,\"tid\":" + tid +
        ",\"ph\":\"C\",\"cat\":\"obs_test\",\"name\":\"depth\","
        "\"ts\":300,\"args\":{\"v\":9}}";
    EXPECT_NE(json.find(instant), std::string::npos) << json;
    EXPECT_NE(json.find(complete), std::string::npos) << json;
    EXPECT_NE(json.find(counter), std::string::npos) << json;

    // Metadata: both timestamp domains and this thread are named.
    EXPECT_NE(json.find("\"ph\":\"M\",\"name\":\"process_name\","
                        "\"args\":{\"name\":\"wall-clock (us)\"}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"args\":{\"name\":\"sim-cycles\"}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"ph\":\"M\",\"name\":\"thread_name\","
                        "\"args\":{\"name\":\"tpre-thread-" +
                        tid + "\"}"),
              std::string::npos)
        << json;

    // The three events arrive in recording order.
    const std::size_t pi = json.find(instant);
    const std::size_t pc = json.find(complete);
    const std::size_t pk = json.find(counter);
    EXPECT_LT(pi, pc);
    EXPECT_LT(pc, pk);
}

TEST(TracerTest, WallSpanRecordsCompleteEvent)
{
    ScopedTracer scoped;
    {
        obs::WallSpan span("obs_test", "scoped_span");
    }
    const std::string json =
        obs::Tracer::instance().renderChromeJson();
    EXPECT_NE(json.find("\"ph\":\"X\",\"cat\":\"obs_test\","
                        "\"name\":\"scoped_span\""),
              std::string::npos)
        << json;
}

TEST(TracerTest, EscapesQuotesInStrings)
{
    ScopedTracer scoped;
    obs::traceInstant("obs\"test", "back\\slash", obs::Domain::Wall,
                      1);
    const std::string json =
        obs::Tracer::instance().renderChromeJson();
    EXPECT_NE(json.find("\"cat\":\"obs\\\"test\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"name\":\"back\\\\slash\""),
              std::string::npos)
        << json;
}

TEST(TracerTest, EventsSurviveThreadExit)
{
    ScopedTracer scoped;
    std::thread worker([] {
        obs::traceInstant("obs_test", "from_worker",
                          obs::Domain::Wall, 5);
    });
    worker.join();
    // The worker's ring detached at thread exit; its events fold
    // into the tracer's retired list and still export.
    const std::string json =
        obs::Tracer::instance().renderChromeJson();
    EXPECT_NE(json.find("\"name\":\"from_worker\""),
              std::string::npos)
        << json;
}

} // namespace
} // namespace tpre

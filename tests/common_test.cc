/**
 * @file
 * Unit tests for the common module: PRNG, hashing, statistics,
 * strict numeric and on/off parsing, logging thread tags, and the
 * InlineVec fixed-capacity container the hot paths store trace
 * bodies in.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <utility>

#include "common/inline_vec.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "obs/tracer.hh"
#include "telemetry/flight_recorder.hh"

namespace tpre
{
namespace
{

TEST(ParseTest, AcceptsPlainPositiveIntegers)
{
    EXPECT_EQ(parsePositiveInt("1", "X"), 1);
    EXPECT_EQ(parsePositiveInt("200000", "X"), 200000);
    EXPECT_EQ(parsePositiveInt("9223372036854775807", "X"),
              9223372036854775807LL);
    EXPECT_EQ(parseJobs("16", "--jobs"), 16u);
}

TEST(ParseTest, RejectsScientificNotationNamingTheValue)
{
    // Regression: std::atoll silently parsed TPRE_INSTS=2e8 as 2,
    // which later died with "committed no instructions".
    EXPECT_EXIT(parsePositiveInt("2e8", "TPRE_INSTS"),
                testing::ExitedWithCode(1), "TPRE_INSTS.*2e8");
}

TEST(ParseTest, RejectsGarbageZeroNegativeAndOverflow)
{
    EXPECT_EXIT(parsePositiveInt("fast", "TPRE_INSTS"),
                testing::ExitedWithCode(1), "fast");
    EXPECT_EXIT(parsePositiveInt("", "TPRE_INSTS"),
                testing::ExitedWithCode(1), "empty");
    EXPECT_EXIT(parsePositiveInt("0", "TPRE_INSTS"),
                testing::ExitedWithCode(1), "> 0");
    // Negatives fail the digits-only rule before the > 0 check.
    EXPECT_EXIT(parsePositiveInt("-5", "TPRE_INSTS"),
                testing::ExitedWithCode(1),
                "not a decimal integer");
    EXPECT_EXIT(parsePositiveInt("99999999999999999999",
                                 "TPRE_INSTS"),
                testing::ExitedWithCode(1), "overflows");
    EXPECT_EXIT(parseJobs("1000000", "--jobs"),
                testing::ExitedWithCode(1), "4096");
}

TEST(ParseTest, PortAcceptsEphemeralZeroAndFullRange)
{
    EXPECT_EQ(parsePort("0", "TPRE_TELEMETRY_PORT"), 0);
    EXPECT_EQ(parsePort("1", "TPRE_TELEMETRY_PORT"), 1);
    EXPECT_EQ(parsePort("8080", "--telemetry-port"), 8080);
    EXPECT_EQ(parsePort("65535", "--telemetry-port"), 65535);
}

TEST(ParseTest, PortDiesOnOutOfRangeAndGarbage)
{
    // Regression guard: TPRE_TELEMETRY_PORT must go through the
    // strict parser — "8e3" or a silently truncated 70000 would
    // otherwise bind a different port than the one asked for.
    EXPECT_EXIT(parsePort("70000", "--telemetry-port"),
                testing::ExitedWithCode(1), "TCP port");
    EXPECT_EXIT(parsePort("8e3", "TPRE_TELEMETRY_PORT"),
                testing::ExitedWithCode(1),
                "TPRE_TELEMETRY_PORT.*8e3");
    EXPECT_EXIT(parsePort("-1", "TPRE_TELEMETRY_PORT"),
                testing::ExitedWithCode(1),
                "not a decimal integer");
    EXPECT_EXIT(parsePort("", "TPRE_TELEMETRY_PORT"),
                testing::ExitedWithCode(1), "empty");
    EXPECT_EXIT(parsePort("metrics", "--telemetry-port"),
                testing::ExitedWithCode(1), "metrics");
}

TEST(ParseTest, RejectsWhitespaceSignAndTrailingJunk)
{
    // Regression: strtoll accepts leading whitespace and an
    // explicit '+', so " 5" and "+5" used to parse; the documented
    // contract is digits only.
    EXPECT_EXIT(parsePositiveInt(" 5", "TPRE_INSTS"),
                testing::ExitedWithCode(1),
                "not a decimal integer");
    EXPECT_EXIT(parsePositiveInt("+5", "TPRE_INSTS"),
                testing::ExitedWithCode(1),
                "not a decimal integer");
    EXPECT_EXIT(parsePositiveInt("\t5", "TPRE_INSTS"),
                testing::ExitedWithCode(1),
                "not a decimal integer");
    EXPECT_EXIT(parsePositiveInt("5 ", "TPRE_INSTS"),
                testing::ExitedWithCode(1),
                "not a decimal integer");
}

TEST(ParseTest, UnsignedEnforcesRangeInsteadOfTruncating)
{
    // Regression: a knob parsed through a plain cast to unsigned
    // truncated 2^33 to 0 instead of failing loudly. TPRE_TRACE_BUF
    // now goes through parseUnsigned with an explicit bound.
    EXPECT_EQ(parseUnsigned("3600", "TPRE_TRACE_BUF", 86400),
              3600u);
    EXPECT_EQ(parseUnsigned("86400", "TPRE_TRACE_BUF", 86400),
              86400u);
    EXPECT_EXIT(parseUnsigned("8589934592", "TPRE_TRACE_BUF",
                              86400),
                testing::ExitedWithCode(1), "exceeds the maximum");
    EXPECT_EXIT(parseUnsigned("86401", "TPRE_TRACE_BUF", 86400),
                testing::ExitedWithCode(1), "exceeds the maximum");
}

TEST(ParseTest, BenchmarkOutFlagMatchesExactFlagOnly)
{
    // Regression: rfind("--benchmark_out", 0) prefix-matched
    // --benchmark_out_format, so a format-only invocation was
    // treated as already having an output file and the default
    // report silently vanished.
    EXPECT_TRUE(isBenchmarkOutFlag("--benchmark_out"));
    EXPECT_TRUE(isBenchmarkOutFlag("--benchmark_out=/tmp/r.json"));
    EXPECT_FALSE(isBenchmarkOutFlag("--benchmark_out_format=json"));
    EXPECT_FALSE(isBenchmarkOutFlag("--benchmark_out_format"));
    EXPECT_FALSE(isBenchmarkOutFlag("--benchmark_filter=x"));
    EXPECT_FALSE(isBenchmarkOutFlag(nullptr));
}

/** A variable no other code reads, so the tests own it outright. */
constexpr const char *kFlagVar = "TPRE_PARSE_FLAG_TEST";

TEST(ParseFlagTest, UnsetGivesTheDefault)
{
    unsetenv(kFlagVar);
    EXPECT_TRUE(parseFlag(kFlagVar, true));
    EXPECT_FALSE(parseFlag(kFlagVar, false));
}

TEST(ParseFlagTest, ZeroAndOneOverrideEitherDefault)
{
    setenv(kFlagVar, "0", 1);
    EXPECT_FALSE(parseFlag(kFlagVar, true));
    EXPECT_FALSE(parseFlag(kFlagVar, false));
    setenv(kFlagVar, "1", 1);
    EXPECT_TRUE(parseFlag(kFlagVar, true));
    EXPECT_TRUE(parseFlag(kFlagVar, false));
    unsetenv(kFlagVar);
}

TEST(ParseFlagDeathTest, AnythingElseIsFatalNamingTheVariable)
{
    for (const char *bad : {"true", "", " 1", "on", "01", "no"}) {
        EXPECT_EXIT(
            {
                setenv(kFlagVar, bad, 1);
                parseFlag(kFlagVar, true);
            },
            testing::ExitedWithCode(1),
            "TPRE_PARSE_FLAG_TEST: '.*' is not 0 or 1")
            << "'" << bad << "' accepted";
    }
}

// The two knobs that used to parse laxly. Both read their variable
// once per process (the tracer singleton, the install-once flight
// recorder), so each case runs in a freshly exec'd child.

TEST(ParseFlagDeathTest, TraceKnobRejectsTrue)
{
    // Regression: "true" was read as off.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            setenv("TPRE_TRACE", "true", 1);
            obs::Tracer::instance();
        },
        testing::ExitedWithCode(1),
        "TPRE_TRACE: 'true' is not 0 or 1");
}

TEST(ParseFlagDeathTest, FlightRecorderKnobRejectsNo)
{
    // Regression: "no" was read as on.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            setenv("TPRE_FLIGHT_RECORDER", "no", 1);
            telemetry::installFlightRecorder("parse_flag_test");
        },
        testing::ExitedWithCode(1),
        "TPRE_FLIGHT_RECORDER: 'no' is not 0 or 1");
}

TEST(LoggingTest, ThreadTagPrefixesAndRestores)
{
    // warn() output goes to stderr; capture via death-test-free
    // re-entrant check: the tag API itself must nest and restore.
    setLogThreadTag("outer");
    {
        ScopedLogTag tag("job 3");
        // No crash and no interleaving expectations here — the
        // prefix format is covered by the fatal() death test below.
    }
    setLogThreadTag("");
    SUCCEED();
}

TEST(LoggingTest, FatalCarriesThreadTag)
{
    EXPECT_EXIT(
        [] {
            setLogFormat(LogFormat::Text);  // pin the text wire format
            setLogThreadTag("job 7");
            fatal("boom %d", 42);
        }(),
        testing::ExitedWithCode(1), "\\[job 7\\] fatal: boom 42");
}

TEST(LoggingTest, JsonFatalStaysWithinDocumentedLevelSet)
{
    // NDJSON consumers key on the closed debug|info|warn|error set;
    // fatal()/panic() must report level "error" and carry their
    // identity in a separate "kind" field.
    EXPECT_EXIT(
        [] {
            setLogFormat(LogFormat::Json);
            fatal("boom");
        }(),
        testing::ExitedWithCode(1),
        "\"level\": \"error\", \"kind\": \"fatal\"");
}

TEST(RngTest, DeterministicPerSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowRespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(RngTest, NextBelowCoversRange)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.nextBelow(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextRangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        std::int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextBoolProbability)
{
    Rng rng(13);
    int heads = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        heads += rng.nextBool(0.25);
    EXPECT_NEAR(static_cast<double>(heads) / n, 0.25, 0.02);
}

TEST(RngTest, NextBoolExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
        EXPECT_FALSE(rng.nextBool(-1.0));
        EXPECT_TRUE(rng.nextBool(2.0));
    }
}

TEST(RngTest, NextDoubleUnitInterval)
{
    Rng rng(19);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(RngTest, GeometricRespectsBounds)
{
    Rng rng(23);
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t v = rng.nextGeometric(10, 30.0, 100);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 100u);
    }
}

TEST(RngTest, GeometricMeanRoughlyCorrect)
{
    Rng rng(29);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(
            rng.nextGeometric(4, 20.0, 100000));
    // Mean of min + Exp(mean-min), floor'd: expect ~19.5.
    EXPECT_NEAR(sum / n, 19.5, 1.5);
}

TEST(RngTest, GeometricDegenerateMean)
{
    Rng rng(31);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextGeometric(8, 5.0, 100), 8u);
}

TEST(RngTest, ShuffleIsPermutation)
{
    Rng rng(37);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
    std::vector<int> orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkIsIndependent)
{
    Rng parent(41);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += parent.next() == child.next();
    EXPECT_LT(same, 3);
}

TEST(Mix64Test, IsDeterministicAndMixes)
{
    EXPECT_EQ(mix64(12345), mix64(12345));
    EXPECT_NE(mix64(1), mix64(2));
    // Low-bit inputs should diffuse into high bits.
    EXPECT_NE(mix64(1) >> 56, mix64(2) >> 56);
}

TEST(SplitMix64Test, AdvancesState)
{
    std::uint64_t s = 0;
    std::uint64_t a = splitMix64(s);
    std::uint64_t b = splitMix64(s);
    EXPECT_NE(a, b);
}

TEST(StatsTest, CounterBasics)
{
    StatGroup group("g");
    Counter c(group, "events", "number of events");
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 9;
    EXPECT_EQ(c.value(), 10u);
    EXPECT_DOUBLE_EQ(c.perKilo(1000), 10.0);
    EXPECT_DOUBLE_EQ(c.perKilo(0), 0.0);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(StatsTest, GroupResetAll)
{
    StatGroup group("g");
    Counter a(group, "a", "");
    Counter b(group, "b", "");
    a += 5;
    b += 7;
    group.resetAll();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(b.value(), 0u);
}

TEST(StatsTest, GroupRenderContainsNamesAndValues)
{
    StatGroup group("core");
    Counter a(group, "commits", "committed instructions");
    a += 123;
    std::string text = group.render();
    EXPECT_NE(text.find("core.commits"), std::string::npos);
    EXPECT_NE(text.find("123"), std::string::npos);
    EXPECT_NE(text.find("committed instructions"),
              std::string::npos);
}

TEST(StatsTest, HistogramBucketsAndOverflow)
{
    StatGroup group("g");
    Histogram h(group, "len", "trace length", 4);
    h.sample(0);
    h.sample(1, 2);
    h.sample(3);
    h.sample(10); // overflow
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), (0 + 1 + 1 + 3 + 10) / 5.0);
}

TEST(StatsTest, HistogramEmptyMean)
{
    StatGroup group("g");
    Histogram h(group, "x", "", 2);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(InlineVecTest, StartsEmptyWithFixedCapacity)
{
    InlineVec<int, 4> v;
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.size(), 0u);
    EXPECT_EQ(v.capacity(), 4u);
    EXPECT_EQ(v.begin(), v.end());
}

TEST(InlineVecTest, PushBackIndexingAndIteration)
{
    InlineVec<int, 8> v;
    for (int i = 0; i < 5; ++i)
        v.push_back(i * 10);
    EXPECT_EQ(v.size(), 5u);
    EXPECT_EQ(v.front(), 0);
    EXPECT_EQ(v.back(), 40);
    EXPECT_EQ(v[3], 30);

    int expected = 0;
    for (int x : v) {
        EXPECT_EQ(x, expected);
        expected += 10;
    }
    EXPECT_EQ(expected, 50);
}

TEST(InlineVecTest, CapacityOverflowPanics)
{
    InlineVec<int, 2> v;
    v.push_back(1);
    v.push_back(2);
    EXPECT_DEATH(v.push_back(3), "capacity exceeded");
}

TEST(InlineVecTest, PopBackAndEmptyPopPanics)
{
    InlineVec<int, 2> v;
    v.push_back(7);
    v.pop_back();
    EXPECT_TRUE(v.empty());
    EXPECT_DEATH(v.pop_back(), "pop_back");
}

TEST(InlineVecTest, ResizeGrowsValueInitializedAndShrinks)
{
    InlineVec<int, 8> v;
    v.push_back(5);
    v.resize(4);
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], 5);
    EXPECT_EQ(v[1], 0);
    EXPECT_EQ(v[3], 0);
    v.resize(1);
    EXPECT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], 5);
    EXPECT_DEATH(v.resize(9), "beyond capacity");
}

TEST(InlineVecTest, CopyAndMovePreserveContents)
{
    InlineVec<int, 4> a;
    a.push_back(1);
    a.push_back(2);

    InlineVec<int, 4> b(a);
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(b[0], 1);
    EXPECT_EQ(b[1], 2);

    InlineVec<int, 4> c;
    c.push_back(99);
    c = a;
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c[1], 2);

    InlineVec<int, 4> d(std::move(b));
    ASSERT_EQ(d.size(), 2u);
    EXPECT_EQ(d[0], 1);

    InlineVec<int, 4> e;
    e = std::move(c);
    ASSERT_EQ(e.size(), 2u);
    EXPECT_EQ(e[1], 2);
}

TEST(InlineVecTest, EqualityComparesLivePrefixOnly)
{
    InlineVec<int, 4> a;
    InlineVec<int, 4> b;
    EXPECT_TRUE(a == b);

    a.push_back(1);
    EXPECT_FALSE(a == b);

    b.push_back(1);
    EXPECT_TRUE(a == b);

    // Divergent history beyond the live prefix must not matter.
    a.push_back(42);
    a.pop_back();
    b.push_back(7);
    b.pop_back();
    EXPECT_TRUE(a == b);

    a.push_back(3);
    b.push_back(4);
    EXPECT_FALSE(a == b);
}

TEST(InlineVecTest, ClearDropsAllElements)
{
    InlineVec<int, 4> v;
    v.push_back(1);
    v.push_back(2);
    v.clear();
    EXPECT_TRUE(v.empty());
    v.push_back(9);
    EXPECT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], 9);
}

} // namespace
} // namespace tpre

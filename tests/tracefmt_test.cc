/**
 * @file
 * Tests of the `.tpt` branch-trace codec (DESIGN.md section 13):
 * encoding-helper units, encode/decode round-trip properties over
 * fuzz-generated programs, differential replay-equality against a
 * live fast-frontend run, hostile-input handling, and the golden
 * corpus under tests/data/ whose byte-exact encoding is pinned.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "check/fuzz.hh"
#include "check/invariants.hh"
#include "check/stats_check.hh"
#include "func/core.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "telemetry/prometheus.hh"
#include "tracefmt/reader.hh"
#include "tracefmt/writer.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace tpre::tracefmt
{
namespace
{

// ---- shared helpers --------------------------------------------

/** Execute @p program functionally and collect its stream. */
std::vector<DynInst>
runStream(const Program &program, InstCount maxInsts)
{
    FunctionalCore core(program);
    std::vector<DynInst> stream;
    while (!core.halted() && stream.size() < maxInsts)
        stream.push_back(core.step());
    return stream;
}

/** Encode @p stream against @p program into a file image. */
std::string
encode(const Program &program, const std::vector<DynInst> &stream,
       TptMeta meta = {}, TptWriterConfig config = {})
{
    TptWriter writer(program, meta, config);
    for (const DynInst &dyn : stream)
        writer.add(dyn);
    return writer.finish();
}

::testing::AssertionResult
sameDyn(const DynInst &a, const DynInst &b, std::size_t index)
{
    if (a.pc == b.pc && a.inst == b.inst && a.nextPc == b.nextPc &&
        a.taken == b.taken && a.effAddr == b.effAddr) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "instruction " << index << " diverges: pc 0x"
           << std::hex << a.pc << " vs 0x" << b.pc << ", nextPc 0x"
           << a.nextPc << " vs 0x" << b.nextPc << std::dec
           << ", taken " << a.taken << " vs " << b.taken
           << ", effAddr " << std::hex << a.effAddr << " vs "
           << b.effAddr;
}

/**
 * The full round-trip property: decode(encode(stream)) reproduces
 * the stream field by field, and re-encoding the decoded stream
 * reproduces the original bytes exactly.
 */
void
expectRoundTrip(const Program &program,
                const std::vector<DynInst> &stream, TptMeta meta,
                TptWriterConfig config)
{
    const std::string bytes = encode(program, stream, meta, config);

    TptReader reader(bytes);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.header().dynCount, stream.size());
    EXPECT_EQ(reader.meta().benchmark, meta.benchmark);
    EXPECT_EQ(reader.meta().seed, meta.seed);

    std::vector<DynInst> decoded;
    DynInst dyn;
    while (reader.next(dyn))
        decoded.push_back(dyn);
    ASSERT_TRUE(reader.ok()) << reader.error();
    ASSERT_TRUE(reader.done());

    ASSERT_EQ(decoded.size(), stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        DynInst expect = stream[i];
        if (!config.effAddr)
            expect.effAddr = 0;
        ASSERT_TRUE(sameDyn(expect, decoded[i], i));
    }

    EXPECT_EQ(encode(reader.program(), decoded, meta, config), bytes)
        << "re-encoding the decoded stream is not byte-identical";
}

/** A small multi-chunk test file built from a fuzz case. */
struct SmallFile
{
    Program program;
    std::vector<DynInst> stream;
    std::string bytes;
};

SmallFile
makeSmallFile(std::uint64_t seed = 3, InstCount maxInsts = 500,
              std::uint32_t chunkInsts = 64)
{
    const check::FuzzCase fc = check::makeFuzzCase(seed, maxInsts);
    SmallFile f{fc.program(), {}, {}};
    f.stream = runStream(f.program, maxInsts);
    TptMeta meta;
    meta.benchmark = "fuzz";
    meta.seed = seed;
    TptWriterConfig config;
    config.chunkInsts = chunkInsts;
    f.bytes = encode(f.program, f.stream, meta, config);
    return f;
}

// ---- encoding-helper units -------------------------------------

TEST(TptEncodingTest, FixedWidthLittleEndianRoundTrip)
{
    std::string out;
    putU16(out, 0xBEEF);
    putU32(out, 0xDEADBEEF);
    putU64(out, 0x0123456789ABCDEFull);
    ASSERT_EQ(out.size(), 14u);
    // Little-endian byte order is part of the wire format.
    EXPECT_EQ(static_cast<unsigned char>(out[0]), 0xEF);
    EXPECT_EQ(static_cast<unsigned char>(out[1]), 0xBE);
    EXPECT_EQ(static_cast<unsigned char>(out[2]), 0xEF);

    std::size_t pos = 0;
    std::uint16_t u16 = 0;
    std::uint32_t u32 = 0;
    std::uint64_t u64 = 0;
    EXPECT_TRUE(getU16(out, pos, u16));
    EXPECT_TRUE(getU32(out, pos, u32));
    EXPECT_TRUE(getU64(out, pos, u64));
    EXPECT_EQ(u16, 0xBEEF);
    EXPECT_EQ(u32, 0xDEADBEEFu);
    EXPECT_EQ(u64, 0x0123456789ABCDEFull);
    EXPECT_EQ(pos, out.size());

    // Reads past the end fail and leave the cursor untouched.
    EXPECT_FALSE(getU16(out, pos, u16));
    EXPECT_EQ(pos, out.size());
}

TEST(TptEncodingTest, VarintRoundTripsRepresentativeValues)
{
    const std::uint64_t values[] = {
        0,   1,    127,  128,   129,   16383, 16384,
        300, 1u << 20, 0xFFFFFFFFull, 1ull << 40,
        0xFFFFFFFFFFFFFFFFull};
    for (std::uint64_t v : values) {
        std::string out;
        putVarint(out, v);
        std::size_t pos = 0;
        std::uint64_t back = 0;
        ASSERT_TRUE(getVarint(out, pos, back)) << v;
        EXPECT_EQ(back, v);
        EXPECT_EQ(pos, out.size());
    }
}

TEST(TptEncodingTest, VarintRejectsTruncationAndOverlongRuns)
{
    std::string out;
    putVarint(out, 0xFFFFFFFFFFFFFFFFull);
    ASSERT_EQ(out.size(), 10u);
    for (std::size_t cut = 0; cut < out.size(); ++cut) {
        const std::string prefix = out.substr(0, cut);
        std::size_t pos = 0;
        std::uint64_t value = 0;
        EXPECT_FALSE(getVarint(prefix, pos, value)) << cut;
        EXPECT_EQ(pos, 0u);
    }

    // Eleven continuation bytes can never be a valid u64 varint.
    const std::string overlong(11, '\xFF');
    std::size_t pos = 0;
    std::uint64_t value = 0;
    EXPECT_FALSE(getVarint(overlong, pos, value));
}

TEST(TptEncodingTest, ZigzagMapsSignedDeltasSymmetrically)
{
    const std::int64_t values[] = {0, -1, 1, -2, 2, 1000, -1000,
                                   INT64_MAX, INT64_MIN};
    for (std::int64_t v : values)
        EXPECT_EQ(unzigzag(zigzag(v)), v);
    // Small magnitudes map to small codes (the point of zigzag).
    EXPECT_EQ(zigzag(0), 0u);
    EXPECT_EQ(zigzag(-1), 1u);
    EXPECT_EQ(zigzag(1), 2u);
}

TEST(TptEncodingTest, Crc32MatchesTheIeeeCheckValue)
{
    // The standard check value for CRC-32/ISO-HDLC.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

// ---- round-trip properties -------------------------------------

TEST(TptRoundTripTest, FuzzCaseStreamsSurviveEncodeDecode)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const check::FuzzCase fc = check::makeFuzzCase(seed, 2000);
        const Program program = fc.program();
        const std::vector<DynInst> stream = runStream(program, 2000);
        TptMeta meta;
        meta.benchmark = fc.description;
        meta.seed = seed;
        expectRoundTrip(program, stream, meta, {});
    }
}

TEST(TptRoundTripTest, TinyChunksForceManySyncRecords)
{
    const check::FuzzCase fc = check::makeFuzzCase(5, 1000);
    const Program program = fc.program();
    const std::vector<DynInst> stream = runStream(program, 1000);
    TptWriterConfig config;
    config.chunkInsts = 3;
    expectRoundTrip(program, stream, {}, config);

    const std::string bytes = encode(program, stream, {}, config);
    TptReader reader(bytes);
    DynInst dyn;
    while (reader.next(dyn)) {
    }
    ASSERT_TRUE(reader.done()) << reader.error();
    EXPECT_EQ(reader.recordCounts().chunks,
              (stream.size() + 2) / 3);
    EXPECT_EQ(reader.recordCounts().sync,
              reader.recordCounts().chunks);
}

TEST(TptRoundTripTest, EffAddrFlagOffDropsAddressesAndShrinksFile)
{
    const check::FuzzCase fc = check::makeFuzzCase(7, 2000);
    const Program program = fc.program();
    const std::vector<DynInst> stream = runStream(program, 2000);
    TptWriterConfig noEa;
    noEa.effAddr = false;
    expectRoundTrip(program, stream, {}, noEa);

    const std::string with = encode(program, stream, {}, {});
    const std::string without = encode(program, stream, {}, noEa);
    TptReader reader(without);
    EXPECT_FALSE(reader.header().hasEffAddr());
    EXPECT_LE(without.size(), with.size());
}

TEST(TptRoundTripTest, EmptyStreamEncodesToHeaderAndProgramOnly)
{
    const check::FuzzCase fc = check::makeFuzzCase(2, 100);
    const Program program = fc.program();
    expectRoundTrip(program, {}, {}, {});

    TptReader reader(encode(program, {}));
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.header().dynCount, 0u);
    DynInst dyn;
    EXPECT_FALSE(reader.next(dyn));
    EXPECT_TRUE(reader.done());
    EXPECT_EQ(reader.recordCounts().chunks, 0u);
}

// ---- differential replay equality ------------------------------

/**
 * The tentpole property on a Figure 5 configuration: record a live
 * fast-frontend run's committed stream, replay the file through
 * FastSim::replay, and demand every statistic — trace cache,
 * I-cache, preconstruction, provenance — matches field by field.
 */
TEST(TptReplayTest, ReplayReproducesLiveFig5StatsFieldByField)
{
    WorkloadGenerator gen(specint95Profile("compress", 11));
    const GeneratedWorkload wl = gen.generate();
    constexpr InstCount maxInsts = 20000;

    SimConfig cfg;
    cfg.benchmark = "compress";
    cfg.workloadSeed = 11;
    cfg.traceCacheEntries = 256;
    cfg.preconBufferEntries = 128;
    cfg.maxInsts = maxInsts;

    TptMeta meta;
    meta.benchmark = cfg.benchmark;
    meta.seed = cfg.workloadSeed;
    TptWriter writer(wl.program, meta);

    FastSimConfig live = cfg.toFastConfig();
    live.hooks.onCommit = [&](const DynInst &dyn) {
        writer.add(dyn);
    };
    FastSim sim(wl.program, live);
    const FastSimStats liveStats = sim.run(maxInsts);
    ASSERT_GT(liveStats.instructions, 0u);

    TptReader reader(writer.finish());
    ASSERT_TRUE(reader.ok()) << reader.error();
    FastSim replay(reader.program(), cfg.toFastConfig());
    const FastSimStats &replayed = replay.replay(reader, maxInsts);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.decoded(), liveStats.instructions);

    const check::Violation v =
        check::fastStatsEqual(liveStats, replayed);
    EXPECT_FALSE(v.has_value()) << *v;
}

TEST(TptReplayTest, ReplayHonoursMaxInstsCutoff)
{
    SmallFile f = makeSmallFile(4, 400, 32);
    TptReader reader(f.bytes);
    ASSERT_TRUE(reader.ok()) << reader.error();
    FastSim replay(reader.program());
    const FastSimStats &replayed = replay.replay(reader, 100);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_LE(replayed.instructions, f.stream.size());
    EXPECT_LT(replayed.instructions, 100 + maxTraceLen);
}

/**
 * A replay that ends mid-trace flushes a partial trace whose id can
 * name a longer trace already in the trace cache (a TraceId carries
 * no length). The flushed trace must take the slow path: no served
 * image may differ from the demanded one. Replays a 60k gcc dump
 * with shorter traces and a budget past the file's end, so every
 * replay of the sweep ends in a flush.
 */
TEST(TptReplayTest, FlushedPartialTraceIsNeverServedALongerImage)
{
    SimConfig dump;
    dump.benchmark = "gcc";
    dump.maxInsts = 60'000;
    dump.sampleEvery = dump.sampleWindow = dump.sampleWarmup = 0;
    dump.traceCacheEntries = 128;
    dump.preconBufferEntries = 128;
    const std::string tpt =
        ::testing::TempDir() + "tracefmt_test_partial_flush.tpt";
    dump.tptDump = tpt;
    Simulator sim;
    sim.run(dump);

    for (unsigned maxLen = 10; maxLen <= 15; ++maxLen) {
        SimConfig cfg = dump;
        cfg.tptDump.clear();
        cfg.selection.maxLen = maxLen;
        cfg.maxInsts = 2 * dump.maxInsts;

        TptReader reader = TptReader::fromFile(tpt);
        ASSERT_TRUE(reader.ok()) << reader.error();
        FastSimConfig fcfg = cfg.toFastConfig();
        std::uint64_t mismatches = 0;
        std::uint64_t partialServed = 0;
        fcfg.hooks.onTrace = [&](const Trace &demanded,
                                 const Trace &served, bool stored) {
            mismatches += check::tracesMatch(demanded, served) ? 1 : 0;
            partialServed +=
                stored && demanded.len() < maxLen &&
                demanded.endReason == TraceEndReason::MaxLength;
        };
        FastSim replay(reader.program(), fcfg);
        bool flushed = false;
        const FastSimStats &replayed =
            replay.replay(reader, cfg.maxInsts, &flushed);
        ASSERT_TRUE(reader.ok()) << reader.error();
        EXPECT_TRUE(flushed) << "maxLen " << maxLen;
        EXPECT_EQ(mismatches, 0u) << "maxLen " << maxLen;
        EXPECT_EQ(partialServed, 0u) << "maxLen " << maxLen;
        const check::Violation v = check::statsConserved(replayed);
        EXPECT_FALSE(v.has_value()) << *v;
    }
    std::remove(tpt.c_str());
}

/**
 * A replayTrace row finishes like every other row: its trace-cache
 * ledger reaches the process-wide aggregate a /metrics scrape
 * serves, exactly once, and its MIPS counts the instructions it
 * simulated.
 */
TEST(TptReplayTest, ReplayRowPublishesItsOwnLedger)
{
    SimConfig dump;
    dump.benchmark = "compress";
    dump.maxInsts = 20'000;
    dump.sampleEvery = dump.sampleWindow = dump.sampleWarmup = 0;
    const std::string tpt =
        ::testing::TempDir() + "tracefmt_test_replay_ledger.tpt";
    dump.tptDump = tpt;
    Simulator sim;
    const SimResult live = sim.run(dump);

    // Start from a nonempty aggregate, as a scrape would see after
    // the live row: the replay must add its own ledger to it.
    telemetry::resetPublishedLedgers();
    telemetry::publishRunLedgers(live.attrib);
    SimConfig cfg;
    cfg.traceCacheEntries = 256;
    cfg.preconBufferEntries = 128;
    const SimResult r = replayTrace(tpt, cfg);
    std::remove(tpt.c_str());
    ASSERT_GT(r.traces, 0u);

    AttribTable expected = live.attrib;
    expected.add(r.attrib);
    EXPECT_EQ(telemetry::renderPublishedLedgers(),
              telemetry::renderProvenancePrometheus(
                  expected.provenance()) +
                  telemetry::renderAttribPrometheus(expected));
    EXPECT_GT(r.wallSeconds, 0.0);
    EXPECT_DOUBLE_EQ(r.mips, static_cast<double>(r.instructions) /
                                 1e6 / r.wallSeconds);
    telemetry::resetPublishedLedgers();
}

TEST(TptReplayDeathTest, ReplayTraceDiesCleanlyOnMissingFile)
{
    SimConfig cfg;
    EXPECT_EXIT(replayTrace("/nonexistent/no_such_file.tpt", cfg),
                ::testing::ExitedWithCode(1), "cannot read");
}

// ---- hostile input ---------------------------------------------

TEST(TptHostileInputTest, EmptyAndTinyFilesErrorCleanly)
{
    const std::string cases[] = {
        std::string(), std::string("\x89TPT", 4),
        std::string(reinterpret_cast<const char *>(kMagic), 8)};
    for (const std::string &bytes : cases) {
        TptReader reader(bytes);
        EXPECT_FALSE(reader.ok());
        EXPECT_FALSE(reader.error().empty());
        DynInst dyn;
        EXPECT_FALSE(reader.next(dyn));
    }
}

TEST(TptHostileInputTest, BadMagicIsReportedAsSuch)
{
    SmallFile f = makeSmallFile();
    f.bytes[0] = 'X';
    TptReader reader(f.bytes);
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.error().find("magic"), std::string::npos)
        << reader.error();
}

TEST(TptHostileInputTest, FutureVersionErrorsBeforeCrcCheck)
{
    SmallFile f = makeSmallFile();
    // Bump the u16 version field right after the 8-byte magic. A
    // version-2 writer would also produce a different header CRC,
    // so the version check must win for the error to be useful.
    f.bytes[8] = 2;
    TptReader reader(f.bytes);
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.error().find("version"), std::string::npos)
        << reader.error();
}

TEST(TptHostileInputTest, UnknownHeaderFlagsAreRejected)
{
    SmallFile f = makeSmallFile();
    f.bytes[11] = static_cast<char>(0x80); // flags high byte
    TptReader reader(f.bytes);
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.error().find("flags"), std::string::npos)
        << reader.error();
}

TEST(TptHostileInputTest, HeaderCorruptionTripsTheHeaderCrc)
{
    SmallFile f = makeSmallFile();
    f.bytes[12] ^= 0x01; // chunkInsts low byte, CRC-covered
    TptReader reader(f.bytes);
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.error().find("CRC"), std::string::npos)
        << reader.error();
}

TEST(TptHostileInputTest, PayloadCorruptionTripsTheChunkCrc)
{
    SmallFile f = makeSmallFile();
    f.bytes[f.bytes.size() - 1] ^= 0x01;
    TptReader reader(f.bytes);
    ASSERT_TRUE(reader.ok()) << reader.error();
    DynInst dyn;
    while (reader.next(dyn)) {
    }
    EXPECT_FALSE(reader.ok());
    EXPECT_FALSE(reader.done());
    EXPECT_NE(reader.error().find("CRC"), std::string::npos)
        << reader.error();
}

TEST(TptHostileInputTest, TrailingGarbageAfterFinalChunkIsRejected)
{
    SmallFile f = makeSmallFile();
    f.bytes.push_back('\0');
    TptReader reader(f.bytes);
    ASSERT_TRUE(reader.ok()) << reader.error();
    DynInst dyn;
    while (reader.next(dyn)) {
    }
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.error().find("trailing"), std::string::npos)
        << reader.error();
}

TEST(TptHostileInputTest, EveryTruncationErrorsAndNeverFinishes)
{
    // Truncating the file image at *any* byte must produce a clean
    // error — never a crash, never a reader that claims the stream
    // completed.
    SmallFile f = makeSmallFile(3, 300, 32);
    for (std::size_t cut = 0; cut < f.bytes.size(); ++cut) {
        TptReader reader(f.bytes.substr(0, cut));
        DynInst dyn;
        std::size_t decoded = 0;
        while (reader.next(dyn))
            ++decoded;
        EXPECT_FALSE(reader.ok()) << "cut at " << cut;
        EXPECT_FALSE(reader.done()) << "cut at " << cut;
        EXPECT_LE(decoded, f.stream.size());
    }
}

// ---- golden corpus ---------------------------------------------

/**
 * The committed fixtures pin the wire format: if an encoder change
 * alters the bytes these produce, that is a format break and must
 * come with a version bump, not a fixture update.
 */
struct GoldenFixture
{
    const char *file;
    std::size_t fileBytes;
    std::uint32_t fileCrc;
    const char *benchmark;
    std::uint64_t seed;
    std::uint64_t dynCount;
    Addr base;
    Addr entry;
    std::uint64_t numWords;
};

constexpr GoldenFixture kGolden[] = {
    {"li_20k.tpt", 51316, 0x65FD37F6, "li", 7, 20006, 0x1000,
     0x7A58, 7382},
    {"compress_20k.tpt", 25418, 0x4D861118, "compress", 11, 20014,
     0x1000, 0x1C78, 926},
};

std::string
goldenPath(const char *file)
{
    return std::string(TPRE_TEST_DATA_DIR) + "/" + file;
}

TEST(TptGoldenTest, CorpusHeadersAndBytesMatchThePinnedValues)
{
    for (const GoldenFixture &g : kGolden) {
        SCOPED_TRACE(g.file);
        std::string bytes;
        ASSERT_TRUE(readFileBytes(goldenPath(g.file), bytes));
        EXPECT_EQ(bytes.size(), g.fileBytes);
        EXPECT_EQ(crc32(bytes.data(), bytes.size()), g.fileCrc);

        TptReader reader(bytes);
        ASSERT_TRUE(reader.ok()) << reader.error();
        EXPECT_EQ(reader.header().version, kVersion);
        EXPECT_EQ(reader.header().flags, kFlagEffAddr);
        EXPECT_EQ(reader.header().chunkInsts, kDefaultChunkInsts);
        EXPECT_EQ(reader.header().base, g.base);
        EXPECT_EQ(reader.header().entry, g.entry);
        EXPECT_EQ(reader.header().numWords, g.numWords);
        EXPECT_EQ(reader.header().dynCount, g.dynCount);
        EXPECT_EQ(reader.meta().benchmark, g.benchmark);
        EXPECT_EQ(reader.meta().seed, g.seed);
    }
}

TEST(TptGoldenTest, CorpusDecodesFullyAndReencodesByteIdentically)
{
    for (const GoldenFixture &g : kGolden) {
        SCOPED_TRACE(g.file);
        std::string bytes;
        ASSERT_TRUE(readFileBytes(goldenPath(g.file), bytes));
        TptReader reader(bytes);
        ASSERT_TRUE(reader.ok()) << reader.error();

        TptWriterConfig config;
        config.effAddr = reader.header().hasEffAddr();
        config.chunkInsts = reader.header().chunkInsts;
        TptWriter writer(reader.program(), reader.meta(), config);
        DynInst dyn;
        while (reader.next(dyn))
            writer.add(dyn);
        ASSERT_TRUE(reader.done()) << reader.error();
        EXPECT_EQ(reader.decoded(), g.dynCount);
        EXPECT_EQ(writer.finish(), bytes);
    }
}

TEST(TptGoldenTest, CorpusStreamMatchesTheRegeneratedWorkload)
{
    // The fixture's embedded program and stream are exactly what
    // the named benchmark + seed produce today: the file is real
    // provenance, not an opaque blob.
    const GoldenFixture &g = kGolden[1]; // compress: small image
    std::string bytes;
    ASSERT_TRUE(readFileBytes(goldenPath(g.file), bytes));
    TptReader reader(bytes);
    ASSERT_TRUE(reader.ok()) << reader.error();

    WorkloadGenerator gen(specint95Profile(g.benchmark, g.seed));
    const GeneratedWorkload wl = gen.generate();
    ASSERT_EQ(reader.header().numWords, wl.program.numInsts());
    ASSERT_EQ(reader.header().entry, wl.program.entry());

    FunctionalCore core(wl.program);
    DynInst dyn;
    std::size_t i = 0;
    while (reader.next(dyn)) {
        ASSERT_FALSE(core.halted());
        ASSERT_TRUE(sameDyn(core.step(), dyn, i));
        ++i;
    }
    ASSERT_TRUE(reader.done()) << reader.error();
}

} // namespace
} // namespace tpre::tracefmt

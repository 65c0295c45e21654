/**
 * @file
 * Tests for the trace-reuse attribution ledger (DESIGN.md section
 * 17): trace classification, TraceCache accumulation, the
 * provenance reconciliation contract, the strict TPRE_ATTRIB knob,
 * and the JSON / Prometheus renderings.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "check/invariants.hh"
#include "sim/json_report.hh"
#include "sim/simulator.hh"
#include "telemetry/attrib.hh"
#include "telemetry/prometheus.hh"
#include "trace/trace_cache.hh"

namespace tpre
{
namespace
{

Instruction
alu()
{
    Instruction inst;
    inst.op = Opcode::Add;
    inst.rd = 1;
    inst.rs1 = 1;
    inst.rs2 = 2;
    return inst;
}

Instruction
condBranch(std::int32_t offset)
{
    Instruction inst;
    inst.op = Opcode::Bne;
    inst.rs1 = 1;
    inst.rs2 = 0;
    inst.imm = offset;
    return inst;
}

Instruction
call()
{
    Instruction inst;
    inst.op = Opcode::Jal;
    inst.rd = linkReg;
    inst.imm = 0x100;
    return inst;
}

Instruction
load()
{
    Instruction inst;
    inst.op = Opcode::Ld;
    inst.rd = 3;
    inst.rs1 = stackReg;
    return inst;
}

Trace
traceOf(std::initializer_list<std::pair<Instruction, bool>> insts,
        Addr start = 0x1000)
{
    Trace t;
    std::uint16_t flags = 0;
    std::uint8_t branches = 0;
    Addr pc = start;
    for (const auto &[inst, taken] : insts) {
        if (inst.isCondBranch()) {
            if (taken)
                flags |= std::uint16_t(1u << branches);
            ++branches;
        }
        t.insts.push_back({pc, inst, taken, 0});
        pc += instBytes;
    }
    t.id = {start, flags, branches};
    t.fallThrough = pc;
    return t;
}

// ---------------------------------------------------------------
// Classification.
// ---------------------------------------------------------------

TEST(ClassifyTest, TakenBackEdgeIsLoopBody)
{
    const Trace t = traceOf({{alu(), false}, {condBranch(-8), true}});
    EXPECT_EQ(classifyTrace(t).loopClass, LoopClass::LoopBody);
}

TEST(ClassifyTest, NotTakenBackEdgeIsLoopExit)
{
    const Trace t =
        traceOf({{alu(), false}, {condBranch(-8), false}});
    EXPECT_EQ(classifyTrace(t).loopClass, LoopClass::LoopExit);
}

TEST(ClassifyTest, TakenBackEdgeBeatsEmbeddedCall)
{
    // Priority: an iterating loop with a call in its body is a
    // loop body, not call-chain glue.
    const Trace t = traceOf(
        {{call(), true}, {alu(), false}, {condBranch(-12), true}});
    EXPECT_EQ(classifyTrace(t).loopClass, LoopClass::LoopBody);
}

TEST(ClassifyTest, CallWithoutBackEdgeIsCallChain)
{
    const Trace t = traceOf({{alu(), false}, {call(), true}});
    EXPECT_EQ(classifyTrace(t).loopClass, LoopClass::CallChain);
}

TEST(ClassifyTest, PlainBodyIsStraightLine)
{
    // A forward conditional branch alone does not make a loop.
    const Trace t =
        traceOf({{alu(), false}, {condBranch(16), false}});
    EXPECT_EQ(classifyTrace(t).loopClass, LoopClass::StraightLine);
}

TEST(ClassifyTest, HistogramCountsEveryInstructionOnce)
{
    const Trace t = traceOf({{alu(), false},
                             {load(), false},
                             {call(), true},
                             {condBranch(-12), true}});
    const TraceClass cls = classifyTrace(t);
    unsigned total = 0;
    for (std::size_t k = 0; k < kNumInstKinds; ++k)
        total += cls.instCounts[k];
    EXPECT_EQ(total, t.len());
    EXPECT_EQ(cls.instCounts[std::size_t(InstKind::Alu)], 1u);
    EXPECT_EQ(cls.instCounts[std::size_t(InstKind::LoadStore)], 1u);
    EXPECT_EQ(cls.instCounts[std::size_t(InstKind::CallReturn)], 1u);
    EXPECT_EQ(cls.instCounts[std::size_t(InstKind::CondBranch)], 1u);
}

TEST(ClassifyTest, LinkingJalrIsCallNotIndirectBranch)
{
    // The bucket priority: a linking Jalr is a call first, even
    // though it is also an indirect jump.
    Instruction jalr;
    jalr.op = Opcode::Jalr;
    jalr.rd = linkReg;
    jalr.rs1 = 5;
    EXPECT_EQ(instKindOf(jalr), InstKind::CallReturn);

    Instruction indirect;
    indirect.op = Opcode::Jalr;
    indirect.rd = zeroReg;
    indirect.rs1 = 5;
    // rd == x0, rs1 != link: neither call nor return.
    ASSERT_FALSE(indirect.isReturn());
    EXPECT_EQ(instKindOf(indirect), InstKind::IndirectBranch);
}

// ---------------------------------------------------------------
// The strict TPRE_ATTRIB knob.
// ---------------------------------------------------------------

class AttribEnvTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const char *env = std::getenv("TPRE_ATTRIB");
        had_ = env != nullptr;
        if (had_)
            saved_ = env;
        unsetenv("TPRE_ATTRIB");
    }

    void
    TearDown() override
    {
        if (had_)
            setenv("TPRE_ATTRIB", saved_.c_str(), 1);
        else
            unsetenv("TPRE_ATTRIB");
    }

  private:
    bool had_ = false;
    std::string saved_;
};

TEST_F(AttribEnvTest, UnsetDefaultsToEnabled)
{
    EXPECT_TRUE(attribDefaultEnabled());
}

TEST_F(AttribEnvTest, ZeroAndOneParseStrictly)
{
    setenv("TPRE_ATTRIB", "0", 1);
    EXPECT_FALSE(attribDefaultEnabled());
    setenv("TPRE_ATTRIB", "1", 1);
    EXPECT_TRUE(attribDefaultEnabled());
}

TEST_F(AttribEnvTest, JunkIsFatal)
{
    for (const char *bad : {"on", "true", "2", "01", "", " 1"}) {
        EXPECT_EXIT(
            {
                setenv("TPRE_ATTRIB", bad, 1);
                attribDefaultEnabled();
            },
            ::testing::ExitedWithCode(1), "not 0 or 1")
            << "TPRE_ATTRIB='" << bad << "' accepted";
    }
}

// ---------------------------------------------------------------
// TraceCache accumulation + reconciliation contract.
// ---------------------------------------------------------------

class AttribCacheTest : public AttribEnvTest
{
};

TEST_F(AttribCacheTest, InsertHitEvictAccumulate)
{
    if (!obs::kEnabled)
        GTEST_SKIP() << "attribution compiled out";

    TraceCache tc(64);
    ASSERT_TRUE(tc.attribActive());

    Trace loop = traceOf({{alu(), false}, {condBranch(-8), true}});
    loop.buildCycle = 100; // the builder's stamp
    tc.insert(loop);
    tc.advanceTo(130);
    ASSERT_NE(tc.lookup(loop.id), nullptr);
    (void)tc.lookup(loop.id);

    const AttribCell &cell =
        tc.attrib().of(TraceOrigin::FillUnit, LoopClass::LoopBody);
    EXPECT_EQ(cell.builds, 1u);
    EXPECT_EQ(cell.hits, 2u);
    EXPECT_EQ(cell.firstUses, 1u);
    // Built at cycle 100, first served at cycle 130: 30 cycles of
    // construction-to-first-use latency.
    EXPECT_EQ(cell.firstUseLatencySum, 30u);
    EXPECT_EQ(cell.instBuilt[std::size_t(InstKind::CondBranch)], 1u);
    EXPECT_EQ(cell.instBuilt[std::size_t(InstKind::Alu)], 1u);
    // Two hits served the 2-instruction body twice.
    EXPECT_EQ(cell.instServed[std::size_t(InstKind::Alu)], 2u);

    EXPECT_TRUE(tc.invalidate(loop.id));
    EXPECT_EQ(cell.evictInvalidate, 1u);
    EXPECT_EQ(cell.evictedUnused, 0u); // it served two fetches

    // An unused straight-line trace cleared away lands in the
    // other cell with the unused flag.
    const Trace plain = traceOf({{alu(), false}}, 0x2000);
    tc.insert(plain);
    tc.clear();
    const AttribCell &other = tc.attrib().of(
        TraceOrigin::FillUnit, LoopClass::StraightLine);
    EXPECT_EQ(other.builds, 1u);
    EXPECT_EQ(other.evictClear, 1u);
    EXPECT_EQ(other.evictedUnused, 1u);

    // The ledger must reconcile against provenance at every point.
    EXPECT_FALSE(check::attribReconciles(tc.attrib(),
                                         tc.provenance(),
                                         tc.attribActive())
                     .has_value());
}

TEST_F(AttribCacheTest, PreconOriginLandsInPreconRows)
{
    if (!obs::kEnabled)
        GTEST_SKIP() << "attribution compiled out";

    TraceCache tc(64);
    Trace t = traceOf({{alu(), false}, {call(), true}});
    t.origin = TraceOrigin::Precon;
    tc.insert(t, /*servedAtInsert=*/true);

    const AttribCell &cell =
        tc.attrib().of(TraceOrigin::Precon, LoopClass::CallChain);
    EXPECT_EQ(cell.builds, 1u);
    EXPECT_EQ(cell.hits, 1u); // the promote-serve counts as a hit
    EXPECT_EQ(cell.firstUses, 1u);
    EXPECT_TRUE(
        tc.attrib().originSum(TraceOrigin::FillUnit).builds == 0u);
    EXPECT_FALSE(check::attribReconciles(tc.attrib(),
                                         tc.provenance(),
                                         tc.attribActive())
                     .has_value());
}

TEST_F(AttribCacheTest, DisabledCacheStaysAllZero)
{
    setenv("TPRE_ATTRIB", "0", 1);
    TraceCache tc(64);
    EXPECT_FALSE(tc.attribActive());
    tc.insert(traceOf({{alu(), false}, {condBranch(-8), true}}));
    (void)tc.lookup({0x1000, 0x1, 1});
    EXPECT_TRUE(tc.attrib().allZero());
    // Provenance is unconditional and keeps counting regardless.
    EXPECT_EQ(tc.provenance().of(TraceOrigin::FillUnit).builds, 1u);
    EXPECT_FALSE(check::attribReconciles(tc.attrib(),
                                         tc.provenance(),
                                         tc.attribActive())
                     .has_value());
}

TEST_F(AttribCacheTest, InactiveNonZeroTableIsAViolation)
{
    AttribTable table;
    table.of(TraceOrigin::FillUnit, LoopClass::LoopBody).builds = 1;
    const check::Violation violation = check::attribReconciles(
        table, ProvenanceTable(), /*active=*/false);
    ASSERT_TRUE(violation.has_value());
}

TEST_F(AttribCacheTest, CellProvenanceMismatchIsAViolation)
{
    if (!obs::kEnabled)
        GTEST_SKIP() << "attribution compiled out";

    TraceCache tc(64);
    tc.insert(traceOf({{alu(), false}}));
    AttribTable skewed = tc.attrib();
    ++skewed.of(TraceOrigin::FillUnit, LoopClass::StraightLine)
          .builds;
    const check::Violation violation = check::attribReconciles(
        skewed, tc.provenance(), tc.attribActive());
    ASSERT_TRUE(violation.has_value());
    EXPECT_NE(violation->find("attrib-reconcile"),
              std::string::npos);
}

TEST_F(AttribCacheTest, CheckpointRoundTripPreservesLedger)
{
    if (!obs::kEnabled)
        GTEST_SKIP() << "attribution compiled out";

    TraceCache tc(64);
    const Trace loop =
        traceOf({{alu(), false}, {condBranch(-8), true}});
    tc.insert(loop);
    (void)tc.lookup(loop.id);

    mem::ByteWriter w;
    tc.save(w);
    const std::vector<std::uint8_t> bytes = w.take();
    TraceCache restored(64);
    mem::ByteReader r(bytes);
    restored.restore(r);

    // The ledger survives the round trip...
    EXPECT_EQ(restored.attrib()
                  .of(TraceOrigin::FillUnit, LoopClass::LoopBody)
                  .hits,
              1u);
    // ...and the restored entry's class was recomputed, so new
    // hits keep landing in the same cell.
    ASSERT_NE(restored.lookup(loop.id), nullptr);
    EXPECT_EQ(restored.attrib()
                  .of(TraceOrigin::FillUnit, LoopClass::LoopBody)
                  .hits,
              2u);
    EXPECT_FALSE(check::attribReconciles(restored.attrib(),
                                         restored.provenance(),
                                         restored.attribActive())
                     .has_value());
}

// ---------------------------------------------------------------
// End-to-end: a real run reconciles and lands in SimResult.
// ---------------------------------------------------------------

TEST_F(AttribCacheTest, SimulatorRunReconciles)
{
    Simulator sim;
    SimConfig cfg;
    cfg.benchmark = "compress";
    cfg.maxInsts = 60000;
    cfg.preconBufferEntries = 128;
    const SimResult result = sim.run(cfg);

    const bool active = attribDefaultEnabled() && obs::kEnabled;
    EXPECT_FALSE(check::attribReconciles(result.attrib,
                                          result.provenance, active)
                     .has_value());
    if (active) {
        std::uint64_t builds = 0;
        for (std::size_t o = 0; o < kNumOrigins; ++o)
            builds += result.attrib
                          .originSum(static_cast<TraceOrigin>(o))
                          .builds;
        EXPECT_GT(builds, 0u);
    } else {
        EXPECT_TRUE(result.attrib.allZero());
    }
}

// ---------------------------------------------------------------
// Renderings.
// ---------------------------------------------------------------

TEST(AttribRenderTest, JsonShapeAndCounts)
{
    AttribTable table;
    AttribCell &cell =
        table.of(TraceOrigin::Precon, LoopClass::LoopBody);
    cell.builds = 3;
    cell.hits = 7;
    cell.instServed[std::size_t(InstKind::CondBranch)] = 5;

    const std::string json = renderAttribJson(table);
    EXPECT_NE(json.find("\"precon\""), std::string::npos);
    EXPECT_NE(json.find("\"loop_body\": {\"builds\": 3, "
                        "\"hits\": 7"),
              std::string::npos);
    EXPECT_NE(json.find("\"cond_branch\": 5"), std::string::npos);
    // Every origin and loop class appears even when zero.
    for (const char *key :
         {"\"fill\"", "\"loop_exit\"", "\"call_chain\"",
          "\"straight_line\"", "\"inst_built\"", "\"inst_served\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(AttribRenderTest, PrometheusLabeledFamilies)
{
    AttribTable table;
    table.of(TraceOrigin::FillUnit, LoopClass::CallChain).hits = 9;
    table.of(TraceOrigin::Precon, LoopClass::LoopBody)
        .instServed[std::size_t(InstKind::LoadStore)] = 4;

    const std::string text =
        telemetry::renderAttribPrometheus(table);
    EXPECT_NE(text.find("# TYPE tpre_attrib_hits_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("tpre_attrib_hits_total{origin=\"fill\","
                        "loop_class=\"call_chain\"} 9"),
              std::string::npos);
    EXPECT_NE(
        text.find("tpre_attrib_inst_served_total{origin=\"precon\","
                  "loop_class=\"loop_body\","
                  "inst_type=\"load_store\"} 4"),
        std::string::npos);
}

TEST(AttribRenderTest, ProvenancePrometheusLabeledFamilies)
{
    ProvenanceTable table;
    table.origins[std::size_t(TraceOrigin::Precon)].builds = 11;
    table.origins[std::size_t(TraceOrigin::FillUnit)]
        .evictCapacity = 2;

    const std::string text =
        telemetry::renderProvenancePrometheus(table);
    EXPECT_NE(
        text.find("tpre_provenance_builds_total{origin=\"precon\"}"
                  " 11"),
        std::string::npos);
    EXPECT_NE(
        text.find("tpre_provenance_evictions_total{origin=\"fill\","
                  "reason=\"capacity\"} 2"),
        std::string::npos);
}

TEST(AttribRenderTest, PublishedLedgersAggregateAcrossRuns)
{
    telemetry::resetPublishedLedgers();
    ProvenanceTable prov;
    prov.origins[std::size_t(TraceOrigin::FillUnit)].builds = 5;
    AttribTable attrib;
    attrib.of(TraceOrigin::FillUnit, LoopClass::StraightLine)
        .builds = 5;
    telemetry::publishRunLedgers(prov, attrib);
    telemetry::publishRunLedgers(prov, attrib);

    const std::string text = telemetry::renderPublishedLedgers();
    EXPECT_NE(
        text.find("tpre_provenance_builds_total{origin=\"fill\"} "
                  "10"),
        std::string::npos);
    EXPECT_NE(text.find("tpre_attrib_builds_total{origin=\"fill\","
                        "loop_class=\"straight_line\"} 10"),
              std::string::npos);
    telemetry::resetPublishedLedgers();
}

// ---------------------------------------------------------------
// BENCH JSON presence contract.
// ---------------------------------------------------------------

class AttribReportTest : public AttribEnvTest
{
  protected:
    static std::string
    renderedReport()
    {
        BenchReport report("attrib_presence_test", 1);
        Simulator sim;
        SimConfig cfg;
        cfg.benchmark = "compress";
        cfg.maxInsts = 20000;
        report.add(sim.run(cfg));
        return report.render(0.5);
    }
};

TEST_F(AttribReportTest, ActiveRunsCarryAttribSections)
{
    if (!obs::kEnabled)
        GTEST_SKIP() << "attribution compiled out";
    const std::string json = renderedReport();
    EXPECT_NE(json.find("\"attrib\": {\"fill\""),
              std::string::npos);
}

TEST_F(AttribReportTest, DisabledRunsOmitAttribEntirely)
{
    setenv("TPRE_ATTRIB", "0", 1);
    const std::string json = renderedReport();
    EXPECT_EQ(json.find("\"attrib\""), std::string::npos);
}

} // namespace
} // namespace tpre

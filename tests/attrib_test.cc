/**
 * @file
 * Tests for the trace-reuse attribution ledger (DESIGN.md section
 * 17): trace classification, TraceCache accumulation, the
 * provenance reconciliation contract, and the JSON / Prometheus
 * renderings.
 */

#include <gtest/gtest.h>

#include <vector>
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
// TraceCache accumulation + reconciliation contract.
// ---------------------------------------------------------------

TEST(AttribCacheTest, InsertHitEvictAccumulate)
{
    TraceCache tc(64);

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
                                         tc.provenance())
                     .has_value());
}

TEST(AttribCacheTest, PreconOriginLandsInPreconRows)
{
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
                                         tc.provenance())
                     .has_value());
}

TEST(AttribCacheTest, CellProvenanceMismatchIsAViolation)
{
    TraceCache tc(64);
    tc.insert(traceOf({{alu(), false}}));
    AttribTable skewed = tc.attrib();
    ++skewed.of(TraceOrigin::FillUnit, LoopClass::StraightLine)
          .builds;
    const check::Violation violation =
        check::attribReconciles(skewed, tc.provenance());
    ASSERT_TRUE(violation.has_value());
    EXPECT_NE(violation->find("attrib-reconcile"),
              std::string::npos);
}

TEST(AttribCacheTest, CheckpointRoundTripPreservesLedger)
{
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
                                         restored.provenance())
                     .has_value());
}

// ---------------------------------------------------------------
// End-to-end: a real run reconciles and lands in SimResult.
// ---------------------------------------------------------------

TEST(AttribCacheTest, SimulatorRunReconciles)
{
    Simulator sim;
    SimConfig cfg;
    cfg.benchmark = "compress";
    cfg.maxInsts = 60000;
    cfg.preconBufferEntries = 128;
    const SimResult result = sim.run(cfg);

    EXPECT_FALSE(check::attribReconciles(result.attrib,
                                          result.provenance)
                     .has_value());
    EXPECT_GT(result.provenance.totalBuilds(), 0u);
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
    AttribTable attrib;
    attrib.of(TraceOrigin::FillUnit, LoopClass::StraightLine)
        .builds = 5;
    telemetry::publishRunLedgers(attrib);
    telemetry::publishRunLedgers(attrib);

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

TEST(AttribReportTest, ActiveRunsCarryAttribSections)
{
    BenchReport report("attrib_presence_test", 1);
    Simulator sim;
    SimConfig cfg;
    cfg.benchmark = "compress";
    cfg.maxInsts = 20000;
    report.add(sim.run(cfg));
    EXPECT_NE(report.render(0.5).find("\"attrib\": {\"fill\""),
              std::string::npos);
}

TEST(AttribReportTest, EveryRowAttribSumsToItsProvenance)
{
    // Every build carries the top-level and per-row "attrib"
    // sections, and each row's origin sums are its "provenance"
    // object, summed here independently of AttribTable::provenance().
    BenchReport report("attrib_rows_test", 1);
    std::vector<SimResult> rows;
    for (const char *bench : {"compress", "gcc"}) {
        Simulator sim;
        SimConfig cfg;
        cfg.benchmark = bench;
        cfg.maxInsts = 20000;
        cfg.preconBufferEntries = 128;
        rows.push_back(sim.run(cfg));
        report.add(rows.back());
    }
    const std::string json = report.render(0.5);
    AttribTable total;
    for (const SimResult &r : rows) {
        ProvenanceTable sums;
        for (std::size_t o = 0; o < kNumOrigins; ++o) {
            for (std::size_t c = 0; c < kNumLoopClasses; ++c) {
                const AttribCell &cell =
                    r.attrib.cells[o * kNumLoopClasses + c];
                OriginProvenance &sum = sums.origins[o];
                sum.builds += cell.builds;
                sum.hits += cell.hits;
                sum.firstUses += cell.firstUses;
                sum.firstUseLatencySum += cell.firstUseLatencySum;
                sum.evictCapacity += cell.evictCapacity;
                sum.evictRefresh += cell.evictRefresh;
                sum.evictInvalidate += cell.evictInvalidate;
                sum.evictClear += cell.evictClear;
                sum.evictedUnused += cell.evictedUnused;
            }
        }
        EXPECT_GT(sums.totalBuilds(), 0u);
        EXPECT_NE(json.find("\"provenance\": " +
                            renderProvenanceJson(sums) +
                            ", \"attrib\": " +
                            renderAttribJson(r.attrib) + ", "),
                  std::string::npos)
            << r.config.benchmark;
        total.add(r.attrib);
    }
    EXPECT_NE(json.find("  \"attrib\": " + renderAttribJson(total) +
                        ",\n"),
              std::string::npos);
}

} // namespace
} // namespace tpre

/**
 * @file
 * Tests for the tpre::check differential oracle and fuzzing
 * subsystem: the invariant checkers accept real data and detect
 * injected corruption, the reference interpreter agrees with the
 * FunctionalCore, diffModels() is clean on real workloads, a
 * bounded fuzz campaign passes, and the shrinker reduces a failing
 * case while preserving the failure category.
 */

#include <gtest/gtest.h>

#include "check/diff.hh"
#include "check/fuzz.hh"
#include "check/invariants.hh"
#include "check/stats_check.hh"
#include "trace/fill_unit.hh"
#include "tproc/fast_sim.hh"
#include "workload/generator.hh"

namespace tpre
{
namespace
{

using check::failureCategory;
using check::Violation;

/** Collect the first @p count demand traces of a gcc run. */
std::vector<Trace>
realTraces(std::size_t count, const SelectionPolicy &policy = {})
{
    WorkloadGenerator gen(specint95Profile("gcc"));
    auto wl = gen.generate();
    FunctionalCore core(wl.program);
    FillUnit fill(policy);
    std::vector<Trace> traces;
    while (!core.halted() && traces.size() < count) {
        if (auto t = fill.feed(core.step()))
            traces.push_back(std::move(*t));
    }
    return traces;
}

Instruction
callInst()
{
    Instruction inst;
    inst.op = Opcode::Jal;
    inst.rd = linkReg;
    return inst;
}

Instruction
retInst()
{
    Instruction inst;
    inst.op = Opcode::Jalr;
    inst.rd = zeroReg;
    inst.rs1 = linkReg;
    return inst;
}

// ---------------------------------------------------------------
// Invariant checkers on real and corrupted data.
// ---------------------------------------------------------------

TEST(TraceWellFormed, AcceptsRealTraces)
{
    const auto traces = realTraces(200);
    ASSERT_GE(traces.size(), 100u);
    for (const Trace &t : traces) {
        const Violation v = check::traceWellFormed(t);
        EXPECT_FALSE(v.has_value()) << *v;
    }
}

TEST(TraceWellFormed, DetectsPathBreak)
{
    auto traces = realTraces(50);
    for (Trace &t : traces) {
        if (t.len() < 3)
            continue;
        t.insts[1].pc += 4; // break embedded-path contiguity
        const Violation v = check::traceWellFormed(t);
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(failureCategory(*v), "trace-well-formed");
        return;
    }
    FAIL() << "no trace long enough to corrupt";
}

TEST(TraceWellFormed, DetectsBranchFlagDrift)
{
    auto traces = realTraces(200);
    for (Trace &t : traces) {
        if (t.id.numBranches == 0)
            continue;
        t.id.branchFlags ^= 1; // claim the opposite first outcome
        const Violation v = check::traceWellFormed(t);
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(failureCategory(*v), "trace-well-formed");
        return;
    }
    FAIL() << "no trace with a conditional branch";
}

TEST(TraceWellFormed, DetectsShortLengthTermination)
{
    // An injected off-by-one in the selection length rule would
    // produce traces one instruction short; strict checking must
    // reject a truncated length-terminated trace.
    auto traces = realTraces(200);
    for (Trace &t : traces) {
        if (t.endReason != TraceEndReason::MaxLength &&
            t.endReason != TraceEndReason::Alignment)
            continue;
        if (t.len() < 2)
            continue;
        t.fallThrough = t.insts.back().pc;
        t.insts.pop_back();
        const Violation v = check::traceWellFormed(t);
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(failureCategory(*v), "trace-well-formed");
        return;
    }
    FAIL() << "no length-terminated trace found";
}

TEST(TracesMatch, DetectsServedContentDrift)
{
    auto traces = realTraces(10);
    ASSERT_FALSE(traces.empty());
    const Trace &demanded = traces.front();
    EXPECT_FALSE(
        check::tracesMatch(demanded, demanded).has_value());

    Trace served = demanded;
    served.insts[0].inst.imm ^= 1;
    const Violation v = check::tracesMatch(demanded, served);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(failureCategory(*v), "served-trace");
}

// ---------------------------------------------------------------
// Verdict pins: both checkers' verdicts and messages over a fixed
// corpus of single-field mutations of real traces.
// ---------------------------------------------------------------

/**
 * The first 300 FastSim demand traces each of gcc, go and vortex,
 * followed by a copy of every one marked preprocessed.
 */
const std::vector<Trace> &
mutationCorpus()
{
    static const std::vector<Trace> corpus = [] {
        std::vector<Trace> out;
        for (const char *name : {"gcc", "go", "vortex"}) {
            WorkloadGenerator gen(specint95Profile(name));
            const auto wl = gen.generate();
            std::size_t taken = 0;
            FastSimConfig cfg;
            cfg.hooks.onTrace = [&](const Trace &demanded, const Trace &,
                                    bool) {
                if (taken < 300) {
                    out.push_back(demanded);
                    ++taken;
                }
            };
            FastSim sim(wl.program, cfg);
            sim.run(20000);
        }
        const std::size_t demand = out.size();
        for (std::size_t i = 0; i < demand; ++i) {
            Trace t = out[i];
            t.preprocessed = true;
            out.push_back(t);
        }
        return out;
    }();
    return corpus;
}

/**
 * Call @p visit on @p base unchanged and on every single-field
 * mutation of it: each slot's pc ±4, op (next opcode, and Add),
 * rd/rs1/rs2/sh1/sh2 (low bit flipped), imm + 1, taken flipped,
 * srcPos + 1; the identity fields; fallThrough; every end reason;
 * and the trace truncated by one slot.
 */
template <typename Visit>
void
forEachMutation(const Trace &base, Visit &&visit)
{
    auto mutate = [&](auto &&edit) {
        Trace t = base;
        edit(t);
        visit(t);
    };
    constexpr unsigned numOps = unsigned(Opcode::NumOpcodes);
    mutate([](Trace &) {});
    for (unsigned i = 0; i < base.len(); ++i) {
        mutate([i](Trace &t) { t.insts[i].pc += 4; });
        mutate([i](Trace &t) { t.insts[i].pc -= 4; });
        mutate([i](Trace &t) {
            Opcode &op = t.insts[i].inst.op;
            op = Opcode((unsigned(op) + 1) % numOps);
        });
        mutate([i](Trace &t) { t.insts[i].inst.op = Opcode::Add; });
        mutate([i](Trace &t) { t.insts[i].inst.rd ^= 1; });
        mutate([i](Trace &t) { t.insts[i].inst.rs1 ^= 1; });
        mutate([i](Trace &t) { t.insts[i].inst.rs2 ^= 1; });
        mutate([i](Trace &t) { t.insts[i].inst.imm += 1; });
        mutate([i](Trace &t) { t.insts[i].inst.sh1 ^= 1; });
        mutate([i](Trace &t) { t.insts[i].inst.sh2 ^= 1; });
        mutate([i](Trace &t) { t.insts[i].taken = !t.insts[i].taken; });
        mutate([i](Trace &t) { t.insts[i].srcPos += 1; });
    }
    mutate([](Trace &t) { t.id.startPc += 4; });
    mutate([](Trace &t) { t.id.branchFlags ^= 1; });
    mutate([](Trace &t) { t.id.numBranches += 1; });
    mutate([](Trace &t) { t.fallThrough += 4; });
    for (unsigned r = 0; r <= unsigned(TraceEndReason::Halt); ++r)
        mutate([r](Trace &t) { t.endReason = TraceEndReason(r); });
    mutate([](Trace &t) { t.insts.pop_back(); });
}

/** FNV-1a digest of a sequence of verdicts and their messages. */
struct VerdictDigest
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::size_t rejects = 0;

    void
    mixByte(unsigned char b)
    {
        h ^= b;
        h *= 0x100000001b3ull;
    }

    void
    add(const Violation &v)
    {
        mixByte(v.has_value());
        if (!v)
            return;
        ++rejects;
        for (char c : *v)
            mixByte(static_cast<unsigned char>(c));
        mixByte(0);
    }
};

TEST(TraceWellFormed, VerdictsPinnedOnMutationCorpus)
{
    // Every verdict and message over the mutation corpus, checked
    // both as a complete and as a flushed (partial) trace, digested
    // in order. The constants were recorded before the checker was
    // rewritten; a rejection that names a different first failing
    // rule, or words it differently, changes the digest.
    const auto &corpus = mutationCorpus();
    ASSERT_EQ(corpus.size(), 1800u);
    VerdictDigest d;
    std::size_t checked = 0;
    for (const Trace &base : corpus) {
        forEachMutation(base, [&](const Trace &t) {
            for (bool partial : {false, true}) {
                d.add(check::traceWellFormed(t, {}, partial));
                ++checked;
            }
        });
        // The unmutated trace under other selection policies: no
        // alignment rule, a coarser granule, a lower length cap.
        for (const SelectionPolicy policy :
             {SelectionPolicy{16, 0}, SelectionPolicy{16, 8},
              SelectionPolicy{12, 4}}) {
            d.add(check::traceWellFormed(base, policy));
            ++checked;
        }
    }
    EXPECT_EQ(d.h, 0x141f7f107fa3132aull)
        << std::hex << "digest 0x" << d.h << std::dec << " rejects "
        << d.rejects << " of " << checked;
    EXPECT_EQ(d.rejects, 122012u);
}

TEST(TracesMatch, VerdictsPinnedOnMutationCorpus)
{
    // Each mutation served for its unmutated trace and, the other
    // way round, demanded against it; verdicts and messages digested
    // in order, constants recorded before the checker was rewritten.
    const auto &corpus = mutationCorpus();
    ASSERT_EQ(corpus.size(), 1800u);
    VerdictDigest d;
    std::size_t checked = 0;
    for (const Trace &base : corpus) {
        forEachMutation(base, [&](const Trace &t) {
            d.add(check::tracesMatch(base, t));
            d.add(check::tracesMatch(t, base));
            checked += 2;
        });
    }
    EXPECT_EQ(d.h, 0x0c3cc64a03d10ec1ull)
        << std::hex << "digest 0x" << d.h << std::dec << " rejects "
        << d.rejects << " of " << checked;
    EXPECT_EQ(d.rejects, 299614u);
}

TEST(StreamBalance, DetectsUnmatchedReturn)
{
    DynInst call, ret;
    call.inst = callInst();
    ret.inst = retInst();

    EXPECT_FALSE(
        check::streamCallRetBalanced({call, ret}, true).has_value());

    const Violation v = check::streamCallRetBalanced({ret}, false);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(failureCategory(*v), "call-ret-balance");

    const Violation unbalanced =
        check::streamCallRetBalanced({call}, true);
    ASSERT_TRUE(unbalanced.has_value());
    EXPECT_EQ(failureCategory(*unbalanced), "call-ret-balance");
}

TEST(StatsConserved, DetectsFastSimLeak)
{
    FastSimStats s;
    s.traces = 10;
    s.tcHits = 5;
    s.pbHits = 1;
    s.tcMisses = 4;
    EXPECT_FALSE(check::statsConserved(s).has_value());

    s.tcMisses = 3; // one fetched trace unaccounted for
    const Violation v = check::statsConserved(s);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(failureCategory(*v), "stats");
}

TEST(StatsConserved, ProcessorAllowsOneInFlightLookup)
{
    ProcessorStats s;
    s.traces = 10;
    s.tcHits = 7;
    s.tcMisses = 3;
    EXPECT_FALSE(check::statsConserved(s).has_value());
    s.tcMisses = 4; // the chained lookup of an undispatched trace
    EXPECT_FALSE(check::statsConserved(s).has_value());
    s.tcMisses = 5;
    EXPECT_TRUE(check::statsConserved(s).has_value());
}

TEST(FastStatsEqual, NamesAPerturbedInstructionKind)
{
    WorkloadGenerator gen(specint95Profile("gcc"));
    auto wl = gen.generate();
    FastSimConfig cfg;
    cfg.preconEnabled = true;
    FastSim sim(wl.program, cfg);
    const FastSimStats live = sim.run(20000);
    EXPECT_FALSE(check::fastStatsEqual(live, live).has_value());

    // Move one served instruction between two kinds of one cell:
    // every sum stays the same, only the kind split moves. The
    // first differing field in kind order is load_store.
    const AttribCell &cell =
        live.attrib.of(TraceOrigin::FillUnit, LoopClass::LoopBody);
    const auto alu = static_cast<std::size_t>(InstKind::Alu);
    const auto mem = static_cast<std::size_t>(InstKind::LoadStore);
    ASSERT_GT(cell.instServed[alu], 0u);
    FastSimStats replayed = live;
    AttribCell &moved =
        replayed.attrib.of(TraceOrigin::FillUnit, LoopClass::LoopBody);
    --moved.instServed[alu];
    ++moved.instServed[mem];

    const Violation v = check::fastStatsEqual(live, replayed);
    ASSERT_TRUE(v.has_value());
    EXPECT_NE(v->find("attrib.fill.loop_body.instServed.load_store "
                      "diverges: live "),
              std::string::npos)
        << *v;
}

TEST(RasWellFormed, DefaultStackIsSane)
{
    ReturnAddressStack ras;
    EXPECT_FALSE(check::rasWellFormed(ras).has_value());
    ras.push(0x1000);
    EXPECT_FALSE(check::rasWellFormed(ras).has_value());
}

// ---------------------------------------------------------------
// The reference interpreter.
// ---------------------------------------------------------------

TEST(ReferenceRun, AgreesWithFunctionalCore)
{
    WorkloadGenerator gen(specint95Profile("compress"));
    auto wl = gen.generate();

    const check::RefRun ref =
        check::referenceRun(wl.program, {}, 20000);
    EXPECT_FALSE(ref.leftImage);
    ASSERT_GE(ref.stream.size(), 20000u);

    FunctionalCore core(wl.program);
    for (const DynInst &dyn : ref.stream) {
        ASSERT_FALSE(core.halted());
        const DynInst &want = core.step();
        ASSERT_EQ(dyn.pc, want.pc);
        ASSERT_EQ(dyn.inst, want.inst);
        ASSERT_EQ(dyn.nextPc, want.nextPc);
        ASSERT_EQ(dyn.taken, want.taken);
        ASSERT_EQ(dyn.effAddr, want.effAddr);
    }
    for (const Trace &t : ref.traces) {
        const Violation v = check::traceWellFormed(t);
        EXPECT_FALSE(v.has_value()) << *v;
    }
}

TEST(ReferenceRun, ReportsImageEscape)
{
    // A program without a halt runs off the end of the image; the
    // reference interpreter must stop and report, not fault.
    ProgramBuilder b(0x1000);
    for (int i = 0; i < 8; ++i)
        b.addi(1, 1, 1);
    const Program program = b.build();
    const check::RefRun ref =
        check::referenceRun(program, {}, 1000);
    EXPECT_TRUE(ref.leftImage);
    EXPECT_FALSE(ref.halted);
    EXPECT_EQ(ref.stream.size(), 8u);
}

// ---------------------------------------------------------------
// The differential oracle on real workloads.
// ---------------------------------------------------------------

TEST(DiffModels, CleanOnRealWorkloads)
{
    for (const char *name : {"compress", "li"}) {
        WorkloadGenerator gen(specint95Profile(name));
        auto wl = gen.generate();
        check::DiffConfig cfg;
        cfg.maxInsts = 8000;
        cfg.preconEnabled = true;
        cfg.prepEnabled = true;
        const check::DiffResult r =
            check::diffModels(wl.program, cfg);
        EXPECT_TRUE(r.ok()) << name << ": " << *r.failure;
        EXPECT_GE(r.instructions, 8000u);
        EXPECT_GT(r.traces, 0u);
    }
}

TEST(DiffModels, RejectsImageEscapingProgram)
{
    ProgramBuilder b(0x1000);
    b.addi(1, 1, 1);
    const Program program = b.build();
    check::DiffConfig cfg;
    cfg.maxInsts = 100;
    const check::DiffResult r = check::diffModels(program, cfg);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(failureCategory(*r.failure), "invalid-program");
}

// ---------------------------------------------------------------
// Fuzzing: bounded campaign and the shrinker.
// ---------------------------------------------------------------

TEST(Fuzz, CasesAreDeterministic)
{
    const check::FuzzCase a = check::makeFuzzCase(42, 2000);
    const check::FuzzCase b = check::makeFuzzCase(42, 2000);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.base, b.base);
    EXPECT_EQ(a.entry, b.entry);
    EXPECT_EQ(a.code, b.code);
    EXPECT_EQ(a.description, b.description);
}

TEST(Fuzz, BoundedCampaignIsClean)
{
    check::FuzzOptions opts;
    opts.baseSeed = 1;
    opts.seeds = 10;
    opts.maxInsts = 3000;
    const check::FuzzReport report = check::runFuzz(opts);
    EXPECT_EQ(report.casesRun, 10u);
    EXPECT_GT(report.instructionsExecuted, 0u);
    EXPECT_GT(report.tracesChecked, 0u);
    for (const check::FuzzFailure &f : report.failures)
        ADD_FAILURE() << "seed " << f.shrunk.seed << " ["
                      << f.shrunk.description
                      << "]: " << f.failure;
}

TEST(Fuzz, ShrinkerReducesWhilePreservingCategory)
{
    // A halting-free program fails with "invalid-program"; the
    // shrinker should nop out nearly everything while that category
    // keeps reproducing (an all-nop program still walks off the
    // image), never crossing into a different failure kind.
    ProgramBuilder b(0x1000);
    for (int i = 0; i < 48; ++i)
        b.addi(RegIndex(1 + i % 8), 1, i);
    const Program program = b.build();

    check::FuzzCase failing;
    failing.seed = 7;
    failing.kind = check::CaseKind::RandomProgram;
    failing.base = program.base();
    failing.entry = program.entry();
    for (Addr pc = program.base(); pc < program.end();
         pc += instBytes)
        failing.code.push_back(program.wordAt(pc));
    failing.diff.maxInsts = 1000;
    failing.diff.runProcessor = false;

    const check::DiffResult orig =
        check::diffModels(failing.program(), failing.diff);
    ASSERT_FALSE(orig.ok());
    ASSERT_EQ(failureCategory(*orig.failure), "invalid-program");

    const std::string shrunkFailure =
        check::shrinkCase(failing, *orig.failure);
    EXPECT_EQ(failureCategory(shrunkFailure), "invalid-program");

    // The shrunk image must still fail the same way...
    const check::DiffResult after =
        check::diffModels(failing.program(), failing.diff);
    ASSERT_FALSE(after.ok());
    EXPECT_EQ(failureCategory(*after.failure), "invalid-program");

    // ... and the distinctive addi payload must be gone (nopped).
    ProgramBuilder nb(0);
    nb.nop();
    const InstWord nop = nb.build().wordAt(0);
    std::size_t live = 0;
    for (const InstWord w : failing.code)
        live += w != nop;
    EXPECT_EQ(live, 0u);
}

} // namespace
} // namespace tpre

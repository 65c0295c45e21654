/**
 * @file
 * Micro-benchmarks (google-benchmark): the allocation-free
 * structures this repository's throughput rests on — functional
 * core step rate, flat-page-table memory access (page-cache hits
 * and random pages), trace segmentation rate, block dispatch and the
 * sampler's block fast-forward, inline trace-body copies,
 * trace-cache probes with cached identity hashes, the bimodal and
 * next-trace predictors, the Section 6 preprocessing kernels, the
 * per-trace invariant checkers, the preconstruction engine and
 * whole fast-mode simulation with preconstruction. Most isolate a
 * per-instruction cost the MIPS gate tracks.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bpred/bimodal.hh"
#include "bpred/next_trace.hh"
#include "common/parse.hh"
#include "check/invariants.hh"
#include "common/random.hh"
#include "func/block_cache.hh"
#include "func/core.hh"
#include "func/memory.hh"
#include "precon/engine.hh"
#include "prep/preprocessor.hh"
#include "tproc/fast_sim.hh"
#include "trace/fill_unit.hh"
#include "trace/trace_cache.hh"
#include "workload/generator.hh"

namespace
{

using namespace tpre;

const GeneratedWorkload &
gccWorkload()
{
    static GeneratedWorkload wl = [] {
        WorkloadGenerator gen(specint95Profile("gcc"));
        return gen.generate();
    }();
    return wl;
}

/** Functional-core step rate: instructions simulated per second. */
void
BM_CoreStepRate(benchmark::State &state)
{
    const GeneratedWorkload &wl = gccWorkload();
    FunctionalCore core(wl.program);
    for (auto _ : state) {
        if (core.halted())
            core.reset();
        benchmark::DoNotOptimize(core.step());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreStepRate);

/** Same-page accesses: each one hits the direct-mapped page cache. */
void
BM_MemoryMruHot(benchmark::State &state)
{
    Memory mem;
    mem.write(0x1000, 42);
    Addr addr = 0x1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem.read(addr));
        // Stay inside one page so every access is a page-cache hit.
        addr = 0x1000 + ((addr + 8) & 0xfff);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemoryMruHot);

/**
 * Random-page accesses over 4096 pages, far more than the page
 * cache's 64 entries: nearly every access probes the table.
 */
void
BM_MemoryRandomPages(benchmark::State &state)
{
    Memory mem;
    Rng rng(7);
    std::vector<Addr> addrs;
    for (int i = 0; i < 4096; ++i) {
        const Addr a = rng.nextBelow(1u << 24) * 8;
        addrs.push_back(a);
        mem.write(a, a);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem.read(addrs[i & 4095]));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemoryRandomPages);

/** Segmentation rate: core + fill unit, traces per instruction. */
void
BM_SegmentationRate(benchmark::State &state)
{
    const GeneratedWorkload &wl = gccWorkload();
    FunctionalCore core(wl.program);
    FillUnit fill;
    for (auto _ : state) {
        if (core.halted())
            core.reset();
        benchmark::DoNotOptimize(fill.feed(core.step()));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegmentationRate);

/**
 * Block dispatch (DESIGN.md section 14): predecoded-block lookup
 * plus bulk body execution, terminator through the core's step().
 * Items are instructions, directly comparable to BM_CoreStepRate —
 * the ratio is the fast-forward speedup of the retire loop itself.
 */
void
BM_BlockDispatchRate(benchmark::State &state)
{
    const GeneratedWorkload &wl = gccWorkload();
    FunctionalCore core(wl.program);
    BlockCache blocks(wl.program);
    std::int64_t insts = 0;
    for (auto _ : state) {
        if (core.halted())
            core.reset();
        const DecodedBlock &block = blocks.lookup(core.pc());
        if (block.bodyLen) {
            core.execBody(block.insts, block.bodyLen);
            insts += block.bodyLen;
        }
        if (block.end != BlockEnd::Clipped && !core.halted()) {
            benchmark::DoNotOptimize(core.step());
            ++insts;
        }
    }
    state.SetItemsProcessed(insts);
}
BENCHMARK(BM_BlockDispatchRate);

/**
 * The sampler's skip: TraceStream::fastForward through the block
 * cache, 10k instructions per call. Items are instructions, so the
 * rate compares directly with BM_BlockDispatchRate and
 * BM_CoreStepRate.
 */
void
BM_FastForward(benchmark::State &state)
{
    const GeneratedWorkload &wl = gccWorkload();
    constexpr InstCount chunk = 10000;
    auto stream = std::make_unique<TraceStream>(
        wl.program, SelectionPolicy{}, false);
    std::int64_t insts = 0;
    for (auto _ : state) {
        const InstCount done = stream->fastForward(chunk);
        benchmark::DoNotOptimize(done);
        if (done < chunk) {
            state.PauseTiming();
            stream = std::make_unique<TraceStream>(
                wl.program, SelectionPolicy{}, false);
            state.ResumeTiming();
        }
        insts += static_cast<std::int64_t>(done);
    }
    state.SetItemsProcessed(insts);
}
BENCHMARK(BM_FastForward);

/** Copying a full 16-instruction trace body (inline storage). */
void
BM_TraceBodyCopy(benchmark::State &state)
{
    Trace t;
    Instruction alu;
    alu.op = Opcode::Add;
    for (unsigned i = 0; i < kMaxTraceLen; ++i)
        t.insts.push_back({0x1000 + 4 * i, alu, false,
                           static_cast<std::uint8_t>(i)});
    for (auto _ : state) {
        Trace copy = t;
        benchmark::DoNotOptimize(copy);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceBodyCopy);

/** Trace-cache probes over ids with warmed hash caches. */
void
BM_TraceCacheProbe(benchmark::State &state)
{
    TraceCache tc(512);
    Rng rng(11);
    std::vector<TraceId> ids;
    for (int i = 0; i < 1024; ++i) {
        Trace t;
        t.id = {0x1000 + 4 * rng.nextBelow(4096),
                static_cast<std::uint16_t>(rng.nextBelow(16)), 4};
        Instruction alu;
        alu.op = Opcode::Add;
        t.insts.push_back({t.id.startPc, alu, false, 0});
        ids.push_back(t.id);
        tc.insert(std::move(t));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tc.lookup(ids[i & 1023]));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceCacheProbe);

void
BM_BimodalPredictUpdate(benchmark::State &state)
{
    BimodalPredictor bp;
    Rng rng(2);
    Addr pc = 0x1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bp.predict(pc));
        bp.update(pc, rng.nextBool(0.7));
        pc = 0x1000 + 4 * rng.nextBelow(8192);
    }
}
BENCHMARK(BM_BimodalPredictUpdate);

void
BM_NextTracePredictor(benchmark::State &state)
{
    NextTracePredictor ntp;
    Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ntp.predict());
        TraceId id{0x1000 + 4 * rng.nextBelow(256),
                   static_cast<std::uint16_t>(rng.nextBelow(8)),
                   3};
        ntp.advance(id, rng.nextBool(0.1), rng.nextBool(0.1));
    }
}
BENCHMARK(BM_NextTracePredictor);

/** gcc's demand traces from a 300k-instruction FastSim run. */
const std::vector<Trace> &
gccDemandTraces()
{
    static const std::vector<Trace> traces = [] {
        std::vector<Trace> out;
        FastSimConfig cfg;
        cfg.hooks.onTrace = [&out](const Trace &demanded,
                                   const Trace &, bool) {
            out.push_back(demanded);
        };
        FastSim sim(gccWorkload().program, cfg);
        sim.run(300000);
        return out;
    }();
    return traces;
}

/**
 * Trace preprocessing rate: Preprocessor::process (constant
 * propagation, fusion, scheduling) over copies of gcc's demand
 * traces. Items are traces.
 */
void
BM_PrepProcess(benchmark::State &state)
{
    const std::vector<Trace> &traces = gccDemandTraces();
    Preprocessor prep;
    std::size_t i = 0;
    for (auto _ : state) {
        Trace t = traces[i];
        prep.process(t);
        benchmark::DoNotOptimize(t);
        i = i + 1 == traces.size() ? 0 : i + 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrepProcess);

/**
 * The per-trace invariant checkers run over gcc's first 400 demand
 * traces, all of which pass. The set is small on purpose. 400
 * traces (about 170 KB) stay cache-resident. A set of 20k traces
 * does not fit in cache, so its loads would hide the kernel being
 * measured. Items are traces.
 */
constexpr std::size_t kCheckedTraces = 400;

void
BM_TraceWellFormed(benchmark::State &state)
{
    const std::vector<Trace> traces(
        gccDemandTraces().begin(),
        gccDemandTraces().begin() + kCheckedTraces);
    const SelectionPolicy policy;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            check::traceWellFormed(traces[i], policy));
        i = i + 1 == traces.size() ? 0 : i + 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceWellFormed);

/** tracesMatch of each of those traces against its own copy. */
void
BM_TracesMatch(benchmark::State &state)
{
    const std::vector<Trace> demanded(
        gccDemandTraces().begin(),
        gccDemandTraces().begin() + kCheckedTraces);
    const std::vector<Trace> served = demanded;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            check::tracesMatch(demanded[i], served[i]));
        i = i + 1 == demanded.size() ? 0 : i + 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracesMatch);

/**
 * The preconstruction engine alone, fed gcc's first 20k demand
 * traces the way FastFrontend::processTrace feeds it: a buffer
 * probe, the dispatch monitor per instruction, then a tick of
 * ceil(len/4) cycles with the I-cache port free. Each iteration
 * replays the whole stream into a fresh engine. Items are
 * constructed traces; per_trace is their mean cost in seconds.
 */
void
BM_PreconEngine(benchmark::State &state)
{
    const std::vector<Trace> traces(
        gccDemandTraces().begin(),
        gccDemandTraces().begin() +
            std::min<std::size_t>(20000, gccDemandTraces().size()));
    const Program &program = gccWorkload().program;
    const BimodalPredictor bimodal(16 * 1024);
    const TraceCache tc(256);
    std::uint64_t constructed = 0;
    for (auto _ : state) {
        state.PauseTiming();
        ICache icache;
        PreconstructionEngine engine(program, icache, bimodal, tc);
        state.ResumeTiming();
        for (const Trace &t : traces) {
            if (engine.lookupBuffer(t.id))
                engine.consumeHit(t.id);
            for (const TraceInst &ti : t.insts)
                engine.observeCommit(ti.pc, ti.inst, ti.taken);
            engine.tick((t.len() + 3) / 4, true);
        }
        benchmark::DoNotOptimize(engine.stats());
        constructed += engine.stats().tracesConstructed;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(constructed));
    state.counters["per_trace"] = benchmark::Counter(
        static_cast<double>(constructed),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_PreconEngine)->Unit(benchmark::kMillisecond);

/** Whole fast-mode simulation of gcc, 128TC+128PB, 100k insts. */
void
BM_FastSimWithPrecon(benchmark::State &state)
{
    const GeneratedWorkload &wl = gccWorkload();
    for (auto _ : state) {
        FastSimConfig cfg;
        cfg.traceCacheEntries = 128;
        cfg.preconEnabled = true;
        cfg.precon.bufferEntries = 128;
        FastSim sim(wl.program, cfg);
        benchmark::DoNotOptimize(sim.run(100000));
    }
    state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_FastSimWithPrecon)->Unit(benchmark::kMillisecond);

} // namespace

/**
 * Custom main instead of benchmark_main: defaults the JSON output
 * to BENCH_micro_hotpath.json (google-benchmark's native schema;
 * the measurement loop is inherently serial, so there is no --jobs
 * here) unless the caller already passed --benchmark_out.
 * TPRE_BENCH_DIR relocates the report like it does for the sweep
 * binaries.
 */
int
main(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    bool hasOut = false;
    for (int i = 1; i < argc; ++i)
        if (tpre::isBenchmarkOutFlag(argv[i]))
            hasOut = true;

    std::string dir = ".";
    if (const char *env = std::getenv("TPRE_BENCH_DIR"))
        dir = env;
    std::string outFlag = "--benchmark_out=" + dir +
                          "/BENCH_micro_hotpath.json";
    std::string fmtFlag = "--benchmark_out_format=json";
    if (!hasOut) {
        args.push_back(outFlag.data());
        args.push_back(fmtFlag.data());
    }

    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

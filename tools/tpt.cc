/**
 * @file
 * tpt: the `.tpt` branch-trace file tool (DESIGN.md section 13).
 *
 * Usage: tpt <command> [options]
 *
 *   encode --benchmark NAME [-o FILE] [--seed N] [--max-insts N]
 *          [--tc N] [--pb N]
 *       Run NAME through the fast frontend and dump the committed
 *       dynamic stream as a `.tpt` file (default NAME.tpt).
 *
 *   inspect FILE
 *       Print the header: version, flags, chunking, code image
 *       geometry, instruction count and provenance metadata.
 *
 *   stats FILE
 *       Decode the whole stream and report record counts,
 *       compression density and decode throughput.
 *
 *   decode FILE [--max N]
 *       Print the reconstructed dynamic stream as disassembly
 *       (first N instructions; default 64, 0 = everything).
 *
 *   verify FILE
 *       Decode the stream and re-encode it; fails unless the
 *       result is byte-identical to FILE (the canonical-encoding
 *       guarantee the CI corpus job pins).
 *
 *   replay FILE [--tc N] [--pb N] [--max-insts N]
 *       Drive the fill unit, trace cache and preconstruction
 *       engine from the recorded stream — no functional execution
 *       — and print the frontend statistics (default --tc 256
 *       --pb 128; --pb 0 runs no engine, as encode does by
 *       default). Both commands print misses/KI to 3 decimals.
 *
 * Exit status: 0 on success, 1 on file/config errors (via fatal),
 * 2 on usage errors.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "isa/disasm.hh"
#include "sim/simulator.hh"
#include "tracefmt/reader.hh"
#include "tracefmt/writer.hh"

using namespace tpre;

namespace
{

int
usage()
{
    std::cerr
        << "usage: tpt <command> [options]\n"
        << "  encode --benchmark NAME [-o FILE] [--seed N]\n"
        << "         [--max-insts N] [--tc N] [--pb N]\n"
        << "  inspect FILE\n"
        << "  stats FILE\n"
        << "  decode FILE [--max N]\n"
        << "  verify FILE\n"
        << "  replay FILE [--tc N] [--pb N] [--max-insts N]\n";
    return 2;
}

/** A count where 0 is meaningful (--pb 0: no engine; --max 0:
 *  everything); anything else must parse as a positive integer. */
std::uint64_t
parseCount(const char *text, const char *what)
{
    if (text[0] == '0' && text[1] == '\0')
        return 0;
    return static_cast<std::uint64_t>(parsePositiveInt(text, what));
}

tracefmt::TptReader
openOrDie(const std::string &path)
{
    tracefmt::TptReader reader =
        tracefmt::TptReader::fromFile(path);
    if (!reader.ok())
        fatal("%s: %s", path.c_str(), reader.error().c_str());
    return reader;
}

int
cmdEncode(int argc, char **argv)
{
    SimConfig cfg;
    cfg.benchmark.clear();
    std::string out;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--benchmark")
            cfg.benchmark = value();
        else if (arg == "-o" || arg == "--output")
            out = value();
        else if (arg == "--seed")
            cfg.workloadSeed = static_cast<std::uint64_t>(
                parsePositiveInt(value(), "--seed"));
        else if (arg == "--max-insts")
            cfg.maxInsts = static_cast<InstCount>(
                parsePositiveInt(value(), "--max-insts"));
        else if (arg == "--tc")
            cfg.traceCacheEntries = static_cast<std::size_t>(
                parsePositiveInt(value(), "--tc"));
        else if (arg == "--pb")
            cfg.preconBufferEntries = static_cast<std::size_t>(
                parseCount(value(), "--pb"));
        else
            return usage();
    }
    if (cfg.benchmark.empty())
        return usage();
    if (out.empty())
        out = cfg.benchmark + ".tpt";

    cfg.mode = SimMode::Fast;
    cfg.tptDump = out;
    Simulator sim;
    const SimResult r = sim.run(cfg);
    std::printf("%s: encoded %llu insts from %s (seed %llu), "
                "%.3f misses/KI live\n",
                out.c_str(),
                static_cast<unsigned long long>(r.instructions),
                cfg.benchmark.c_str(),
                static_cast<unsigned long long>(cfg.workloadSeed),
                r.missesPerKi);
    return 0;
}

int
cmdInspect(const std::string &path)
{
    tracefmt::TptReader reader = openOrDie(path);
    const tracefmt::TptHeader &h = reader.header();
    std::printf("file:        %s (%zu bytes)\n", path.c_str(),
                reader.fileBytes());
    std::printf("version:     %u\n", h.version);
    std::printf("flags:       0x%04x%s\n", h.flags,
                h.hasEffAddr() ? " (eff-addr)" : "");
    std::printf("chunk insts: %u\n", h.chunkInsts);
    std::printf("code image:  base 0x%llx, entry 0x%llx, %llu "
                "words\n",
                static_cast<unsigned long long>(h.base),
                static_cast<unsigned long long>(h.entry),
                static_cast<unsigned long long>(h.numWords));
    std::printf("dyn insts:   %llu\n",
                static_cast<unsigned long long>(h.dynCount));
    std::printf("benchmark:   %s\n",
                reader.meta().benchmark.empty()
                    ? "(unknown)"
                    : reader.meta().benchmark.c_str());
    std::printf("seed:        %llu\n",
                static_cast<unsigned long long>(
                    reader.meta().seed));
    return 0;
}

int
cmdStats(const std::string &path)
{
    tracefmt::TptReader reader = openOrDie(path);
    const auto start = std::chrono::steady_clock::now();
    DynInst dyn;
    while (reader.next(dyn)) {
    }
    const double secs =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (!reader.ok())
        fatal("%s: %s", path.c_str(), reader.error().c_str());

    const tracefmt::TptReader::RecordCounts &c =
        reader.recordCounts();
    const double insts =
        static_cast<double>(reader.decoded());
    std::printf("decoded:     %llu insts in %llu chunks\n",
                static_cast<unsigned long long>(reader.decoded()),
                static_cast<unsigned long long>(c.chunks));
    std::printf("records:     %llu sync, %llu tnt (%llu bits), "
                "%llu indirect, %llu eff-addr\n",
                static_cast<unsigned long long>(c.sync),
                static_cast<unsigned long long>(c.tnt),
                static_cast<unsigned long long>(c.tntBits),
                static_cast<unsigned long long>(c.indirect),
                static_cast<unsigned long long>(c.effAddr));
    std::printf("density:     %.3f bits/inst over the whole file\n",
                insts > 0
                    ? 8.0 * static_cast<double>(reader.fileBytes()) /
                          insts
                    : 0.0);
    std::printf("decode rate: %.1f Minsts/s\n",
                secs > 0.0 ? insts / secs / 1e6 : 0.0);
    return 0;
}

int
cmdDecode(const std::string &path, std::uint64_t maxPrint)
{
    tracefmt::TptReader reader = openOrDie(path);
    DynInst dyn;
    std::uint64_t printed = 0;
    while (reader.next(dyn)) {
        if (maxPrint == 0 || printed < maxPrint) {
            std::printf("%8llu  0x%llx: %-28s -> 0x%llx%s",
                        static_cast<unsigned long long>(printed),
                        static_cast<unsigned long long>(dyn.pc),
                        disassemble(dyn.inst, dyn.pc).c_str(),
                        static_cast<unsigned long long>(dyn.nextPc),
                        dyn.taken ? " taken" : "");
            if (dyn.inst.isLoad() || dyn.inst.isStore())
                std::printf(" ea=0x%llx",
                            static_cast<unsigned long long>(
                                dyn.effAddr));
            std::printf("\n");
        }
        ++printed;
    }
    if (!reader.ok())
        fatal("%s: %s", path.c_str(), reader.error().c_str());
    if (maxPrint != 0 && printed > maxPrint)
        std::printf("... (%llu more)\n",
                    static_cast<unsigned long long>(printed -
                                                    maxPrint));
    return 0;
}

int
cmdVerify(const std::string &path)
{
    tracefmt::TptReader reader = openOrDie(path);
    tracefmt::TptMeta meta = reader.meta();
    tracefmt::TptWriterConfig wcfg;
    wcfg.effAddr = reader.header().hasEffAddr();
    wcfg.chunkInsts = reader.header().chunkInsts;

    std::vector<DynInst> stream;
    DynInst dyn;
    while (reader.next(dyn))
        stream.push_back(dyn);
    if (!reader.ok())
        fatal("%s: %s", path.c_str(), reader.error().c_str());

    tracefmt::TptWriter writer(reader.program(), meta, wcfg);
    for (const DynInst &d : stream)
        writer.add(d);
    std::string bytes;
    if (!tracefmt::readFileBytes(path, bytes))
        fatal("cannot re-read %s", path.c_str());
    if (writer.finish() != bytes)
        fatal("%s: decode + re-encode is NOT byte-identical "
              "(non-canonical encoder or corrupt file)",
              path.c_str());
    std::printf("%s: OK — %llu insts decode cleanly and re-encode "
                "byte-identically\n",
                path.c_str(),
                static_cast<unsigned long long>(stream.size()));
    return 0;
}

int
cmdReplay(const std::string &path, int argc, char **argv)
{
    SimConfig cfg;
    cfg.traceCacheEntries = 256;
    cfg.preconBufferEntries = 128;
    cfg.maxInsts = static_cast<InstCount>(-1);
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--tc")
            cfg.traceCacheEntries = static_cast<std::size_t>(
                parsePositiveInt(value(), "--tc"));
        else if (arg == "--pb")
            cfg.preconBufferEntries = static_cast<std::size_t>(
                parseCount(value(), "--pb"));
        else if (arg == "--max-insts")
            cfg.maxInsts = static_cast<InstCount>(
                parsePositiveInt(value(), "--max-insts"));
        else
            return usage();
    }

    const SimResult r = replayTrace(path, cfg);
    std::printf("replayed %s: %s\n", path.c_str(),
                r.config.benchmark.c_str());
    std::printf("  insts:      %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("  traces:     %llu (%llu misses, %llu pb hits)\n",
                static_cast<unsigned long long>(r.traces),
                static_cast<unsigned long long>(r.tcMisses),
                static_cast<unsigned long long>(r.pbHits));
    std::printf("  misses/KI:  %.3f\n", r.missesPerKi);
    std::printf("  replay MIPS: %.1f\n", r.mips);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];

    if (cmd == "encode")
        return cmdEncode(argc - 2, argv + 2);

    // Every other command takes FILE as its first operand.
    if (argc < 3)
        return usage();
    const std::string path = argv[2];

    if (cmd == "inspect")
        return cmdInspect(path);
    if (cmd == "stats")
        return cmdStats(path);
    if (cmd == "decode") {
        std::uint64_t maxPrint = 64;
        for (int i = 3; i < argc; ++i) {
            if (!std::strcmp(argv[i], "--max") && i + 1 < argc) {
                maxPrint = parseCount(argv[++i], "--max");
            } else {
                return usage();
            }
        }
        return cmdDecode(path, maxPrint);
    }
    if (cmd == "verify")
        return cmdVerify(path);
    if (cmd == "replay")
        return cmdReplay(path, argc - 3, argv + 3);

    return usage();
}

/**
 * @file
 * The paper's Figure 2/3 walkthrough, reproduced. This example
 * hand-builds the code of Figure 2 (block a, a JAL to a procedure
 * with a loop and an if-then-else, then blocks h, a loop of i, and
 * j), disassembles it, and drives the preconstruction engine with
 * the dispatch event of the JAL — exactly the moment "Region 1" is
 * born in Figure 3. It then prints every trace the constructors
 * build, which should cover the paper's <h,i,i> / <h,i,j> traces.
 */

#include <cstdio>
#include <string>

#include "isa/builder.hh"
#include "isa/disasm.hh"
#include "precon/engine.hh"

using namespace tpre;

int
main()
{
    ProgramBuilder b;
    auto proc = b.newLabel("proc");
    auto after = b.newLabel("after_call");

    // Block a, then the call (JAL).
    b.li(1, 4);      // c-loop trip count
    b.li(2, 0);
    b.call(proc);
    b.bind(after);

    // Block h.
    b.addi(2, 2, 1);
    b.addi(2, 2, 1);
    // The loop of i blocks.
    b.li(3, 3);
    auto iloop = b.here("i_loop");
    b.addi(2, 2, 5);
    b.addi(3, 3, -1);
    b.bne(3, 0, iloop);
    // Block j.
    b.addi(2, 2, 9);
    b.halt();

    // The procedure: block b, the c loop (Br1), d/(e|f)/g, return.
    b.bind(proc);
    b.addi(4, 0, 0);
    auto cloop = b.here("c_loop");
    b.addi(4, 4, 1);
    b.addi(1, 1, -1);
    b.bne(1, 0, cloop); // Br1
    b.andi(5, 4, 1);    // block d
    auto fblk = b.newLabel("f_block");
    auto gblk = b.newLabel("g_block");
    b.beq(5, 0, fblk);
    b.addi(2, 2, 2);    // block e
    b.jmp(gblk);
    b.bind(fblk);
    b.addi(2, 2, 3);    // block f
    b.bind(gblk);
    b.addi(2, 2, 4);    // block g
    b.ret();

    Program p = b.build();

    std::printf("=== Figure 2: the static example code ===\n%s\n",
                disassemble(p).c_str());

    // Assemble the preconstruction machinery around the program.
    TraceCache tc(64);
    ICache ic;
    BimodalPredictor bp;
    PreconConfig cfg;
    PreconstructionEngine engine(p, ic, bp, tc, cfg);

    // The processor dispatches the JAL: its return point becomes a
    // region start point (Region 1 of Figure 3).
    const Addr call_pc = p.symbol("after_call") - instBytes;
    engine.observeCommit(call_pc, p.instAt(call_pc), true);
    std::printf("=== Region 1 start point pushed: 0x%llx "
                "(return point of the JAL) ===\n\n",
                static_cast<unsigned long long>(
                    p.symbol("after_call")));

    // While the callee executes, the engine fetches ahead through
    // the idle I-cache port and constructs traces.
    engine.tick(300, true);

    std::printf("=== Traces preconstructed for Region 1 ===\n");
    engine.buffers().forEachValid([&p](const Trace &t,
                                       std::uint64_t) {
        const TraceId &id = t.id;
        std::printf("trace @0x%llx  branches=%u flags=0x%x  "
                    "(%u insts)\n",
                    static_cast<unsigned long long>(id.startPc),
                    id.numBranches, id.branchFlags, t.len());
        for (const TraceInst &ti : t.insts) {
            std::string sym = p.symbolAt(ti.pc);
            std::printf("   %08llx  %-28s%s%s\n",
                        static_cast<unsigned long long>(ti.pc),
                        disassemble(ti.inst, ti.pc).c_str(),
                        sym.empty() ? "" : "  <- ",
                        sym.c_str());
        }
    });

    const auto &st = engine.stats();
    std::printf("\nengine: %llu region(s), %llu traces "
                "constructed, %llu buffered\n",
                static_cast<unsigned long long>(st.regionsStarted),
                static_cast<unsigned long long>(
                    st.tracesConstructed),
                static_cast<unsigned long long>(st.tracesBuffered));
    std::printf("\nCompare with Figure 3 of the paper: the traces "
                "starting at 'after_call'\ncover <h,i,i> and "
                "<h,i,j> — the loop of i blocks is explored both\n"
                "around the backward branch and through its "
                "exit.\n");
    return 0;
}

/**
 * @file
 * Tests for the functional layer: sparse memory, the canonical
 * instruction executor and the FunctionalCore on real programs.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hh"
#include "func/block_cache.hh"
#include "func/core.hh"
#include "isa/builder.hh"
#include "mem/checkpoint.hh"
#include "workload/generator.hh"

namespace tpre
{
namespace
{

TEST(MemoryTest, ZeroInitialized)
{
    Memory mem;
    EXPECT_EQ(mem.read(0x1234560), 0u);
    EXPECT_EQ(mem.numPages(), 0u);
}

TEST(MemoryTest, ReadBackWrites)
{
    Memory mem;
    mem.write(0x2000, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(mem.read(0x2000), 0xdeadbeefcafef00dULL);
    EXPECT_EQ(mem.numPages(), 1u);
}

TEST(MemoryTest, LowBitsIgnored)
{
    Memory mem;
    mem.write(0x3007, 77);
    EXPECT_EQ(mem.read(0x3000), 77u);
    EXPECT_EQ(mem.read(0x3004), 77u);
}

TEST(MemoryTest, DistinctWordsIndependent)
{
    Memory mem;
    mem.write(0x4000, 1);
    mem.write(0x4008, 2);
    EXPECT_EQ(mem.read(0x4000), 1u);
    EXPECT_EQ(mem.read(0x4008), 2u);
}

TEST(MemoryTest, SparsePages)
{
    Memory mem;
    mem.write(0x0, 1);
    mem.write(0x100000, 2);
    mem.write(0xffff0000, 3);
    EXPECT_EQ(mem.numPages(), 3u);
    mem.clear();
    EXPECT_EQ(mem.read(0x100000), 0u);
}

TEST(MemoryTest, ColdReadAllocatesNothing)
{
    Memory mem;
    // Reads of untouched pages must not create them — workload
    // address streams probe far more pages than they dirty.
    for (Addr addr = 0; addr < 64 * Memory::pageBytes;
         addr += Memory::pageBytes)
        EXPECT_EQ(mem.read(addr), 0u);
    EXPECT_EQ(mem.numPages(), 0u);

    // Reading next to a single dirty page still allocates nothing.
    mem.write(0x8000, 5);
    EXPECT_EQ(mem.read(0x8000 + Memory::pageBytes), 0u);
    EXPECT_EQ(mem.numPages(), 1u);
}

TEST(MemoryTest, CollidingPagesProbeCorrectly)
{
    // Page numbers whose hashes collide in the initial table land
    // in a shared linear-probe chain; every page must still read
    // back its own data.
    const std::size_t mask = Memory::initialSlots - 1;
    std::vector<Addr> colliding;
    const std::size_t target =
        static_cast<std::size_t>(mix64(1)) & mask;
    for (Addr page = 1; colliding.size() < 5 && page < 100000;
         ++page) {
        if ((static_cast<std::size_t>(mix64(page)) & mask) ==
            target)
            colliding.push_back(page);
    }
    ASSERT_EQ(colliding.size(), 5u);

    Memory mem;
    for (Addr page : colliding)
        mem.write(page * Memory::pageBytes, page);
    EXPECT_EQ(mem.numPages(), colliding.size());
    for (Addr page : colliding)
        EXPECT_EQ(mem.read(page * Memory::pageBytes), page);

    // A miss that lands mid-chain must probe past the collisions
    // and still report cold.
    for (Addr page = 100000; page < 100100; ++page) {
        if ((static_cast<std::size_t>(mix64(page)) & mask) ==
            target) {
            EXPECT_EQ(mem.read(page * Memory::pageBytes), 0u);
        }
    }
}

TEST(MemoryTest, GrowsPastInitialCapacity)
{
    Memory mem;
    const std::size_t pages = Memory::initialSlots * 4;
    for (std::size_t i = 0; i < pages; ++i)
        mem.write(static_cast<Addr>(i) * Memory::pageBytes, i + 1);
    EXPECT_EQ(mem.numPages(), pages);
    for (std::size_t i = 0; i < pages; ++i)
        EXPECT_EQ(mem.read(static_cast<Addr>(i) *
                           Memory::pageBytes),
                  i + 1);
}

TEST(MemoryTest, ClearInvalidatesMruCache)
{
    Memory mem;
    mem.write(0x6000, 123);
    // Put 0x6000's page in the page cache, then clear: the next
    // read must see a cold page, not the stale cached pointer.
    EXPECT_EQ(mem.read(0x6000), 123u);
    mem.clear();
    EXPECT_EQ(mem.read(0x6000), 0u);
    EXPECT_EQ(mem.numPages(), 0u);

    // And the memory must be fully usable again afterwards.
    mem.write(0x6000, 9);
    EXPECT_EQ(mem.read(0x6000), 9u);
}

TEST(MemoryTest, MruTracksPageSwitches)
{
    Memory mem;
    mem.write(0x1000, 11);
    mem.write(0x2000, 22);
    // Alternate between two pages: each switch must re-resolve the
    // page rather than serve the previous page's word.
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(mem.read(0x1000), 11u);
        EXPECT_EQ(mem.read(0x2000), 22u);
    }
    mem.write(0x1000, 33);
    EXPECT_EQ(mem.read(0x1000), 33u);
    EXPECT_EQ(mem.read(0x2000), 22u);
}

TEST(MemoryTest, PagesSharingACacheEntryStayDistinct)
{
    // Page numbers 64 apart map to the same direct-mapped cache
    // entry; each access must evict and re-resolve, never serve the
    // other page's word.
    Memory mem;
    const Addr a = 0x1000;
    const Addr b = a + 64 * Memory::pageBytes;
    mem.write(a, 1);
    mem.write(b, 2);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(mem.read(a), 1u);
        EXPECT_EQ(mem.read(b), 2u);
    }
    mem.write(a, 3);
    EXPECT_EQ(mem.read(b), 2u);
    EXPECT_EQ(mem.read(a), 3u);
    // An untouched page in the same entry reads zero.
    EXPECT_EQ(mem.read(b + 64 * Memory::pageBytes), 0u);
    EXPECT_EQ(mem.numPages(), 2u);
}

TEST(ArchStateTest, ZeroRegisterIsImmutable)
{
    ArchState st;
    st.setReg(zeroReg, 42);
    EXPECT_EQ(st.reg(zeroReg), 0u);
    st.setReg(5, 42);
    EXPECT_EQ(st.reg(5), 42u);
}

// ---------------------------------------------------------------
// executeInst semantics (one test per behaviour family).
// ---------------------------------------------------------------

Instruction
makeR(Opcode op, RegIndex rd, RegIndex rs1, RegIndex rs2,
      std::int32_t imm = 0)
{
    Instruction inst;
    inst.op = op;
    inst.rd = rd;
    inst.rs1 = rs1;
    inst.rs2 = rs2;
    inst.imm = imm;
    return inst;
}

TEST(ArchStateTest, EveryWriterAimedAtR0LeavesTheFileIntact)
{
    Instruction fused = makeR(Opcode::Fused, zeroReg, 1, 2, -2);
    fused.sh1 = 3;
    fused.sh2 = 1;
    const Instruction writers[] = {
        makeR(Opcode::Add, zeroReg, 1, 2),
        makeR(Opcode::Addi, zeroReg, 1, 0, 5),
        makeR(Opcode::Lui, zeroReg, 0, 0, 0x1234),
        makeR(Opcode::Ld, zeroReg, 3, 0, 8),
        makeR(Opcode::Jal, zeroReg, 0, 0, 10),
        makeR(Opcode::Jalr, zeroReg, 4, 0),
        fused,
    };
    for (const Instruction &inst : writers) {
        SCOPED_TRACE(static_cast<unsigned>(inst.op));
        ArchState st;
        for (RegIndex r = 1; r < numArchRegs; ++r)
            st.setReg(r, 0x1000 + 0x111 * r);
        // The load reads a nonzero word, so a leak into r0 shows.
        st.mem.write(st.reg(3) + 8, 0xdead);
        const auto before = st.regs;

        executeInst(inst, 0x4000, st);
        EXPECT_EQ(st.reg(zeroReg), 0u);
        EXPECT_EQ(st.regs[zeroReg], 0u);
        for (RegIndex r = 1; r < numArchRegs; ++r)
            EXPECT_EQ(st.reg(r), before[r]) << "r" << unsigned(r);
    }
}

TEST(ExecuteTest, Arithmetic)
{
    ArchState st;
    st.setReg(1, 7);
    st.setReg(2, 5);
    executeInst(makeR(Opcode::Add, 3, 1, 2), 0, st);
    EXPECT_EQ(st.reg(3), 12u);
    executeInst(makeR(Opcode::Sub, 3, 2, 1), 0, st);
    EXPECT_EQ(st.reg(3), static_cast<RegValue>(-2));
    executeInst(makeR(Opcode::Mul, 3, 1, 2), 0, st);
    EXPECT_EQ(st.reg(3), 35u);
}

TEST(ExecuteTest, DivisionIncludingByZero)
{
    ArchState st;
    st.setReg(1, 42);
    st.setReg(2, 5);
    executeInst(makeR(Opcode::Div, 3, 1, 2), 0, st);
    EXPECT_EQ(st.reg(3), 8u);
    st.setReg(2, 0);
    executeInst(makeR(Opcode::Div, 3, 1, 2), 0, st);
    EXPECT_EQ(st.reg(3), ~RegValue(0));
}

TEST(ExecuteTest, ShiftsAndCompares)
{
    ArchState st;
    st.setReg(1, 0x10);
    st.setReg(2, 2);
    executeInst(makeR(Opcode::Sll, 3, 1, 2), 0, st);
    EXPECT_EQ(st.reg(3), 0x40u);
    executeInst(makeR(Opcode::Srl, 3, 1, 2), 0, st);
    EXPECT_EQ(st.reg(3), 0x4u);
    st.setReg(4, static_cast<RegValue>(-8));
    st.setReg(5, 1);
    executeInst(makeR(Opcode::Sra, 3, 4, 5), 0, st);
    EXPECT_EQ(st.reg(3), static_cast<RegValue>(-4));
    executeInst(makeR(Opcode::Slt, 3, 4, 5), 0, st);
    EXPECT_EQ(st.reg(3), 1u); // -8 < 1 signed
    executeInst(makeR(Opcode::Sltu, 3, 4, 5), 0, st);
    EXPECT_EQ(st.reg(3), 0u); // huge unsigned
}

TEST(ExecuteTest, LogicalImmediatesZeroExtend)
{
    ArchState st;
    st.setReg(1, 0xff00ff00ff00ff00ULL);
    Instruction ori;
    ori.op = Opcode::Ori;
    ori.rd = 2;
    ori.rs1 = 1;
    ori.imm = static_cast<std::int16_t>(0x8001);
    executeInst(ori, 0, st);
    // Zero-extended: only low 16 bits OR'd in.
    EXPECT_EQ(st.reg(2), 0xff00ff00ff00ff01ULL | 0x8001u);

    Instruction andi;
    andi.op = Opcode::Andi;
    andi.rd = 2;
    andi.rs1 = 1;
    andi.imm = static_cast<std::int16_t>(0xff00);
    executeInst(andi, 0, st);
    EXPECT_EQ(st.reg(2), 0xff00ff00ff00ff00ULL & 0xff00u);
}

TEST(ExecuteTest, AddiSignExtends)
{
    ArchState st;
    Instruction addi;
    addi.op = Opcode::Addi;
    addi.rd = 1;
    addi.rs1 = 0;
    addi.imm = -5;
    executeInst(addi, 0, st);
    EXPECT_EQ(st.reg(1), static_cast<RegValue>(-5));
}

TEST(ExecuteTest, LuiShifts16)
{
    ArchState st;
    Instruction lui;
    lui.op = Opcode::Lui;
    lui.rd = 1;
    lui.imm = 0x12;
    executeInst(lui, 0, st);
    EXPECT_EQ(st.reg(1), 0x120000u);
}

TEST(ExecuteTest, LoadsAndStores)
{
    ArchState st;
    st.setReg(1, 0x5000);
    st.setReg(2, 999);
    Instruction sd;
    sd.op = Opcode::Sd;
    sd.rs1 = 1;
    sd.rs2 = 2;
    sd.imm = 16;
    ExecResult r = executeInst(sd, 0, st);
    EXPECT_EQ(r.effAddr, 0x5010u);
    Instruction ld;
    ld.op = Opcode::Ld;
    ld.rd = 3;
    ld.rs1 = 1;
    ld.imm = 16;
    r = executeInst(ld, 0, st);
    EXPECT_EQ(r.effAddr, 0x5010u);
    EXPECT_EQ(st.reg(3), 999u);
}

TEST(ExecuteTest, BranchOutcomesAndTargets)
{
    ArchState st;
    st.setReg(1, 5);
    st.setReg(2, 5);
    Instruction beq;
    beq.op = Opcode::Beq;
    beq.rs1 = 1;
    beq.rs2 = 2;
    beq.imm = 4;
    ExecResult r = executeInst(beq, 0x1000, st);
    EXPECT_TRUE(r.taken);
    EXPECT_EQ(r.nextPc, 0x1014u);

    st.setReg(2, 6);
    r = executeInst(beq, 0x1000, st);
    EXPECT_FALSE(r.taken);
    EXPECT_EQ(r.nextPc, 0x1004u);

    Instruction bge;
    bge.op = Opcode::Bge;
    bge.rs1 = 1;
    bge.rs2 = 2;
    bge.imm = -2;
    st.setReg(1, static_cast<RegValue>(-1));
    st.setReg(2, static_cast<RegValue>(-1));
    r = executeInst(bge, 0x1000, st);
    EXPECT_TRUE(r.taken); // equal satisfies >=
    EXPECT_EQ(r.nextPc, 0x1000u + 4 - 8);
}

TEST(ExecuteTest, JalLinksAndJumps)
{
    ArchState st;
    Instruction jal;
    jal.op = Opcode::Jal;
    jal.rd = linkReg;
    jal.imm = 10;
    ExecResult r = executeInst(jal, 0x1000, st);
    EXPECT_EQ(st.reg(linkReg), 0x1004u);
    EXPECT_EQ(r.nextPc, 0x1004u + 40);
}

TEST(ExecuteTest, JalrReadsTargetBeforeLinking)
{
    ArchState st;
    st.setReg(linkReg, 0x2000);
    Instruction jalr;
    jalr.op = Opcode::Jalr;
    jalr.rd = linkReg;
    jalr.rs1 = linkReg;
    ExecResult r = executeInst(jalr, 0x1000, st);
    EXPECT_EQ(r.nextPc, 0x2000u);
    EXPECT_EQ(st.reg(linkReg), 0x1004u);
}

TEST(ExecuteTest, FusedSemantics)
{
    ArchState st;
    st.setReg(1, 3);
    st.setReg(2, 4);
    Instruction fused;
    fused.op = Opcode::Fused;
    fused.rd = 3;
    fused.rs1 = 1;
    fused.rs2 = 2;
    fused.sh1 = 3;
    fused.sh2 = 1;
    fused.imm = -2;
    executeInst(fused, 0, st);
    EXPECT_EQ(st.reg(3), (3u << 3) + (4u << 1) - 2);
}

TEST(ExecuteTest, HaltStops)
{
    ArchState st;
    Instruction halt;
    halt.op = Opcode::Halt;
    ExecResult r = executeInst(halt, 0x1000, st);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.nextPc, 0x1000u);
}

// ---------------------------------------------------------------
// FunctionalCore on small real programs.
// ---------------------------------------------------------------

TEST(FunctionalCoreTest, CountedLoopSum)
{
    ProgramBuilder b;
    auto loop = b.newLabel();
    b.li(1, 10);  // counter
    b.li(2, 0);   // sum
    b.bind(loop);
    b.add(2, 2, 1);
    b.addi(1, 1, -1);
    b.bne(1, 0, loop);
    b.halt();
    Program p = b.build();

    FunctionalCore core(p);
    while (!core.halted())
        core.step();
    EXPECT_EQ(core.state().reg(2), 55u); // 10+9+...+1
    EXPECT_EQ(core.instsExecuted(), 2u + 3 * 10 + 1);
}

TEST(FunctionalCoreTest, CallAndReturn)
{
    ProgramBuilder b;
    auto f = b.newLabel("f");
    b.li(1, 5);
    b.call(f);
    b.addi(1, 1, 100);
    b.halt();
    b.bind(f);
    b.addi(1, 1, 1);
    b.ret();
    Program p = b.build();

    FunctionalCore core(p);
    while (!core.halted())
        core.step();
    EXPECT_EQ(core.state().reg(1), 106u);
}

TEST(FunctionalCoreTest, NestedCallsWithStack)
{
    ProgramBuilder b;
    auto f = b.newLabel("f");
    auto g = b.newLabel("g");
    b.li(1, 0);
    b.call(f);
    b.halt();

    b.bind(f);
    b.addi(stackReg, stackReg, -16);
    b.sd(linkReg, stackReg, 0);
    b.addi(1, 1, 1);
    b.call(g);
    b.addi(1, 1, 4);
    b.ld(linkReg, stackReg, 0);
    b.addi(stackReg, stackReg, 16);
    b.ret();

    b.bind(g);
    b.addi(1, 1, 2);
    b.ret();
    Program p = b.build();

    FunctionalCore core(p);
    while (!core.halted())
        core.step();
    EXPECT_EQ(core.state().reg(1), 7u);
    // Stack pointer restored.
    EXPECT_EQ(core.state().reg(stackReg),
              FunctionalCore::initialStack);
}

TEST(FunctionalCoreTest, IndirectCallThroughTable)
{
    ProgramBuilder b;
    auto f = b.newLabel("f");
    // Store f's address into memory, load it, jalr through it.
    b.li(1, 0x2000);
    b.lui(2, 0);               // will be patched below via ori
    auto fixup_pos = b.numInsts();
    (void)fixup_pos;
    b.ori(2, 2, 0);            // placeholder; real addr set at run
    b.sd(2, 1, 0);
    b.ld(3, 1, 0);
    b.jalr(linkReg, 3, 0);
    b.halt();
    b.bind(f);
    b.li(4, 77);
    b.ret();
    Program p = b.build();

    // Instead of patching, run with a pre-seeded memory cell.
    FunctionalCore core(p);
    // Execute the first stores, then overwrite the table slot with
    // the real function address before the load runs.
    core.step(); // li
    core.step(); // lui
    core.step(); // ori
    core.step(); // sd
    core.state().mem.write(0x2000, p.symbol("f"));
    while (!core.halted())
        core.step();
    EXPECT_EQ(core.state().reg(4), 77u);
}

TEST(FunctionalCoreTest, ResetRestartsCleanly)
{
    ProgramBuilder b;
    b.li(1, 9);
    b.halt();
    Program p = b.build();
    FunctionalCore core(p);
    while (!core.halted())
        core.step();
    EXPECT_EQ(core.state().reg(1), 9u);
    core.reset();
    EXPECT_FALSE(core.halted());
    EXPECT_EQ(core.pc(), p.entry());
    EXPECT_EQ(core.state().reg(1), 0u);
    EXPECT_EQ(core.instsExecuted(), 0u);
}

TEST(FunctionalCoreTest, RestoreRejectsCheckpointWithNonzeroR0)
{
    ProgramBuilder b;
    b.li(1, 5);
    b.halt();
    Program p = b.build();

    FunctionalCore core(p);
    core.step();
    mem::ByteWriter w;
    core.save(w);
    std::vector<std::uint8_t> bytes = w.take();

    // The untouched checkpoint restores; the same bytes with the
    // r0 word (the first one saved) corrupted must not.
    FunctionalCore good(p);
    mem::ByteReader r(bytes);
    good.restore(r);
    EXPECT_EQ(good.state().reg(1), 5u);

    bytes[0] = 1;
    FunctionalCore victim(p);
    mem::ByteReader bad(bytes);
    EXPECT_DEATH(victim.restore(bad), "r0 holds 0x1, not 0");
}

TEST(FunctionalCoreTest, DynInstRecordsBranchOutcome)
{
    ProgramBuilder b;
    auto skip = b.newLabel("skip");
    b.li(1, 1);
    b.beq(1, 0, skip); // not taken
    b.bne(1, 0, skip); // taken
    b.nop();
    b.bind(skip);
    b.halt();
    Program p = b.build();
    FunctionalCore core(p);
    core.step();
    const DynInst &not_taken = core.step();
    EXPECT_FALSE(not_taken.taken);
    const DynInst &taken = core.step();
    EXPECT_TRUE(taken.taken);
    EXPECT_EQ(taken.nextPc, p.symbol("skip"));
}

// ---------------------------------------------------------------
// BlockCache: predecoded basic blocks (DESIGN.md section 14).
// ---------------------------------------------------------------

TEST(BlockCacheTest, DecodesBodyAndTerminator)
{
    ProgramBuilder b;
    auto loop = b.newLabel("loop");
    b.bind(loop);
    b.addi(1, 1, 1);
    b.addi(2, 2, 2);
    b.addi(3, 3, 3);
    b.bne(1, 0, loop);
    b.halt();
    Program p = b.build();

    BlockCache blocks(p);
    const DecodedBlock &block = blocks.lookup(p.entry());
    EXPECT_EQ(block.leader, p.entry());
    EXPECT_EQ(block.bodyLen, 3u);
    EXPECT_EQ(block.end, BlockEnd::CondBranch);
    EXPECT_EQ(block.len(), 4u);
    EXPECT_EQ(block.terminatorPc(), p.entry() + 3 * instBytes);
    EXPECT_EQ(block.target, p.symbol("loop"));
    EXPECT_EQ(block.fallThrough, p.entry() + 4 * instBytes);
    // insts aims into the program image: insts[i] is leader + 4i.
    for (unsigned i = 0; i < block.bodyLen; ++i)
        EXPECT_EQ(block.insts[i],
                  p.instAt(p.entry() + i * instBytes));
}

TEST(BlockCacheTest, SingleInstructionBlocks)
{
    // Leaders that are themselves control transfers: empty body,
    // terminator only.
    ProgramBuilder b;
    auto fn = b.newLabel("fn");
    b.beq(0, 0, fn);   // entry: taken branch straight to fn
    b.nop();
    b.bind(fn);
    b.ret();
    Program p = b.build();

    BlockCache blocks(p);
    const DecodedBlock &branch = blocks.lookup(p.entry());
    EXPECT_EQ(branch.bodyLen, 0u);
    EXPECT_EQ(branch.end, BlockEnd::CondBranch);
    EXPECT_EQ(branch.len(), 1u);
    EXPECT_EQ(branch.terminatorPc(), p.entry());

    const DecodedBlock &ret = blocks.lookup(p.symbol("fn"));
    EXPECT_EQ(ret.bodyLen, 0u);
    EXPECT_EQ(ret.end, BlockEnd::Return);
    EXPECT_EQ(ret.fallThrough, invalidAddr);
}

TEST(BlockCacheTest, HaltEndsItsBlock)
{
    ProgramBuilder b;
    b.nop();
    b.nop();
    b.halt();
    Program p = b.build();

    BlockCache blocks(p);
    const DecodedBlock &block = blocks.lookup(p.entry());
    EXPECT_EQ(block.bodyLen, 2u);
    EXPECT_EQ(block.end, BlockEnd::Halt);
    EXPECT_EQ(block.fallThrough, invalidAddr);
    EXPECT_EQ(block.target, invalidAddr);
}

TEST(BlockCacheTest, ClipsLongRunsAndChains)
{
    ProgramBuilder b;
    for (unsigned i = 0; i < BlockCache::kMaxBlockLen + 8; ++i)
        b.addi(1, 1, 1);
    b.halt();
    Program p = b.build();

    BlockCache blocks(p);
    const DecodedBlock &head = blocks.lookup(p.entry());
    EXPECT_EQ(head.bodyLen, BlockCache::kMaxBlockLen);
    EXPECT_EQ(head.end, BlockEnd::Clipped);
    const Addr resume =
        p.entry() + BlockCache::kMaxBlockLen * instBytes;
    EXPECT_EQ(head.fallThrough, resume);

    // A clipped block chains into the block at its fall-through.
    const DecodedBlock &tail = blocks.lookup(resume);
    EXPECT_EQ(tail.bodyLen, 8u);
    EXPECT_EQ(tail.end, BlockEnd::Halt);
}

TEST(BlockCacheTest, CachesDecodedBlocks)
{
    ProgramBuilder b;
    b.nop();
    b.halt();
    Program p = b.build();

    BlockCache blocks(p);
    const DecodedBlock &first = blocks.lookup(p.entry());
    const DecodedBlock &again = blocks.lookup(p.entry());
    EXPECT_EQ(&first, &again);
    EXPECT_EQ(blocks.stats().decoded, 1u);
    EXPECT_EQ(blocks.stats().hits, 1u);
}

TEST(BlockCacheTest, RebindInvalidatesAfterImageReload)
{
    ProgramBuilder b1;
    b1.nop();
    b1.nop();
    b1.halt();
    Program p1 = b1.build();

    ProgramBuilder b2;
    b2.nop();
    b2.halt();
    Program p2 = b2.build();

    BlockCache blocks(p1);
    EXPECT_EQ(blocks.lookup(p1.entry()).bodyLen, 2u);

    // Same entry address, different image: without the rebind the
    // stale block would silently execute the old instructions.
    blocks.rebind(p2);
    EXPECT_EQ(blocks.stats().invalidations, 1u);
    EXPECT_EQ(blocks.size(), 0u);
    const DecodedBlock &fresh = blocks.lookup(p2.entry());
    EXPECT_EQ(fresh.bodyLen, 1u);
    EXPECT_EQ(&blocks.program(), &p2);
    EXPECT_EQ(blocks.stats().decoded, 2u);
}

TEST(BlockCacheTest, ExecBodyMatchesScalarSteps)
{
    // Block dispatch (bulk body, terminator through step()) against
    // the scalar core, compared at every block boundary.
    constexpr InstCount budget = 200000;
    for (const char *name : {"gcc", "go"}) {
        SCOPED_TRACE(name);
        WorkloadGenerator gen(specint95Profile(name));
        const GeneratedWorkload wl = gen.generate();
        FunctionalCore scalar(wl.program);
        FunctionalCore bulk(wl.program);
        BlockCache blocks(wl.program);

        while (!bulk.halted() && bulk.instsExecuted() < budget) {
            const DecodedBlock &block = blocks.lookup(bulk.pc());
            bulk.execBody(block.insts, block.bodyLen);
            for (unsigned i = 0; i < block.bodyLen; ++i)
                scalar.step();
            if (block.end != BlockEnd::Clipped) {
                bulk.step();
                scalar.step();
            }
            ASSERT_EQ(bulk.pc(), scalar.pc());
            ASSERT_EQ(bulk.instsExecuted(), scalar.instsExecuted());
            ASSERT_EQ(bulk.halted(), scalar.halted());
            ASSERT_EQ(bulk.state().regs, scalar.state().regs)
                << "after block at " << std::hex << block.leader;
        }
        EXPECT_GE(bulk.instsExecuted(), budget);
        EXPECT_GT(blocks.stats().hits, blocks.stats().decoded);

        mem::ByteWriter bulkMem;
        mem::ByteWriter scalarMem;
        bulk.state().mem.save(bulkMem);
        scalar.state().mem.save(scalarMem);
        EXPECT_EQ(bulkMem.take(), scalarMem.take());
    }
}

} // namespace
} // namespace tpre

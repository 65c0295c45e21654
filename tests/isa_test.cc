/**
 * @file
 * Unit and property tests for the ISA: encode/decode round trips,
 * instruction classification helpers, the ProgramBuilder and the
 * disassembler.
 */

#include <gtest/gtest.h>

#include <iterator>

#include "common/random.hh"
#include "isa/builder.hh"
#include "isa/disasm.hh"
#include "isa/instruction.hh"
#include "isa/program.hh"

namespace tpre
{
namespace
{

// ---------------------------------------------------------------
// Encode/decode round trip, parameterized over every opcode.
// ---------------------------------------------------------------

class RoundTripTest : public ::testing::TestWithParam<Opcode>
{
};

Instruction
randomInstFor(Opcode op, Rng &rng)
{
    Instruction inst;
    inst.op = op;
    inst.rd = static_cast<RegIndex>(rng.nextBelow(32));
    inst.rs1 = static_cast<RegIndex>(rng.nextBelow(32));
    inst.rs2 = static_cast<RegIndex>(rng.nextBelow(32));
    switch (op) {
      case Opcode::Jal:
        inst.rs1 = 0;
        inst.rs2 = 0;
        inst.imm = static_cast<std::int32_t>(
            rng.nextRange(-(1 << 20), (1 << 20) - 1));
        break;
      case Opcode::Halt:
        inst.rd = inst.rs1 = inst.rs2 = 0;
        break;
      case Opcode::Beq: case Opcode::Bne: case Opcode::Blt:
      case Opcode::Bge:
        inst.rd = 0;
        inst.imm = static_cast<std::int32_t>(
            rng.nextRange(-32768, 32767));
        break;
      case Opcode::Addi: case Opcode::Andi: case Opcode::Ori:
      case Opcode::Xori: case Opcode::Slti: case Opcode::Lui:
      case Opcode::Ld: case Opcode::Jalr:
        inst.rs2 = 0;
        inst.imm = static_cast<std::int32_t>(
            rng.nextRange(-32768, 32767));
        break;
      case Opcode::Sd:
        inst.rd = 0;
        inst.imm = static_cast<std::int32_t>(
            rng.nextRange(-32768, 32767));
        break;
      case Opcode::Slli: case Opcode::Srli:
        inst.rs2 = 0;
        inst.imm =
            static_cast<std::int32_t>(rng.nextRange(0, 63));
        break;
      default: // R-type
        inst.imm = 0;
        break;
    }
    if (op == Opcode::Lui)
        inst.rs1 = 0;
    return inst;
}

TEST_P(RoundTripTest, EncodeDecodeIdentity)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 1);
    for (int i = 0; i < 200; ++i) {
        const Instruction inst = randomInstFor(GetParam(), rng);
        const Instruction back = decode(encode(inst));
        EXPECT_EQ(back, inst)
            << "opcode " << opcodeName(GetParam());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodableOpcodes, RoundTripTest,
    ::testing::Values(
        Opcode::Add, Opcode::Sub, Opcode::And, Opcode::Or,
        Opcode::Xor, Opcode::Sll, Opcode::Srl, Opcode::Sra,
        Opcode::Slt, Opcode::Sltu, Opcode::Mul, Opcode::Div,
        Opcode::Addi, Opcode::Andi, Opcode::Ori, Opcode::Xori,
        Opcode::Slli, Opcode::Srli, Opcode::Slti, Opcode::Lui,
        Opcode::Ld, Opcode::Sd, Opcode::Beq, Opcode::Bne,
        Opcode::Blt, Opcode::Bge, Opcode::Jal, Opcode::Jalr,
        Opcode::Halt),
    [](const auto &info) {
        return std::string(opcodeName(info.param));
    });

// ---------------------------------------------------------------
// Classification helpers.
// ---------------------------------------------------------------

TEST(InstructionTest, CallReturnClassification)
{
    Instruction call;
    call.op = Opcode::Jal;
    call.rd = linkReg;
    EXPECT_TRUE(call.isCall());
    EXPECT_TRUE(call.isDirectJump());
    EXPECT_FALSE(call.isReturn());

    Instruction jump;
    jump.op = Opcode::Jal;
    jump.rd = zeroReg;
    EXPECT_FALSE(jump.isCall());

    Instruction ret;
    ret.op = Opcode::Jalr;
    ret.rd = zeroReg;
    ret.rs1 = linkReg;
    EXPECT_TRUE(ret.isReturn());
    EXPECT_TRUE(ret.isIndirectJump());
    EXPECT_FALSE(ret.isCall());

    Instruction icall;
    icall.op = Opcode::Jalr;
    icall.rd = linkReg;
    icall.rs1 = 5;
    EXPECT_TRUE(icall.isCall());
    EXPECT_FALSE(icall.isReturn());
}

TEST(InstructionTest, BackwardBranchDetection)
{
    Instruction b;
    b.op = Opcode::Bne;
    b.imm = -4;
    EXPECT_TRUE(b.isBackwardBranch());
    b.imm = 4;
    EXPECT_FALSE(b.isBackwardBranch());
    b.op = Opcode::Add;
    b.imm = -4;
    EXPECT_FALSE(b.isBackwardBranch());
}

TEST(InstructionTest, TargetArithmetic)
{
    Instruction b;
    b.op = Opcode::Beq;
    b.imm = 3;
    EXPECT_EQ(b.targetOf(0x1000), 0x1000u + 4 + 12);
    b.imm = -2;
    EXPECT_EQ(b.targetOf(0x1000), 0x1000u + 4 - 8);
    EXPECT_EQ(Instruction::fallThrough(0x1000), 0x1004u);
}

TEST(InstructionTest, WritesRegRules)
{
    Instruction add;
    add.op = Opcode::Add;
    add.rd = 3;
    EXPECT_TRUE(add.writesReg());
    add.rd = zeroReg;
    EXPECT_FALSE(add.writesReg());

    Instruction store;
    store.op = Opcode::Sd;
    store.rs2 = 4;
    EXPECT_FALSE(store.writesReg());

    Instruction branch;
    branch.op = Opcode::Beq;
    EXPECT_FALSE(branch.writesReg());
}

TEST(InstructionTest, SourceCounts)
{
    Instruction lui;
    lui.op = Opcode::Lui;
    EXPECT_EQ(lui.numSources(), 0u);

    Instruction addi;
    addi.op = Opcode::Addi;
    EXPECT_EQ(addi.numSources(), 1u);

    Instruction add;
    add.op = Opcode::Add;
    EXPECT_EQ(add.numSources(), 2u);
    EXPECT_TRUE(add.readsRs2());

    Instruction store;
    store.op = Opcode::Sd;
    EXPECT_TRUE(store.readsRs2());

    Instruction load;
    load.op = Opcode::Ld;
    EXPECT_FALSE(load.readsRs2());
}

TEST(InstructionTest, OperandPredicatesMatchOpcodeTable)
{
    // Per opcode: writes rd (when rd != r0), reads rs2, sources.
    struct Row
    {
        Opcode op;
        bool writes;
        bool rs2;
        unsigned sources;
    };
    constexpr Row table[] = {
        {Opcode::Add, true, true, 2},    {Opcode::Sub, true, true, 2},
        {Opcode::And, true, true, 2},    {Opcode::Or, true, true, 2},
        {Opcode::Xor, true, true, 2},    {Opcode::Sll, true, true, 2},
        {Opcode::Srl, true, true, 2},    {Opcode::Sra, true, true, 2},
        {Opcode::Slt, true, true, 2},    {Opcode::Sltu, true, true, 2},
        {Opcode::Mul, true, true, 2},    {Opcode::Div, true, true, 2},
        {Opcode::Addi, true, false, 1},  {Opcode::Andi, true, false, 1},
        {Opcode::Ori, true, false, 1},   {Opcode::Xori, true, false, 1},
        {Opcode::Slli, true, false, 1},  {Opcode::Srli, true, false, 1},
        {Opcode::Slti, true, false, 1},  {Opcode::Lui, true, false, 0},
        {Opcode::Ld, true, false, 1},    {Opcode::Sd, false, true, 2},
        {Opcode::Beq, false, true, 2},   {Opcode::Bne, false, true, 2},
        {Opcode::Blt, false, true, 2},   {Opcode::Bge, false, true, 2},
        {Opcode::Jal, true, false, 0},   {Opcode::Jalr, true, false, 1},
        {Opcode::Halt, false, false, 0}, {Opcode::Fused, true, true, 2},
    };
    static_assert(std::size(table) ==
                  static_cast<std::size_t>(Opcode::NumOpcodes));

    for (std::size_t i = 0; i < std::size(table); ++i) {
        const Row &row = table[i];
        ASSERT_EQ(static_cast<std::size_t>(row.op), i);
        for (const RegIndex rd : {zeroReg, RegIndex{5}}) {
            Instruction inst;
            inst.op = row.op;
            inst.rd = rd;
            inst.rs1 = 7;
            inst.rs2 = 9;
            EXPECT_EQ(inst.writesReg(), row.writes && rd != zeroReg)
                << opcodeName(row.op) << " rd=" << unsigned(rd);
            EXPECT_EQ(inst.readsRs2(), row.rs2)
                << opcodeName(row.op);
            EXPECT_EQ(inst.numSources(), row.sources)
                << opcodeName(row.op);
        }
    }
}

TEST(InstructionTest, FusedHasNoEncoding)
{
    Instruction fused;
    fused.op = Opcode::Fused;
    EXPECT_DEATH({ (void)encode(fused); }, "Fused");
}

TEST(InstructionTest, UnknownOpcodeDecodesToHalt)
{
    const InstWord bogus = 0xffffffffu;
    EXPECT_EQ(decode(bogus).op, Opcode::Halt);
}

// ---------------------------------------------------------------
// Program container.
// ---------------------------------------------------------------

TEST(ProgramTest, BasicAccessors)
{
    std::vector<InstWord> code;
    Instruction nop;
    nop.op = Opcode::Addi;
    code.push_back(encode(nop));
    Instruction halt;
    halt.op = Opcode::Halt;
    code.push_back(encode(halt));

    Program p(0x1000, code, 0x1000);
    EXPECT_EQ(p.base(), 0x1000u);
    EXPECT_EQ(p.entry(), 0x1000u);
    EXPECT_EQ(p.end(), 0x1008u);
    EXPECT_EQ(p.numInsts(), 2u);
    EXPECT_EQ(p.codeBytes(), 8u);
    EXPECT_TRUE(p.contains(0x1000));
    EXPECT_TRUE(p.contains(0x1004));
    EXPECT_FALSE(p.contains(0x1008));
    EXPECT_FALSE(p.contains(0x1002)); // misaligned
    EXPECT_FALSE(p.contains(0xfff8));
    EXPECT_EQ(p.instAt(0x1004).op, Opcode::Halt);
    EXPECT_EQ(p.wordAt(0x1000), code[0]);
}

TEST(ProgramTest, Symbols)
{
    std::vector<InstWord> code(4, encode(Instruction{}));
    Program p(0x1000, code, 0x1000);
    p.addSymbol("foo", 0x1008);
    EXPECT_EQ(p.symbol("foo"), 0x1008u);
    EXPECT_EQ(p.symbol("bar"), invalidAddr);
    EXPECT_EQ(p.symbolAt(0x1008), "foo");
    EXPECT_EQ(p.symbolAt(0x1004), "");
}

// ---------------------------------------------------------------
// ProgramBuilder.
// ---------------------------------------------------------------

TEST(BuilderTest, ForwardAndBackwardBranches)
{
    ProgramBuilder b(0x1000);
    auto loop = b.newLabel("loop");
    auto done = b.newLabel("done");

    b.li(1, 3);       // 0x1000
    b.bind(loop);     // 0x1004
    b.addi(1, 1, -1); // 0x1004
    b.beq(1, 0, done);
    b.jmp(loop);
    b.bind(done);
    b.halt();

    Program p = b.build();
    // beq at 0x1008 targets 0x1010 -> offset +1.
    EXPECT_EQ(p.instAt(0x1008).imm, 1);
    EXPECT_EQ(p.instAt(0x1008).targetOf(0x1008), 0x1010u);
    // jmp at 0x100c targets 0x1004 -> offset -3.
    EXPECT_EQ(p.instAt(0x100c).imm, -3);
    EXPECT_EQ(p.symbol("loop"), 0x1004u);
    EXPECT_EQ(p.symbol("done"), 0x1010u);
}

TEST(BuilderTest, EntryLabelSelectsEntry)
{
    ProgramBuilder b(0x2000);
    b.nop();
    b.nop();
    auto entry = b.here("main");
    b.halt();
    Program p = b.build(entry);
    EXPECT_EQ(p.entry(), 0x2008u);
}

TEST(BuilderTest, LabelAddrQuery)
{
    ProgramBuilder b;
    b.nop();
    auto l = b.here("x");
    b.halt();
    EXPECT_EQ(b.labelAddr(l), 0x1004u);
}

TEST(BuilderTest, CallAndRetEncodeConventions)
{
    ProgramBuilder b;
    auto f = b.newLabel("f");
    b.call(f);
    b.halt();
    b.bind(f);
    b.ret();
    Program p = b.build();
    EXPECT_TRUE(p.instAt(0x1000).isCall());
    EXPECT_TRUE(p.instAt(0x1008).isReturn());
}

TEST(BuilderTest, StoreDataRegisterInRs2)
{
    ProgramBuilder b;
    b.sd(7, 28, 16);
    b.halt();
    Program p = b.build();
    const Instruction &store = p.instAt(0x1000);
    EXPECT_EQ(store.rs2, 7);
    EXPECT_EQ(store.rs1, 28);
    EXPECT_EQ(store.imm, 16);
}

TEST(BuilderTest, NextAddrTracksEmission)
{
    ProgramBuilder b(0x1000);
    EXPECT_EQ(b.nextAddr(), 0x1000u);
    b.nop();
    EXPECT_EQ(b.nextAddr(), 0x1004u);
    EXPECT_EQ(b.numInsts(), 1u);
}

// ---------------------------------------------------------------
// Disassembler.
// ---------------------------------------------------------------

TEST(DisasmTest, RendersCommonForms)
{
    Instruction add;
    add.op = Opcode::Add;
    add.rd = 1;
    add.rs1 = 2;
    add.rs2 = 3;
    EXPECT_EQ(disassemble(add, 0), "add   r1, r2, r3");

    Instruction ld;
    ld.op = Opcode::Ld;
    ld.rd = 4;
    ld.rs1 = 28;
    ld.imm = 8;
    EXPECT_EQ(disassemble(ld, 0), "ld    r4, 8(r28)");

    Instruction beq;
    beq.op = Opcode::Beq;
    beq.rs1 = 1;
    beq.rs2 = 0;
    beq.imm = 2;
    EXPECT_EQ(disassemble(beq, 0x1000), "beq   r1, r0, 0x100c");
}

TEST(DisasmTest, WholeProgramHasSymbolsAndAddresses)
{
    ProgramBuilder b;
    auto f = b.newLabel("func");
    b.call(f);
    b.halt();
    b.bind(f);
    b.ret();
    Program p = b.build();
    std::string text = disassemble(p);
    EXPECT_NE(text.find("func:"), std::string::npos);
    EXPECT_NE(text.find("00001000"), std::string::npos);
    EXPECT_NE(text.find("jalr"), std::string::npos);
}

} // namespace
} // namespace tpre

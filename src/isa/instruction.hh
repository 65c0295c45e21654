/**
 * @file
 * The tracepre ISA: a fixed-width 32-bit RISC instruction set with
 * exactly the control-flow constructs trace preconstruction cares
 * about (conditional branches, direct calls, indirect jumps and
 * returns). See DESIGN.md section 1 for why this substitutes for the
 * paper's SimpleScalar ISA.
 *
 * Encoding (32 bits):
 *   R-type:  op[31:26] rd[25:21] rs1[20:16] rs2[15:11] sh[10:0]
 *   I-type:  op[31:26] rd[25:21] rs1[20:16] imm16[15:0]
 *   B-type:  op[31:26] rs1[25:21] rs2[20:16] off16[15:0]
 *   J-type:  op[31:26] rd[25:21]  off21[20:0]
 * Branch and jump offsets are signed counts of 4-byte instructions
 * relative to the *next* instruction (PC + 4).
 */

#ifndef TPRE_ISA_INSTRUCTION_HH
#define TPRE_ISA_INSTRUCTION_HH

#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"

namespace tpre
{

/** Operation codes. Values are stable; they are the encoded opcode. */
enum class Opcode : std::uint8_t
{
    // ALU register-register
    Add, Sub, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu, Mul, Div,
    // ALU register-immediate
    Addi, Andi, Ori, Xori, Slli, Srli, Slti, Lui,
    // Memory (64-bit)
    Ld, Sd,
    // Conditional branches
    Beq, Bne, Blt, Bge,
    // Jumps: Jal = direct jump-and-link, Jalr = indirect
    Jal, Jalr,
    // Program end
    Halt,
    // Fused shift-add ALU op produced by trace preprocessing only:
    //   rd = (rs1 << sh1) + (rs2 << sh2) + imm
    // It has no binary encoding; it exists only inside traces.
    Fused,

    NumOpcodes
};

static_assert(static_cast<unsigned>(Opcode::NumOpcodes) <= 32,
              "opcode sets are 32-bit masks");

/** Bit of @p op in a 32-bit opcode set. */
constexpr std::uint32_t
opBit(Opcode op)
{
    return std::uint32_t{1} << static_cast<unsigned>(op);
}

/** Decoded instruction, the working representation everywhere. */
struct Instruction
{
    Opcode op = Opcode::Halt;
    RegIndex rd = 0;
    RegIndex rs1 = 0;
    RegIndex rs2 = 0;
    /**
     * Immediate operand. For branches and Jal it is the signed
     * offset in instructions relative to PC + 4.
     */
    std::int32_t imm = 0;
    /** Shift amounts for Opcode::Fused. */
    std::uint8_t sh1 = 0;
    std::uint8_t sh2 = 0;

    bool operator==(const Instruction &other) const = default;

    // The classification predicates below run for every simulated
    // instruction on every hot path (functional core, trace
    // selection, preconstruction path walking, trace preprocessing,
    // timing dispatch), tens of millions of calls per simulated
    // second — they are defined inline here rather than in
    // instruction.cc so they compile down to a compare or a mask
    // test at the call site.

    /** Conditional branch? */
    bool
    isCondBranch() const
    {
        return op >= Opcode::Beq && op <= Opcode::Bge;
    }

    /** Any control transfer (branch, Jal, Jalr, Halt)? */
    bool
    isControl() const
    {
        return isCondBranch() || op == Opcode::Jal ||
               op == Opcode::Jalr || op == Opcode::Halt;
    }

    /** Direct jump (Jal)? */
    bool isDirectJump() const { return op == Opcode::Jal; }

    /** Indirect jump (Jalr)? */
    bool isIndirectJump() const { return op == Opcode::Jalr; }

    /** Procedure call: a jump that writes the link register. */
    bool
    isCall() const
    {
        return (op == Opcode::Jal || op == Opcode::Jalr) &&
               rd == linkReg;
    }

    /** Procedure return: Jalr through the link register, no link. */
    bool
    isReturn() const
    {
        return op == Opcode::Jalr && rd == zeroReg &&
               rs1 == linkReg;
    }

    bool isLoad() const { return op == Opcode::Ld; }
    bool isStore() const { return op == Opcode::Sd; }

    /** Conditional branch with a negative offset (loop-closing). */
    bool
    isBackwardBranch() const
    {
        return isCondBranch() && imm < 0;
    }

    /** Taken target of a branch/Jal at address @p pc. */
    Addr
    targetOf(Addr pc) const
    {
        tpre_assert(isCondBranch() || op == Opcode::Jal);
        return pc + instBytes +
               static_cast<Addr>(static_cast<std::int64_t>(imm) *
                                 static_cast<std::int64_t>(instBytes));
    }

    /** Address of the sequentially next instruction. */
    static Addr fallThrough(Addr pc) { return pc + instBytes; }

    /** Does this instruction write @p rd (i.e. rd != r0 and writes)? */
    bool
    writesReg() const
    {
        constexpr std::uint32_t noDest =
            opBit(Opcode::Sd) | opBit(Opcode::Beq) |
            opBit(Opcode::Bne) | opBit(Opcode::Blt) |
            opBit(Opcode::Bge) | opBit(Opcode::Halt);
        return rd != zeroReg && !(opBit(op) & noDest);
    }

    /** Does the instruction read rs2 as a register operand? */
    bool
    readsRs2() const
    {
        // Every R-type ALU op (Add..Div), the branches, Sd, Fused.
        constexpr std::uint32_t rType =
            (opBit(Opcode::Div) << 1) - opBit(Opcode::Add);
        constexpr std::uint32_t readers =
            rType | opBit(Opcode::Beq) | opBit(Opcode::Bne) |
            opBit(Opcode::Blt) | opBit(Opcode::Bge) |
            opBit(Opcode::Sd) | opBit(Opcode::Fused);
        return opBit(op) & readers;
    }

    /** Number of register sources actually read (0-2). */
    unsigned
    numSources() const
    {
        constexpr std::uint32_t sourceless =
            opBit(Opcode::Lui) | opBit(Opcode::Jal) |
            opBit(Opcode::Halt);
        if (opBit(op) & sourceless)
            return 0;
        return readsRs2() ? 2 : 1;
    }
};

/** Encode a decoded instruction into its 32-bit word. */
InstWord encode(const Instruction &inst);

/** Decode a 32-bit word. Unknown opcodes decode to Halt with a warn. */
Instruction decode(InstWord word);

/** Human-readable opcode mnemonic. */
const char *opcodeName(Opcode op);

} // namespace tpre

#endif // TPRE_ISA_INSTRUCTION_HH

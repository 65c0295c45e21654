#include "prep/const_prop.hh"

#include <array>
#include <optional>

#include "func/core.hh"

namespace tpre
{

namespace
{

/** Evaluate a pure ALU op whose inputs are known constants. */
std::optional<RegValue>
evalConst(const Instruction &inst, RegValue a, RegValue b)
{
    // Reuse the canonical executor on a scratch state so constant
    // folding can never disagree with the ISA semantics. The state
    // is built once per thread (a new Memory allocates); stale
    // registers are harmless because these ops read only rs1/rs2,
    // which are set first, and never touch memory.
    thread_local ArchState state;
    switch (inst.op) {
      case Opcode::Add: case Opcode::Sub: case Opcode::And:
      case Opcode::Or: case Opcode::Xor: case Opcode::Sll:
      case Opcode::Srl: case Opcode::Sra: case Opcode::Slt:
      case Opcode::Sltu: case Opcode::Mul: case Opcode::Div:
      case Opcode::Addi: case Opcode::Andi: case Opcode::Ori:
      case Opcode::Xori: case Opcode::Slli: case Opcode::Srli:
      case Opcode::Slti: case Opcode::Lui: case Opcode::Fused: {
        state.setReg(inst.rs1, a);
        if (inst.rs2 != inst.rs1)
            state.setReg(inst.rs2, b);
        executeInst(inst, 0, state);
        return state.reg(inst.rd);
      }
      default:
        return std::nullopt;
    }
}

} // namespace

unsigned
constantPropagate(Trace &trace)
{
    std::array<std::optional<RegValue>, numArchRegs> known;
    known[zeroReg] = 0;

    unsigned rewritten = 0;
    for (TraceInst &ti : trace.insts) {
        Instruction &inst = ti.inst;

        const bool src1_known =
            inst.numSources() < 1 || known[inst.rs1].has_value();
        const bool src2_known =
            !inst.readsRs2() || known[inst.rs2].has_value();

        std::optional<RegValue> value;
        if (src1_known && src2_known && inst.writesReg()) {
            value = evalConst(
                inst,
                inst.numSources() >= 1 ? known[inst.rs1].value_or(0)
                                       : 0,
                inst.readsRs2() ? known[inst.rs2].value_or(0) : 0);
        }

        if (inst.writesReg())
            known[inst.rd] = value;

        if (!value)
            continue;

        // Rewrite as a load-immediate when the constant fits and
        // the instruction is not already source-free.
        const auto sval = static_cast<std::int64_t>(*value);
        const bool fits = sval >= -32768 && sval <= 32767;
        const bool already_free =
            inst.op == Opcode::Addi && inst.rs1 == zeroReg;
        if (fits && !already_free) {
            Instruction imm;
            imm.op = Opcode::Addi;
            imm.rd = inst.rd;
            imm.rs1 = zeroReg;
            imm.imm = static_cast<std::int32_t>(sval);
            inst = imm;
            ++rewritten;
        }
    }
    return rewritten;
}

} // namespace tpre

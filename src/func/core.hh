/**
 * @file
 * Functional (architectural) simulation: register state, a
 * single-instruction executor shared with the preprocessing
 * equivalence tests, and FunctionalCore, which produces the dynamic
 * instruction stream that drives every timing model.
 */

#ifndef TPRE_FUNC_CORE_HH
#define TPRE_FUNC_CORE_HH

#include <array>

#include "common/logging.hh"
#include "func/memory.hh"
#include "isa/program.hh"

namespace tpre
{

/**
 * Architectural register file plus data memory. regs[zeroReg] is 0
 * at all times: setReg() stores unconditionally and then re-zeroes
 * r0, so neither accessor branches on the register index.
 */
struct ArchState
{
    std::array<RegValue, numArchRegs> regs = {};
    Memory mem;

    RegValue reg(RegIndex index) const { return regs[index]; }

    void
    setReg(RegIndex index, RegValue value)
    {
        regs[index] = value;
        regs[zeroReg] = 0;
    }
};

/** Outcome of executing one instruction. */
struct ExecResult
{
    /** Address of the next instruction to execute. */
    Addr nextPc = 0;
    /** For conditional branches: was the branch taken? */
    bool taken = false;
    /** For loads/stores: the effective address. */
    Addr effAddr = 0;
    /** Did the instruction halt the machine? */
    bool halted = false;
};

/**
 * Execute one decoded instruction against @p state. This is the
 * single source of truth for ISA semantics; FunctionalCore and the
 * trace-equivalence property tests both use it. Forced inline: it
 * runs once per simulated instruction, and left to itself the
 * compiler calls it out of line from FunctionalCore's loops and
 * returns the ExecResult through memory. Inlined, each loop keeps
 * the state pointer and PC in registers across the dispatch switch
 * and drops the result fields it never reads.
 */
[[gnu::always_inline]] inline ExecResult
executeInst(const Instruction &inst, Addr pc, ArchState &state)
{
    ExecResult res;
    res.nextPc = Instruction::fallThrough(pc);

    const RegValue a = state.reg(inst.rs1);
    const RegValue b = state.reg(inst.rs2);
    const auto sa = static_cast<std::int64_t>(a);
    const auto sb = static_cast<std::int64_t>(b);
    const auto imm64 =
        static_cast<RegValue>(static_cast<std::int64_t>(inst.imm));

    switch (inst.op) {
      case Opcode::Add: state.setReg(inst.rd, a + b); break;
      case Opcode::Sub: state.setReg(inst.rd, a - b); break;
      case Opcode::And: state.setReg(inst.rd, a & b); break;
      case Opcode::Or: state.setReg(inst.rd, a | b); break;
      case Opcode::Xor: state.setReg(inst.rd, a ^ b); break;
      case Opcode::Sll: state.setReg(inst.rd, a << (b & 63)); break;
      case Opcode::Srl: state.setReg(inst.rd, a >> (b & 63)); break;
      case Opcode::Sra:
        state.setReg(inst.rd,
                     static_cast<RegValue>(sa >> (b & 63)));
        break;
      case Opcode::Slt: state.setReg(inst.rd, sa < sb ? 1 : 0); break;
      case Opcode::Sltu: state.setReg(inst.rd, a < b ? 1 : 0); break;
      case Opcode::Mul: state.setReg(inst.rd, a * b); break;
      case Opcode::Div:
        state.setReg(inst.rd,
                     b == 0 ? ~RegValue(0)
                            : static_cast<RegValue>(sa / sb));
        break;

      case Opcode::Addi: state.setReg(inst.rd, a + imm64); break;
      // Logical immediates zero-extend (MIPS-style) so lui+ori can
      // synthesize full addresses.
      case Opcode::Andi:
        state.setReg(inst.rd,
                     a & static_cast<std::uint16_t>(inst.imm));
        break;
      case Opcode::Ori:
        state.setReg(inst.rd,
                     a | static_cast<std::uint16_t>(inst.imm));
        break;
      case Opcode::Xori:
        state.setReg(inst.rd,
                     a ^ static_cast<std::uint16_t>(inst.imm));
        break;
      case Opcode::Slli:
        state.setReg(inst.rd, a << (inst.imm & 63));
        break;
      case Opcode::Srli:
        state.setReg(inst.rd, a >> (inst.imm & 63));
        break;
      case Opcode::Slti: state.setReg(inst.rd, sa < inst.imm ? 1 : 0);
        break;
      case Opcode::Lui:
        state.setReg(inst.rd, imm64 << 16);
        break;

      case Opcode::Ld:
        res.effAddr = a + imm64;
        state.setReg(inst.rd, state.mem.read(res.effAddr));
        break;
      case Opcode::Sd:
        res.effAddr = a + imm64;
        state.mem.write(res.effAddr, b);
        break;

      case Opcode::Beq:
        res.taken = a == b;
        if (res.taken)
            res.nextPc = inst.targetOf(pc);
        break;
      case Opcode::Bne:
        res.taken = a != b;
        if (res.taken)
            res.nextPc = inst.targetOf(pc);
        break;
      case Opcode::Blt:
        res.taken = sa < sb;
        if (res.taken)
            res.nextPc = inst.targetOf(pc);
        break;
      case Opcode::Bge:
        res.taken = sa >= sb;
        if (res.taken)
            res.nextPc = inst.targetOf(pc);
        break;

      case Opcode::Jal:
        state.setReg(inst.rd, Instruction::fallThrough(pc));
        res.nextPc = inst.targetOf(pc);
        res.taken = true;
        break;
      case Opcode::Jalr: {
        // Read the target before writing the link register so that
        // "jalr ra, ra" behaves sensibly.
        const Addr target = (a + imm64) & ~static_cast<Addr>(3);
        state.setReg(inst.rd, Instruction::fallThrough(pc));
        res.nextPc = target;
        res.taken = true;
        break;
      }

      case Opcode::Halt:
        res.halted = true;
        res.nextPc = pc;
        break;

      case Opcode::Fused: {
        const RegValue value = (a << inst.sh1) + (b << inst.sh2) +
                               imm64;
        state.setReg(inst.rd, value);
        break;
      }

      default:
        panic("executeInst: unhandled opcode %u",
              static_cast<unsigned>(inst.op));
    }

    return res;
}

/** One entry of the dynamic instruction stream. */
struct DynInst
{
    Addr pc = 0;
    Instruction inst;
    Addr nextPc = 0;
    bool taken = false;
    Addr effAddr = 0;
};

/**
 * Abstract producer of a recorded committed instruction stream, the
 * contract between FastSim::replay() and trace-file decoders
 * (tracefmt::TptReader). next() yields instructions in commit order
 * and returns false at end of stream.
 */
class DynInstSource
{
  public:
    virtual ~DynInstSource() = default;
    virtual bool next(DynInst &out) = 0;
};

/**
 * Functional core: steps a Program one instruction at a time and
 * exposes the dynamic stream consumed by the timing simulators.
 */
class FunctionalCore
{
  public:
    /** Initial stack pointer handed to programs on reset. */
    static constexpr Addr initialStack = 0x8000'0000;

    explicit FunctionalCore(const Program &program);

    /** Restart execution from the program entry with cleared state. */
    void reset();

    /** Checkpoint the architectural state and the run cursor. */
    void save(mem::ByteWriter &w) const;
    void restore(mem::ByteReader &r);

    /**
     * Execute one instruction and return its dynamic record. Must
     * not be called once halted() is true. Inline: this is the top
     * of every simulated-instruction loop.
     */
    [[gnu::always_inline]] DynInst
    step()
    {
        tpre_assert(!halted_, "step() after halt");

        const Instruction &inst = program_.instAt(pc_);
        const ExecResult res = executeInst(inst, pc_, state_);
        const DynInst dyn{pc_, inst, res.nextPc, res.taken, res.effAddr};

        halted_ = res.halted;
        pc_ = res.nextPc;
        ++instCount_;
        return dyn;
    }

    /**
     * Block-granular entry point (DESIGN.md section 14): execute
     * @p n straight-line non-control instructions starting at the
     * current PC. @p insts must be the pre-decoded image of those
     * instructions (a DecodedBlock body — see func/block_cache.hh),
     * i.e. insts[i] is the instruction at pc() + 4*i. Equivalent to
     * n step() calls, minus the per-instruction fetch-index math
     * and dynamic-record copies: non-control instructions cannot
     * halt, redirect the PC, or carry a taken outcome, so only the
     * architectural state and the PC/instruction counters change.
     */
    [[gnu::always_inline]] void
    execBody(const Instruction *insts, unsigned n)
    {
        runBody<false>(insts, n, nullptr);
    }

    /**
     * execBody() that also writes the n dynamic records step()
     * would have returned to @p out: {pc, inst, pc + 4, not taken,
     * effective address}.
     */
    [[gnu::always_inline]] void
    execBody(const Instruction *insts, unsigned n, DynInst *out)
    {
        runBody<true>(insts, n, out);
    }

    bool halted() const { return halted_; }
    Addr pc() const { return pc_; }
    InstCount instsExecuted() const { return instCount_; }

    ArchState &state() { return state_; }
    const ArchState &state() const { return state_; }
    const Program &program() const { return program_; }

  private:
    template <bool Record>
    [[gnu::always_inline]] void
    runBody(const Instruction *insts, unsigned n, DynInst *out)
    {
        tpre_assert(!halted_, "execBody() after halt");
        Addr pc = pc_;
        for (unsigned i = 0; i < n; ++i) {
            tpre_assert(!insts[i].isControl(),
                        "execBody() on a control transfer");
            const ExecResult res = executeInst(insts[i], pc, state_);
            if constexpr (Record)
                out[i] = {pc, insts[i], res.nextPc, false, res.effAddr};
            pc += instBytes;
        }
        pc_ = pc;
        instCount_ += n;
    }

    const Program &program_;
    ArchState state_;
    Addr pc_;
    bool halted_ = false;
    InstCount instCount_ = 0;
};

} // namespace tpre

#endif // TPRE_FUNC_CORE_HH

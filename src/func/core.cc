#include "func/core.hh"

#include "common/logging.hh"

namespace tpre
{

FunctionalCore::FunctionalCore(const Program &program)
    : program_(program)
{
    reset();
}

void
FunctionalCore::save(mem::ByteWriter &w) const
{
    w.putBytes(state_.regs.data(),
               state_.regs.size() * sizeof(RegValue));
    state_.mem.save(w);
    w.put(pc_);
    w.put(halted_);
    w.put(instCount_);
}

void
FunctionalCore::restore(mem::ByteReader &r)
{
    r.getBytes(state_.regs.data(),
               state_.regs.size() * sizeof(RegValue));
    // ArchState::reg() reads r0 as a plain load, so a checkpoint
    // whose r0 word is not 0 would make every later read of it lie.
    if (state_.regs[zeroReg] != 0) {
        fatal("FunctionalCore::restore: checkpoint register r0 holds "
              "%#llx, not 0",
              static_cast<unsigned long long>(state_.regs[zeroReg]));
    }
    state_.mem.restore(r);
    pc_ = r.get<Addr>();
    halted_ = r.get<bool>();
    instCount_ = r.get<InstCount>();
}

void
FunctionalCore::reset()
{
    state_.regs.fill(0);
    state_.mem.clear();
    state_.setReg(stackReg, initialStack);
    pc_ = program_.entry();
    halted_ = false;
    instCount_ = 0;
}

} // namespace tpre

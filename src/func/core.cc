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
    w.put(last_);
}

void
FunctionalCore::restore(mem::ByteReader &r)
{
    r.getBytes(state_.regs.data(),
               state_.regs.size() * sizeof(RegValue));
    state_.mem.restore(r);
    pc_ = r.get<Addr>();
    halted_ = r.get<bool>();
    instCount_ = r.get<InstCount>();
    last_ = r.get<DynInst>();
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

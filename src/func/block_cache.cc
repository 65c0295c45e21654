#include "func/block_cache.hh"

#include "common/logging.hh"

namespace tpre
{

const DecodedBlock &
BlockCache::decodeBlock(Addr leader)
{
    // instAt() asserts the leader is inside the image, exactly as
    // the scalar core's fetch would have.
    DecodedBlock block;
    block.leader = leader;
    block.insts = &program_->instAt(leader);

    Addr pc = leader;
    while (block.bodyLen < kMaxBlockLen) {
        const Instruction &inst = block.insts[block.bodyLen];
        if (inst.isControl()) {
            if (inst.isReturn()) {
                block.end = BlockEnd::Return;
            } else if (inst.isIndirectJump()) {
                block.end = BlockEnd::IndirectJump;
            } else if (inst.isDirectJump()) {
                block.end = BlockEnd::DirectJump;
                block.target = inst.targetOf(pc);
            } else if (inst.op == Opcode::Halt) {
                block.end = BlockEnd::Halt;
            } else {
                block.end = BlockEnd::CondBranch;
                block.target = inst.targetOf(pc);
                block.fallThrough = Instruction::fallThrough(pc);
            }
            break;
        }
        ++block.bodyLen;
        pc = Instruction::fallThrough(pc);
        // Clip at the image edge: the next lookup's instAt() will
        // then fault exactly where scalar fetch would have.
        if (!program_->contains(pc)) {
            block.end = BlockEnd::Clipped;
            block.fallThrough = pc;
            break;
        }
    }
    if (block.bodyLen == kMaxBlockLen && block.end == BlockEnd::Clipped)
        block.fallThrough = pc;

    if (table_.empty())
        table_.resize(program_->numInsts());
    pool_.push_back(block);
    table_[(leader - program_->base()) / instBytes] = &pool_.back();
    ++stats_.decoded;
    return pool_.back();
}

void
BlockCache::invalidate()
{
    pool_.clear();
    table_.clear();
    ++stats_.invalidations;
}

void
BlockCache::rebind(const Program &program)
{
    invalidate();
    program_ = &program;
}

} // namespace tpre

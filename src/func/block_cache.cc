#include "func/block_cache.hh"

#include "common/logging.hh"
#include "common/parse.hh"
#include "common/random.hh"

namespace tpre
{

bool
blockCacheDefaultEnabled()
{
    return parseFlag("TPRE_BLOCK_CACHE", true);
}

namespace
{

/** Slot index a leader PC hashes to under @p mask. */
inline std::size_t
slotHash(Addr leader, std::size_t mask)
{
    return static_cast<std::size_t>(mix64(leader)) & mask;
}

} // namespace

DecodedBlock *
BlockCache::find(Addr leader)
{
    if (slots_.empty())
        return nullptr;
    std::size_t i = slotHash(leader, slotMask_);
    while (true) {
        Slot &slot = slots_[i];
        if (slot.leader == leader)
            return slot.block;
        if (slot.leader == kEmptySlot)
            return nullptr;
        i = (i + 1) & slotMask_;
    }
}

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

    pool_.push_back(block);
    insert(leader, &pool_.back());
    ++stats_.decoded;
    return pool_.back();
}

void
BlockCache::insert(Addr leader, DecodedBlock *block)
{
    if (slots_.empty())
        rehash(initialSlots);
    // Grow at ~70% occupancy so probe chains stay short; slots hold
    // block *pointers*, so rehashing never moves block data.
    if (pool_.size() * 10 > slots_.size() * 7)
        rehash(slots_.size() * 2);
    std::size_t i = slotHash(leader, slotMask_);
    while (slots_[i].leader != kEmptySlot) {
        tpre_assert(slots_[i].leader != leader,
                    "block decoded twice for one leader");
        i = (i + 1) & slotMask_;
    }
    slots_[i] = {leader, block};
}

void
BlockCache::rehash(std::size_t newCapacity)
{
    tpre_assert((newCapacity & (newCapacity - 1)) == 0,
                "block table capacity must be a power of two");
    std::vector<Slot> fresh(newCapacity);
    const std::size_t mask = newCapacity - 1;
    for (const Slot &slot : slots_) {
        if (slot.leader == kEmptySlot)
            continue;
        std::size_t i = slotHash(slot.leader, mask);
        while (fresh[i].leader != kEmptySlot)
            i = (i + 1) & mask;
        fresh[i] = slot;
    }
    slots_ = std::move(fresh);
    slotMask_ = mask;
}

void
BlockCache::invalidate()
{
    pool_.clear();
    slots_.clear();
    slotMask_ = 0;
    ++stats_.invalidations;
}

void
BlockCache::rebind(const Program &program)
{
    invalidate();
    program_ = &program;
}

} // namespace tpre

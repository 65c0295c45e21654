/**
 * @file
 * Predecoded basic-block cache (DESIGN.md section 14). The
 * functional core's per-instruction loop pays fetch-index math,
 * bounds asserts and trace-selection rule checks for every
 * instruction even though control only transfers at branch points.
 * BlockCache memoizes, per leader PC, the straight-line run up to
 * and including the next control transfer: a dense DecodedBlock
 * pointing straight into the Program's pre-decoded image, with the
 * terminator kind and its taken/fall-through targets resolved once
 * at decode time. FastSim uses it to retire whole blocks in bulk
 * (see tproc/fast_sim.cc).
 *
 * The map is a flat table with one slot per instruction of the
 * image, indexed by (leader - base) / 4, so a lookup is one bounds
 * check and one load. Block storage is a deque so growth never
 * moves a block a caller still holds.
 *
 * Blocks borrow their instruction pointer from the bound Program,
 * so any image change (reload, self-modifying rebuild) must
 * invalidate() or rebind() before the next lookup — stale blocks
 * would silently execute the old image.
 */

#ifndef TPRE_FUNC_BLOCK_CACHE_HH
#define TPRE_FUNC_BLOCK_CACHE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "isa/program.hh"

namespace tpre
{

/** How a decoded block ends. */
enum class BlockEnd : std::uint8_t
{
    CondBranch,     ///< conditional branch (Beq/Bne/Blt/Bge)
    DirectJump,     ///< Jal (target known statically)
    IndirectJump,   ///< Jalr that is not a return (dynamic target)
    Return,         ///< Jalr through the link register
    Halt,           ///< program end
    Clipped,        ///< hit kMaxBlockLen or the image edge first
};

/**
 * One predecoded basic block: @p bodyLen straight-line non-control
 * instructions starting at @p leader, then (unless Clipped) one
 * control-transfer terminator. @p insts aims into the owning
 * Program's contiguous decoded image, so insts[i] is the
 * instruction at leader + 4*i with no per-instruction index math.
 */
struct DecodedBlock
{
    Addr leader = invalidAddr;
    const Instruction *insts = nullptr;
    /** Leading non-control instructions (may be 0). */
    std::uint32_t bodyLen = 0;
    BlockEnd end = BlockEnd::Clipped;
    /** Taken target for CondBranch/DirectJump ends. */
    Addr target = invalidAddr;
    /**
     * PC after the block along the not-taken path: past the
     * terminator for CondBranch, past the body for Clipped;
     * invalidAddr when the end never falls through.
     */
    Addr fallThrough = invalidAddr;

    /** Total instructions including the terminator. */
    unsigned
    len() const
    {
        return bodyLen + (end != BlockEnd::Clipped ? 1 : 0);
    }

    /** PC of the terminator (end != Clipped only). */
    Addr
    terminatorPc() const
    {
        return leader + static_cast<Addr>(bodyLen) * instBytes;
    }
};

/**
 * Process-wide default for the block-dispatch knob: TPRE_BLOCK_CACHE
 * must be exactly "0" (off) or "1" (on); unset means on. Anything
 * else is fatal() — a typo must not silently pick a dispatch mode.
 */
bool blockCacheDefaultEnabled();

/** Leader-PC-indexed cache of decoded basic blocks. */
class BlockCache
{
  public:
    /**
     * Body-length clip. Bounds decode cost per lookup and keeps a
     * pathological branch-free image from decoding forever; a
     * Clipped block simply chains into the block at its
     * fallThrough.
     */
    static constexpr std::uint32_t kMaxBlockLen = 64;

    struct Stats
    {
        /** Blocks decoded (first execution of a leader). */
        std::uint64_t decoded = 0;
        /** Lookups served from the cache. */
        std::uint64_t hits = 0;
        /** invalidate()/rebind() calls (image changes). */
        std::uint64_t invalidations = 0;
    };

    explicit BlockCache(const Program &program) : program_(&program) {}

    BlockCache(const BlockCache &) = delete;
    BlockCache &operator=(const BlockCache &) = delete;

    /**
     * The decoded block starting at @p leader; decodes and caches
     * it on first use. The reference is stable until the next
     * invalidate()/rebind(). @p leader must be a valid instruction
     * address of the bound program.
     */
    const DecodedBlock &
    lookup(Addr leader)
    {
        // A leader below the image base wraps to a huge index, so
        // the one bounds check also sends it to decodeBlock(), whose
        // fetch faults exactly as the scalar core's would. Leaders
        // are 4-byte aligned by construction (jalr clears the low
        // bits), so the division never folds two leaders together.
        const Addr index = (leader - program_->base()) / instBytes;
        if (index < table_.size()) {
            if (DecodedBlock *block = table_[index]) {
                ++stats_.hits;
                return *block;
            }
        }
        return decodeBlock(leader);
    }

    /** Drop every cached block (the code image changed). */
    void invalidate();

    /** Invalidate and bind to a (possibly reloaded) image. */
    void rebind(const Program &program);

    const Program &program() const { return *program_; }
    std::size_t size() const { return pool_.size(); }
    const Stats &stats() const { return stats_; }

  private:
    const DecodedBlock &decodeBlock(Addr leader);

    const Program *program_;
    /** Block storage; deque keeps addresses stable on growth. */
    std::deque<DecodedBlock> pool_;
    /**
     * Leader table: slot i holds the block whose leader is the
     * image's i-th instruction, or null. Sized to the image on
     * first decode.
     */
    std::vector<DecodedBlock *> table_;
    Stats stats_;
};

} // namespace tpre

#endif // TPRE_FUNC_BLOCK_CACHE_HH

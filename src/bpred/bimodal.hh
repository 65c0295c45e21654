/**
 * @file
 * BimodalPredictor: table of 2-bit saturating counters indexed by
 * branch address (J. E. Smith, ISCA'81). It serves double duty in
 * this system: the slow path uses it to predict conditional
 * branches, and the preconstruction constructors consult the same
 * counters to follow highly-biased branches only through their
 * dominant direction (Section 2.1).
 */

#ifndef TPRE_BPRED_BIMODAL_HH
#define TPRE_BPRED_BIMODAL_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/checkpoint.hh"

namespace tpre
{

/** Bias classification used by the preconstruction path pruner. */
struct BranchBias
{
    /** Counter is saturated (0 or 3): strongly biased. */
    bool strong = false;
    /** Predicted/dominant direction. */
    bool taken = false;
};

/** 2-bit saturating counter table indexed by branch PC. */
class BimodalPredictor
{
  public:
    /** @param entries Table size; must be a power of two. */
    explicit BimodalPredictor(std::size_t entries = 16 * 1024);

    // Predict, train and classify are all single table reads;
    // inline so the per-branch hot paths (slow-path training,
    // constructor path pruning) pay an index computation, not a
    // call.

    /** Predict the direction of the branch at @p pc. */
    bool predict(Addr pc) const { return table_[indexOf(pc)] >= 2; }

    /** Train with the resolved outcome. */
    void
    update(Addr pc, bool taken)
    {
        std::uint8_t &counter = table_[indexOf(pc)];
        if (taken) {
            if (counter < 3)
                ++counter;
        } else {
            if (counter > 0)
                --counter;
        }
    }

    /** Raw counter value (0-3) for the branch at @p pc. */
    std::uint8_t counter(Addr pc) const
    { return table_[indexOf(pc)]; }

    /** Bias classification for preconstruction path pruning. */
    BranchBias
    bias(Addr pc) const
    {
        const std::uint8_t counter = table_[indexOf(pc)];
        BranchBias result;
        result.strong = counter == 0 || counter == 3;
        result.taken = counter >= 2;
        return result;
    }

    std::size_t entries() const { return table_.size(); }

    void clear();

    /** Checkpoint/restore the counter table. */
    void save(mem::ByteWriter &w) const;
    void restore(mem::ByteReader &r);

  private:
    std::size_t
    indexOf(Addr pc) const
    {
        return static_cast<std::size_t>(pc / instBytes) & mask_;
    }

    std::vector<std::uint8_t> table_;
    std::size_t mask_;
};

} // namespace tpre

#endif // TPRE_BPRED_BIMODAL_HH

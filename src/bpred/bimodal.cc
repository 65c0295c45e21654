#include "bpred/bimodal.hh"

#include "common/logging.hh"

namespace tpre
{

BimodalPredictor::BimodalPredictor(std::size_t entries)
    : table_(entries, 2),
      mask_(entries - 1)
{
    tpre_assert(entries > 0 && (entries & (entries - 1)) == 0,
                "table size must be a power of two");
}

void
BimodalPredictor::clear()
{
    for (auto &counter : table_)
        counter = 2;
}

void
BimodalPredictor::save(mem::ByteWriter &w) const
{
    w.put<std::uint64_t>(table_.size());
    w.putArray(table_.data(), table_.size());
}

void
BimodalPredictor::restore(mem::ByteReader &r)
{
    const auto n = r.get<std::uint64_t>();
    if (n != table_.size()) {
        fatal("BimodalPredictor::restore: table size %llu does not "
              "match the configured %zu",
              static_cast<unsigned long long>(n), table_.size());
    }
    r.getArray(table_.data(), table_.size());
}

} // namespace tpre

/**
 * @file
 * Relocatable checkpoints (DESIGN.md section 15). A Checkpoint is a
 * flat byte buffer holding a simulator's state with no absolute
 * pointers: POD fields and bulk arrays are memcpy'd in a fixed
 * order, and the one cross-object reference in the state (a
 * preconstruction constructor's region binding) travels as an index
 * that restore resolves back to a pointer. The buffer can be copied
 * between threads or processes and restored into any freshly
 * constructed simulator whose configuration signature matches.
 *
 * Two kinds:
 *
 *  - Full: everything the fast simulator owns. Restore continues
 *    the run bit-identically — the basis of the `checkpoint`
 *    diffModels category and of sampled simulation.
 *
 *  - Functional: the config-invariant warm subset (architectural
 *    core, memory image, segmenter, window, bimodal counters) —
 *    functions of the committed stream and the selection policy
 *    only. One Functional checkpoint taken after warm-up is valid
 *    for every row of a frontend-shape sweep; forked rows start
 *    with zeroed statistics and cold caches (SMARTS-style
 *    warm-up sharing).
 *
 * ByteWriter/ByteReader are the little-endian-of-the-host codec
 * both kinds use; a truncated or oversized payload at restore time
 * is a fatal error, as is a signature mismatch.
 */

#ifndef TPRE_MEM_CHECKPOINT_HH
#define TPRE_MEM_CHECKPOINT_HH

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

namespace tpre::mem
{

class ByteWriter
{
  public:
    template <typename T>
    void
    put(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "checkpoint fields must be trivially copyable");
        putBytes(&value, sizeof(T));
    }

    void
    putBytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + n);
    }

    std::size_t size() const { return buf_.size(); }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
};

class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}
    explicit ByteReader(const std::vector<std::uint8_t> &bytes)
        : ByteReader(bytes.data(), bytes.size())
    {}

    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "checkpoint fields must be trivially copyable");
        T value;
        getBytes(&value, sizeof(T));
        return value;
    }

    void
    getBytes(void *out, std::size_t n)
    {
        if (n > size_ - pos_) {
            fatal("mem::Checkpoint: truncated payload (%zu bytes "
                  "requested at offset %zu of %zu)",
                  n, pos_, size_);
        }
        // memcpy's pointers must be valid even for n == 0, and an
        // empty vector's data() may be null.
        if (n == 0)
            return;
        std::memcpy(out, data_ + pos_, n);
        pos_ += n;
    }

    std::size_t remaining() const { return size_ - pos_; }

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

enum class CheckpointKind : std::uint8_t
{
    Full = 0,
    Functional = 1,
};

struct Checkpoint
{
    static constexpr std::uint32_t kMagic = 0x54504331; // "TPC1"
    static constexpr std::uint16_t kVersion = 2;

    CheckpointKind kind = CheckpointKind::Full;
    /**
     * Signature of the producing simulator's configuration. For a
     * Full checkpoint it covers every behavior-affecting knob; for
     * a Functional checkpoint only the stream-and-selection subset
     * the warm state depends on. Restore refuses a mismatch.
     */
    std::uint64_t configSig = 0;
    std::vector<std::uint8_t> bytes;

    /** Flatten header + payload into one relocatable buffer. */
    std::vector<std::uint8_t> serialize() const;
    /** Inverse of serialize(); fatal on a malformed buffer. */
    static Checkpoint deserialize(
        const std::vector<std::uint8_t> &buffer);
};

} // namespace tpre::mem

#endif // TPRE_MEM_CHECKPOINT_HH

/**
 * @file
 * TptReader: the `.tpt` decoder. Parses the header and the embedded
 * program section eagerly (so ok() reflects file integrity before
 * any replay starts), then reconstructs the dynamic instruction
 * stream record by record: the decoder walks the static code image
 * from the Sync PC, consuming a TNT bit at each conditional branch
 * and an IndirectTarget record at each Jalr, and re-derives every
 * other DynInst field (fall-throughs, direct-jump targets, taken
 * flags, halt) from the instructions themselves. With the EffAddr
 * flag set, load/store effective addresses are restored too, making
 * decode(encode(stream)) bit-identical to the original stream.
 *
 * Hostile input is a first-class concern: bad magic, a future
 * version, unknown flags, truncation anywhere, chunk CRC mismatch,
 * record desync, or control flow leaving the embedded image all
 * produce a clean error() string — never UB, never a crash.
 */

#ifndef TPRE_TRACEFMT_READER_HH
#define TPRE_TRACEFMT_READER_HH

#include <optional>
#include <string>

#include "func/core.hh"
#include "isa/program.hh"
#include "tracefmt/tpt.hh"

namespace tpre::tracefmt
{

/** Streaming `.tpt` decoder; FastSim::replay() reads it directly. */
class TptReader : public DynInstSource
{
  public:
    /** Parse @p bytes (the whole file image). Check ok() after. */
    explicit TptReader(std::string bytes);

    /** Convenience: read @p path and parse it. */
    static TptReader fromFile(const std::string &path);

    /** Header and program parsed cleanly and no record error yet. */
    bool ok() const { return error_.empty(); }

    /** Human-readable description of the first error ("" if none). */
    const std::string &error() const { return error_; }

    const TptHeader &header() const { return header_; }
    const TptMeta &meta() const { return meta_; }

    /** The embedded code image. Only valid when ok(). */
    const Program &program() const { return *program_; }

    /**
     * Decode the next dynamic instruction into @p out. Returns
     * false at the clean end of the stream *or* on a decode error —
     * distinguish with ok(). After a clean end, done() is true.
     */
    bool next(DynInst &out) override;

    /** Dynamic instructions decoded so far. */
    InstCount decoded() const { return decoded_; }

    /** All dynCount instructions decoded without error. */
    bool
    done() const
    {
        return ok() && decoded_ == header_.dynCount;
    }

    /** Size of the parsed file image in bytes. */
    std::size_t fileBytes() const { return bytes_.size(); }

    /** Record counts, for `tpt stats` and compression reporting. */
    struct RecordCounts
    {
        std::uint64_t sync = 0;
        std::uint64_t tnt = 0;
        std::uint64_t tntBits = 0;
        std::uint64_t indirect = 0;
        std::uint64_t effAddr = 0;
        std::uint64_t chunks = 0;
    };

    const RecordCounts &recordCounts() const { return counts_; }

  private:
    void parseHeader();
    bool fail(const std::string &why);
    /** Load the next chunk's payload; false at end or error. */
    bool openChunk();
    /** Read one record tag's worth of state from the payload. */
    bool readRecord();
    bool nextTntBit(bool &taken);
    bool nextIndirectTarget(Addr &target);
    bool nextEffAddr(Addr &ea);

    std::string bytes_;
    std::string error_;
    TptHeader header_;
    TptMeta meta_;
    std::optional<Program> program_;

    /** Byte cursor of the next chunk frame in bytes_. */
    std::size_t chunkCursor_ = 0;
    /** Current chunk payload bounds and cursor. */
    std::size_t payloadPos_ = 0;
    std::size_t payloadEnd_ = 0;
    /** Instructions the open chunk claims to cover / has yielded. */
    std::uint32_t chunkInstsLeft_ = 0;

    /** Decoder walk state. */
    Addr pc_ = 0;
    InstCount decoded_ = 0;
    bool halted_ = false;

    /** Pending TNT bits from the last TNT record. */
    std::uint64_t tntBits_ = 0;
    unsigned tntLeft_ = 0;
    /** Delta bases, reset at each Sync. */
    Addr lastTarget_ = 0;
    Addr lastEffAddr_ = 0;
    /** Pending decoded indirect target / effective address. */
    std::optional<Addr> pendingTarget_;
    std::optional<Addr> pendingEffAddr_;

    RecordCounts counts_;
};

} // namespace tpre::tracefmt

#endif // TPRE_TRACEFMT_READER_HH

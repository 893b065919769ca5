/**
 * @file
 * Serve-session journal: the record/replay half of the differential
 * harness.
 *
 * The serve loop appends every event it processes — tenant joins and
 * leaves as well as each access — in processing order, preceded by a
 * self-contained header carrying the full simulation configuration.
 * `vsim --replay <file>` rebuilds the simulation from the header
 * alone (no other flags needed) and re-executes the event stream;
 * because the simulation is a deterministic function of that stream,
 * the replay reproduces the live session's outcome digest bit for
 * bit. Lifecycle events fold their own digest marker words (see
 * Cache::createPartition), so the digest covers the whole stream,
 * not just the accesses.
 *
 * Binary format (all integers little-endian):
 *
 *   "VSRJ" | u32 version | config fields (see JournalHeader)
 *   then records until EOF:
 *     u8 1 (JOIN)   | u16 slot | u16 nameLen | name bytes
 *     u8 2 (LEAVE)  | u16 slot
 *     u8 3 (ACCESS) | u16 slot | u8 access type | u64 addr
 */

#ifndef VANTAGE_SERVE_JOURNAL_H_
#define VANTAGE_SERVE_JOURNAL_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace vantage {

/** Journal record kinds. */
enum class JournalEvent : std::uint8_t {
    Join = 1,
    Leave = 2,
    Access = 3,
};

/** The configuration a journal carries; enough to rebuild the sim. */
struct JournalHeader
{
    L2Spec spec;
    std::uint32_t maxTenants = 0;
    std::uint64_t epochAccesses = 0;
    bool useUcp = true;
};

/** Streaming journal writer (stdio-buffered). */
class JournalWriter
{
  public:
    /** Opens `path` and writes the header; fatal() on I/O error. */
    JournalWriter(const std::string &path, const JournalHeader &hdr);
    ~JournalWriter();

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    void recordJoin(std::uint16_t slot, const std::string &name);
    void recordLeave(std::uint16_t slot);
    void recordAccess(std::uint16_t slot, AccessType type, Addr addr);

    /** Flush and close; implicit in the destructor. */
    void close();

  private:
    void writeBytes(const void *data, std::size_t n);

    std::FILE *file_ = nullptr;
    std::string path_;
};

/** One decoded journal record. */
struct JournalRecord
{
    JournalEvent event = JournalEvent::Access;
    std::uint16_t slot = 0;
    std::string name;              ///< JOIN only.
    AccessType type = AccessType::Load; ///< ACCESS only.
    Addr addr = 0;                 ///< ACCESS only.
};

class JournalReader;

/**
 * A single-pass input range over the records of a loaded journal.
 *
 * The range owns a fixed-size buffer and its own file cursor: begin()
 * starts reading at the first record with pread(), so two ranges over
 * one reader never share a position. Dereferencing yields the range's
 * one current record, overwritten by every increment; memory does not
 * grow with the journal. Records decode through the same validating
 * decoder load() ran, so a pass re-checks every record; a pass that
 * finds the bytes no longer valid (the file was truncated or
 * rewritten after load()) calls fatal() with the byte offset.
 *
 * The range is move-only (it owns its buffer), borrows the reader's
 * open file, and must not outlive the reader.
 */
class JournalRecords
{
  public:
    class iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = JournalRecord;
        using difference_type = std::ptrdiff_t;
        using pointer = const JournalRecord *;
        using reference = const JournalRecord &;

        iterator() = default;

        const JournalRecord &operator*() const
        {
            return range_->current_;
        }
        const JournalRecord *operator->() const
        {
            return &range_->current_;
        }
        iterator &
        operator++()
        {
            range_->advance();
            return *this;
        }
        void operator++(int) { range_->advance(); }

        /** Single pass: iterators differ only in being at the end. */
        bool
        operator==(const iterator &other) const
        {
            return atEnd() == other.atEnd();
        }

      private:
        friend class JournalRecords;
        explicit iterator(JournalRecords *range) : range_(range) {}
        bool atEnd() const { return range_ == nullptr || range_->done_; }

        JournalRecords *range_ = nullptr;
    };

    /** Start the pass: read and decode the first record. */
    iterator begin();
    iterator end() { return iterator(); }

    /** Record count, as validated by load(). */
    std::size_t size() const;

  private:
    friend class JournalReader;

    explicit JournalRecords(const JournalReader &reader);

    /** Rewind to the first record with empty slot occupancy. */
    void rewind();
    /**
     * Decode the next record into current_. @return false at the end
     * (error empty) or on an invalid record (error names its byte
     * offset).
     */
    bool next(std::string &error);
    /** Buffer at least `need` unread bytes; false if the file ends. */
    bool fill(std::size_t need, std::string &error);
    /** Pass step: next(), or fatal() if the file changed. */
    void advance();

    const JournalReader *reader_;
    std::unique_ptr<std::uint8_t[]> buf_;
    std::size_t head_ = 0;      ///< First unread byte in buf_.
    std::size_t tail_ = 0;      ///< One past the last buffered byte.
    std::uint64_t filePos_ = 0; ///< File offset of buf_[tail_].
    std::vector<std::uint8_t> active_; ///< Per slot: joined, not left.
    JournalRecord current_;
    std::uint64_t decoded_ = 0;
    bool done_ = true;
};

/**
 * Streaming journal reader. load() decodes the header and validates
 * every record in one buffered pass — format, slot range and tenant
 * lifecycle — storing none of them, so replay never starts on a
 * journal it cannot finish. records() then streams them as often as
 * needed, each pass in constant memory.
 */
class JournalReader
{
  public:
    JournalReader() = default;
    ~JournalReader();

    JournalReader(const JournalReader &) = delete;
    JournalReader &operator=(const JournalReader &) = delete;

    /**
     * Open `path` and keep it open for records(). @return false with
     * `error` set on any I/O, header, format or lifecycle problem;
     * record errors name the record's byte offset.
     */
    bool load(const std::string &path, std::string &error);

    const JournalHeader &header() const { return header_; }

    /** A fresh pass over the records; does no I/O until begin(). */
    JournalRecords records() const { return JournalRecords(*this); }

  private:
    friend class JournalRecords;

    void close();

    int fd_ = -1;
    std::string path_;
    JournalHeader header_;
    std::uint64_t dataEnd_ = 0; ///< File length validated by load().
    std::uint64_t count_ = 0;
};

} // namespace vantage

#endif // VANTAGE_SERVE_JOURNAL_H_

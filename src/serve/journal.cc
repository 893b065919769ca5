#include "serve/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/log.h"
#include "serve/frame.h"

namespace vantage {

namespace {

constexpr char kMagic[4] = {'V', 'S', 'R', 'J'};
constexpr std::uint32_t kVersion = 1;

std::uint64_t
doubleBits(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

double
bitsDouble(std::uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

std::vector<std::uint8_t>
encodeHeader(const JournalHeader &hdr)
{
    std::vector<std::uint8_t> out;
    out.insert(out.end(), kMagic, kMagic + 4);
    putU32(out, kVersion);
    putU8(out, static_cast<std::uint8_t>(hdr.spec.scheme));
    putU8(out, static_cast<std::uint8_t>(hdr.spec.array));
    putU64(out, hdr.spec.lines);
    putU32(out, hdr.maxTenants);
    putU64(out, hdr.spec.seed);
    putU64(out, hdr.epochAccesses);
    putU8(out, hdr.useUcp ? 1 : 0);
    putU64(out, doubleBits(hdr.spec.vantage.unmanagedFraction));
    putU64(out, doubleBits(hdr.spec.vantage.maxAperture));
    putU64(out, doubleBits(hdr.spec.vantage.slack));
    putU32(out, hdr.spec.vantage.candsPerAdjust);
    putU32(out, hdr.spec.vantage.thresholdEntries);
    putU8(out, hdr.spec.vantage.throttleHighChurn ? 1 : 0);
    return out;
}

bool
decodeHeader(ByteReader &r, JournalHeader &hdr, std::string &error)
{
    char magic[4];
    std::uint32_t version = 0;
    if (!r.readBytes(magic, 4) ||
        std::memcmp(magic, kMagic, 4) != 0) {
        error = "not a vsim serve journal (bad magic)";
        return false;
    }
    if (!r.readU32(version) || version != kVersion) {
        error = "unsupported journal version";
        return false;
    }
    std::uint8_t scheme = 0;
    std::uint8_t array = 0;
    std::uint8_t use_ucp = 0;
    std::uint8_t throttle = 0;
    std::uint64_t unmanaged = 0;
    std::uint64_t amax = 0;
    std::uint64_t slack = 0;
    if (!r.readU8(scheme) || !r.readU8(array) ||
        !r.readU64(hdr.spec.lines) || !r.readU32(hdr.maxTenants) ||
        !r.readU64(hdr.spec.seed) || !r.readU64(hdr.epochAccesses) ||
        !r.readU8(use_ucp) || !r.readU64(unmanaged) ||
        !r.readU64(amax) || !r.readU64(slack) ||
        !r.readU32(hdr.spec.vantage.candsPerAdjust) ||
        !r.readU32(hdr.spec.vantage.thresholdEntries) ||
        !r.readU8(throttle)) {
        error = "truncated journal header";
        return false;
    }
    hdr.spec.scheme = static_cast<SchemeKind>(scheme);
    hdr.spec.array = static_cast<ArrayKind>(array);
    hdr.spec.numPartitions = hdr.maxTenants;
    hdr.spec.vantage.numPartitions = hdr.maxTenants;
    hdr.useUcp = use_ucp != 0;
    hdr.spec.vantage.unmanagedFraction = bitsDouble(unmanaged);
    hdr.spec.vantage.maxAperture = bitsDouble(amax);
    hdr.spec.vantage.slack = bitsDouble(slack);
    hdr.spec.vantage.throttleHighChurn = throttle != 0;
    if (hdr.maxTenants == 0 || hdr.maxTenants > 0xffff) {
        error = "journal header: bad tenant capacity";
        return false;
    }
    std::string spec_error;
    if (!validateL2Spec(hdr.spec, spec_error)) {
        error = "journal header: " + spec_error;
        return false;
    }
    return true;
}

} // namespace

JournalWriter::JournalWriter(const std::string &path,
                             const JournalHeader &hdr)
    : path_(path)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr) {
        fatal("cannot open journal '%s' for writing", path.c_str());
    }
    const std::vector<std::uint8_t> header = encodeHeader(hdr);
    writeBytes(header.data(), header.size());
}

JournalWriter::~JournalWriter()
{
    close();
}

void
JournalWriter::writeBytes(const void *data, std::size_t n)
{
    if (std::fwrite(data, 1, n, file_) != n) {
        fatal("short write to journal '%s'", path_.c_str());
    }
}

void
JournalWriter::recordJoin(std::uint16_t slot, const std::string &name)
{
    std::vector<std::uint8_t> rec;
    putU8(rec, static_cast<std::uint8_t>(JournalEvent::Join));
    putU16(rec, slot);
    putU16(rec, static_cast<std::uint16_t>(name.size()));
    rec.insert(rec.end(), name.begin(), name.end());
    writeBytes(rec.data(), rec.size());
}

void
JournalWriter::recordLeave(std::uint16_t slot)
{
    std::vector<std::uint8_t> rec;
    putU8(rec, static_cast<std::uint8_t>(JournalEvent::Leave));
    putU16(rec, slot);
    writeBytes(rec.data(), rec.size());
}

void
JournalWriter::recordAccess(std::uint16_t slot, AccessType type,
                            Addr addr)
{
    std::uint8_t rec[1 + 2 + 1 + 8];
    rec[0] = static_cast<std::uint8_t>(JournalEvent::Access);
    rec[1] = slot & 0xff;
    rec[2] = (slot >> 8) & 0xff;
    rec[3] = static_cast<std::uint8_t>(type);
    for (int i = 0; i < 8; ++i) {
        rec[4 + i] = (addr >> (8 * i)) & 0xff;
    }
    writeBytes(rec, sizeof(rec));
}

void
JournalWriter::close()
{
    if (file_ != nullptr) {
        if (std::fclose(file_) != 0) {
            warn("error closing journal '%s'", path_.c_str());
        }
        file_ = nullptr;
    }
}

// ----------------------------------------------------------------------
// Reading.

namespace {

/**
 * Decode buffer per range. Every record must fit once the unread tail
 * slides to the front: the largest is a JOIN with a 65535-byte name.
 */
constexpr std::size_t kBufferBytes = 128 * 1024;
constexpr std::size_t kAccessBytes = 1 + 2 + 1 + 8;
constexpr std::size_t kLeaveBytes = 1 + 2;
constexpr std::size_t kJoinBytes = 1 + 2 + 2;
static_assert(kBufferBytes >= kJoinBytes + 0xffff,
              "a maximal JOIN record must fit the buffer");

/** The fixed-size header, magic through throttle flag; records follow. */
constexpr std::size_t kHeaderBytes =
    4 + 4 + 1 + 1 + 8 + 4 + 8 + 8 + 1 + 3 * 8 + 4 + 4 + 1;

std::uint16_t
loadU16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint64_t
loadU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
        v = (v << 8) | p[i];
    }
    return v;
}

std::string
atByte(std::uint64_t offset)
{
    return " at byte " + std::to_string(offset);
}

} // namespace

JournalRecords::JournalRecords(const JournalReader &reader)
    : reader_(&reader)
{
}

std::size_t
JournalRecords::size() const
{
    return reader_->count_;
}

void
JournalRecords::rewind()
{
    if (!buf_) {
        buf_.reset(new std::uint8_t[kBufferBytes]);
    }
    head_ = 0;
    tail_ = 0;
    filePos_ = kHeaderBytes;
    active_.assign(reader_->header_.maxTenants, 0);
    decoded_ = 0;
    done_ = false;
}

bool
JournalRecords::fill(std::size_t need, std::string &error)
{
    if (tail_ - head_ >= need) {
        return true;
    }
    // Slide the unread tail to the front, then top the buffer up.
    std::memmove(buf_.get(), buf_.get() + head_, tail_ - head_);
    tail_ -= head_;
    head_ = 0;
    while (tail_ < need && filePos_ < reader_->dataEnd_) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(kBufferBytes - tail_,
                                    reader_->dataEnd_ - filePos_));
        const ssize_t n = ::pread(reader_->fd_, buf_.get() + tail_, want,
                                  static_cast<off_t>(filePos_));
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n < 0) {
            error = std::string("read error: ") + std::strerror(errno) +
                    atByte(filePos_);
            return false;
        }
        if (n == 0) {
            error = "file ends at byte " + std::to_string(filePos_) +
                    ", short of the " +
                    std::to_string(reader_->dataEnd_) + " bytes validated";
            return false;
        }
        tail_ += static_cast<std::size_t>(n);
        filePos_ += static_cast<std::uint64_t>(n);
    }
    return tail_ >= need;
}

bool
JournalRecords::next(std::string &error)
{
    if (!fill(1, error)) {
        return false; // End of the records, or a read error.
    }
    const std::uint64_t offset = filePos_ - (tail_ - head_);
    const auto bad = [&error, offset](const std::string &what) {
        error = what + atByte(offset);
        return false;
    };
    const std::uint8_t type = buf_[head_];
    JournalRecord &rec = current_;
    switch (static_cast<JournalEvent>(type)) {
      case JournalEvent::Access: {
        if (!fill(kAccessBytes, error)) {
            return error.empty() ? bad("truncated ACCESS record") : false;
        }
        const std::uint8_t *p = buf_.get() + head_;
        if (p[3] > 1) {
            return bad("bad ACCESS type " + std::to_string(p[3]));
        }
        rec.slot = loadU16(p + 1);
        rec.type = static_cast<AccessType>(p[3]);
        rec.addr = loadU64(p + 4);
        rec.name.clear();
        head_ += kAccessBytes;
        break;
      }
      case JournalEvent::Leave:
        if (!fill(kLeaveBytes, error)) {
            return error.empty() ? bad("truncated LEAVE record") : false;
        }
        rec.slot = loadU16(buf_.get() + head_ + 1);
        rec.type = AccessType::Load;
        rec.addr = 0;
        rec.name.clear();
        head_ += kLeaveBytes;
        break;
      case JournalEvent::Join: {
        if (!fill(kJoinBytes, error)) {
            return error.empty() ? bad("truncated JOIN record") : false;
        }
        const std::size_t len = loadU16(buf_.get() + head_ + 3);
        if (!fill(kJoinBytes + len, error)) {
            return error.empty() ? bad("truncated JOIN name") : false;
        }
        const std::uint8_t *p = buf_.get() + head_;
        rec.slot = loadU16(p + 1);
        rec.type = AccessType::Load;
        rec.addr = 0;
        rec.name.assign(reinterpret_cast<const char *>(p + kJoinBytes),
                        len);
        head_ += kJoinBytes + len;
        break;
      }
      default:
        return bad("unknown journal record type " +
                   std::to_string(type));
    }
    rec.event = static_cast<JournalEvent>(type);

    // The tenant lifecycle TenantSim asserts on: a JOIN needs a free
    // slot, a LEAVE or an ACCESS an occupied one.
    if (rec.slot >= active_.size()) {
        return bad("journal record slot " + std::to_string(rec.slot) +
                   " out of range (" + std::to_string(active_.size()) +
                   " slots)");
    }
    std::uint8_t &active = active_[rec.slot];
    const char *violation = nullptr;
    switch (rec.event) {
      case JournalEvent::Join:
        violation = active ? "JOIN into occupied" : nullptr;
        active = 1;
        break;
      case JournalEvent::Leave:
        violation = active ? nullptr : "LEAVE of inactive";
        active = 0;
        break;
      case JournalEvent::Access:
        violation = active ? nullptr : "ACCESS for inactive";
        break;
    }
    if (violation != nullptr) {
        return bad(std::string(violation) + " slot " +
                   std::to_string(rec.slot));
    }
    ++decoded_;
    return true;
}

JournalRecords::iterator
JournalRecords::begin()
{
    vantage_assert(reader_->fd_ >= 0,
                   "journal records() before a successful load()");
    rewind();
    advance();
    return iterator(this);
}

void
JournalRecords::advance()
{
    std::string error;
    if (next(error)) {
        return;
    }
    done_ = true;
    if (!error.empty()) {
        fatal("journal '%s' changed after it was loaded: %s",
              reader_->path_.c_str(), error.c_str());
    }
    if (decoded_ != reader_->count_) {
        fatal("journal '%s' changed after it was loaded: %llu records "
              "end at byte %llu, %llu were validated",
              reader_->path_.c_str(),
              static_cast<unsigned long long>(decoded_),
              static_cast<unsigned long long>(reader_->dataEnd_),
              static_cast<unsigned long long>(reader_->count_));
    }
}

JournalReader::~JournalReader()
{
    close();
}

void
JournalReader::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
JournalReader::load(const std::string &path, std::string &error)
{
    close();
    count_ = 0;
    error.clear();
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0) {
        error = "cannot open journal '" + path + "'";
        return false;
    }
    path_ = path;
    struct stat st {};
    if (::fstat(fd_, &st) != 0) {
        error = "cannot stat journal '" + path + "'";
        close();
        return false;
    }
    dataEnd_ = static_cast<std::uint64_t>(st.st_size);

    std::uint8_t head[kHeaderBytes] = {};
    ssize_t got = 0;
    do {
        got = ::pread(fd_, head, sizeof(head), 0);
    } while (got < 0 && errno == EINTR);
    ByteReader r(head, got > 0 ? static_cast<std::size_t>(got) : 0);
    if (!decodeHeader(r, header_, error)) {
        close();
        return false;
    }

    // The validating pass: the same decoder a replay pass runs,
    // keeping nothing but the count.
    JournalRecords scan(*this);
    scan.rewind();
    while (scan.next(error)) {
        ++count_;
    }
    if (!error.empty()) {
        close();
        return false;
    }
    return true;
}

} // namespace vantage

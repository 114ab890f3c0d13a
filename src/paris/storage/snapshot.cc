#include "paris/storage/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <utility>

#include "paris/storage/mmap_file.h"
#include "paris/util/fault_injection.h"
#include "paris/util/fs.h"

namespace paris::storage {

namespace {

constexpr uint64_t kFnvBasis = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvBytes(uint64_t h, const unsigned char* p, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

// The lane hash's constants and steps (XXH64 with seed 0).
constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;

uint64_t Load64(const unsigned char* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t Load32(const unsigned char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t Round(uint64_t acc, uint64_t input) {
  return std::rotl(acc + input * kP2, 31) * kP1;
}

uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  return (acc ^ Round(0, lane)) * kP1 + kP4;
}

// Folds whole 32-byte stripes into the four lanes; returns the bytes left.
size_t Stripes(uint64_t (&lanes)[4], const unsigned char* p, size_t size) {
  uint64_t v0 = lanes[0], v1 = lanes[1], v2 = lanes[2], v3 = lanes[3];
  size_t at = 0;
  for (; size - at >= 32; at += 32) {
    v0 = Round(v0, Load64(p + at));
    v1 = Round(v1, Load64(p + at + 8));
    v2 = Round(v2, Load64(p + at + 16));
    v3 = Round(v3, Load64(p + at + 24));
  }
  lanes[0] = v0, lanes[1] = v1, lanes[2] = v2, lanes[3] = v3;
  return size - at;
}

}  // namespace

Checksum::Checksum(ChecksumKind kind)
    : kind_(kind), fnv_(kFnvBasis), lanes_{kP1 + kP2, kP2, 0, 0 - kP1} {}

void Checksum::Update(const void* data, size_t size) {
  if (size == 0) return;
  const auto* p = static_cast<const unsigned char*>(data);
  if (kind_ == ChecksumKind::kFnv1a) {
    fnv_ = FnvBytes(fnv_, p, size);
    return;
  }
  length_ += size;
  if (carry_size_ + size < sizeof(carry_)) {
    std::memcpy(carry_ + carry_size_, p, size);
    carry_size_ += size;
    return;
  }
  if (carry_size_ != 0) {
    const size_t fill = sizeof(carry_) - carry_size_;
    std::memcpy(carry_ + carry_size_, p, fill);
    Stripes(lanes_, carry_, sizeof(carry_));
    p += fill;
    size -= fill;
  }
  carry_size_ = Stripes(lanes_, p, size);
  std::memcpy(carry_, p + size - carry_size_, carry_size_);
}

uint64_t Checksum::Digest() const {
  if (kind_ == ChecksumKind::kFnv1a) return fnv_;
  uint64_t h = kP5;
  if (length_ >= sizeof(carry_)) {
    h = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
        std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
    for (const uint64_t lane : lanes_) h = MergeRound(h, lane);
  }
  h += length_;
  const unsigned char* p = carry_;
  size_t left = carry_size_;
  for (; left >= 8; p += 8, left -= 8) {
    h = std::rotl(h ^ Round(0, Load64(p)), 27) * kP1 + kP4;
  }
  if (left >= 4) {
    h = std::rotl(h ^ (Load32(p) * kP1), 23) * kP2 + kP3;
    p += 4;
    left -= 4;
  }
  for (; left > 0; ++p, --left) h = std::rotl(h ^ (*p * kP5), 11) * kP1;
  h = (h ^ (h >> 33)) * kP2;
  h = (h ^ (h >> 29)) * kP3;
  return h ^ (h >> 32);
}

uint64_t ChecksumOf(ChecksumKind kind, const void* data, size_t size) {
  Checksum checksum(kind);
  checksum.Update(data, size);
  return checksum.Digest();
}

// ---------------------------------------------------------------------------
// SnapshotWriter
// ---------------------------------------------------------------------------

void SnapshotWriter::WriteBytes(const void* data, size_t size) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(size));
  checksum_.Update(data, size);
  offset_ += size;
}

void SnapshotWriter::AlignTo8() {
  static constexpr char kZeros[8] = {};
  const size_t pad = (8 - offset_ % 8) % 8;
  if (pad != 0) WriteBytes(kZeros, pad);
}

void SnapshotWriter::WriteU8(uint8_t v) { WriteBytes(&v, 1); }

void SnapshotWriter::WriteU32(uint32_t v) {
  unsigned char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  WriteBytes(b, 4);
}

void SnapshotWriter::WriteU64(uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  WriteBytes(b, 8);
}

void SnapshotWriter::WriteDouble(double v) {
  WriteU64(std::bit_cast<uint64_t>(v));
}

void SnapshotWriter::WriteString(std::string_view s) {
  WriteU64(s.size());
  WriteBytes(s.data(), s.size());
}

bool SnapshotWriter::ok() const { return static_cast<bool>(out_); }

// ---------------------------------------------------------------------------
// SnapshotReader
// ---------------------------------------------------------------------------

bool SnapshotReader::ReadBytes(void* data, size_t size) {
  if (failed_) return false;
  if (memory_backed()) {
    if (size > size_ - pos_) {
      failed_ = true;
      std::memset(data, 0, size);
      return false;
    }
    // No hashing: the memory-backed caller verified the whole-file checksum
    // before constructing the reader.
    std::memcpy(data, data_ + pos_, size);
    pos_ += size;
    return true;
  }
  in_->read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (static_cast<size_t>(in_->gcount()) != size) {
    failed_ = true;
    std::memset(data, 0, size);
    return false;
  }
  checksum_.Update(data, size);
  pos_ += size;
  return true;
}

void SnapshotReader::SkipAlignmentPadding() {
  const size_t pad = (8 - pos_ % 8) % 8;
  if (pad == 0) return;
  unsigned char scratch[8];
  ReadBytes(scratch, pad);
}

uint8_t SnapshotReader::ReadU8() {
  uint8_t v = 0;
  ReadBytes(&v, 1);
  return v;
}

uint32_t SnapshotReader::ReadU32() {
  unsigned char b[4] = {};
  ReadBytes(b, 4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(b[i]) << (8 * i);
  return v;
}

uint64_t SnapshotReader::ReadU64() {
  unsigned char b[8] = {};
  ReadBytes(b, 8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(b[i]) << (8 * i);
  return v;
}

double SnapshotReader::ReadDouble() {
  return std::bit_cast<double>(ReadU64());
}

std::string_view SnapshotReader::ReadStringView(std::string* buffer,
                                               uint64_t max_size) {
  const uint64_t n = ReadU64();
  if (n > max_size) failed_ = true;
  if (failed_) return {};
  if (memory_backed()) {
    if (n > size_ - pos_) {
      failed_ = true;
      return {};
    }
    const std::string_view s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  // Grown in bounded chunks, so a corrupt length on a truncated stream fails
  // at the first short read instead of allocating it up front.
  buffer->clear();
  constexpr uint64_t kChunk = 1 << 16;
  for (uint64_t done = 0; done < n;) {
    const uint64_t take = std::min(kChunk, n - done);
    const size_t old_size = buffer->size();
    buffer->resize(old_size + take);
    if (!ReadBytes(buffer->data() + old_size, take)) {
      buffer->clear();
      return {};
    }
    done += take;
  }
  return *buffer;
}

std::string SnapshotReader::ReadString(uint64_t max_size) {
  std::string buffer;
  const std::string_view s = ReadStringView(&buffer, max_size);
  return memory_backed() ? std::string(s) : buffer;
}

uint64_t SnapshotReader::ReadChecksumTrailer() {
  // Streaming mode only: the mmap path verifies the whole-file trailer
  // before constructing its reader.
  if (failed_ || memory_backed()) {
    failed_ = true;
    return 0;
  }
  unsigned char b[8] = {};
  in_->read(reinterpret_cast<char*>(b), 8);
  if (in_->gcount() != 8) {
    failed_ = true;
    return 0;
  }
  pos_ += 8;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(b[i]) << (8 * i);
  return v;
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

void WriteSnapshotHeader(SnapshotWriter& writer, std::ostream& raw,
                         uint32_t version) {
  raw.write(kSnapshotMagic, sizeof(kSnapshotMagic));  // excluded from hash
  writer.WriteU32(version);
}

namespace {

using SectionLoader =
    std::function<util::Status(SnapshotReader&, uint32_t file_version)>;

uint64_t DecodeU64(const unsigned char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

uint32_t DecodeU32(const unsigned char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

util::Status ChecksumMismatch(const SnapshotFamily& family,
                              const std::string& path) {
  return util::DataLossError("corrupt " + std::string(family.kind) +
                             " (checksum mismatch): " + path);
}

util::Status UnsupportedVersion(const SnapshotFamily& family,
                                uint32_t version, const std::string& path) {
  return util::InvalidArgumentError("unsupported " + std::string(family.kind) +
                                    " version " + std::to_string(version) +
                                    ": " + path);
}

util::Status LoadSnapshotFileFromStream(const std::string& path,
                                        const SnapshotFamily& family,
                                        const SectionLoader& load_sections,
                                        const obs::Hooks& hooks) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::NotFoundError("cannot open " + std::string(family.kind) +
                               " " + path);
  }
  char file_magic[8] = {};
  in.read(file_magic, sizeof(file_magic));
  if (in.gcount() != sizeof(file_magic) ||
      std::memcmp(file_magic, family.magic, sizeof(file_magic)) != 0) {
    return util::InvalidArgumentError("not a PARIS " +
                                      std::string(family.kind) +
                                      " (bad magic): " + path);
  }
  // The version picks the trailer's hash: read it ahead, then rewind so
  // the reader hashes it with everything after it.
  unsigned char version_bytes[4] = {};
  in.read(reinterpret_cast<char*>(version_bytes), sizeof(version_bytes));
  if (in.gcount() != sizeof(version_bytes)) {
    return util::DataLossError("truncated " + std::string(family.kind) +
                               " header");
  }
  const uint32_t file_version = DecodeU32(version_bytes);
  if (!family.supports(file_version)) {
    return UnsupportedVersion(family, file_version, path);
  }
  in.seekg(sizeof(file_magic));
  SnapshotReader reader(in, family.checksum(file_version));
  reader.ReadU32();
  util::Status status = load_sections(reader, file_version);
  if (!status.ok()) {
    // The streaming reader only sees the checksum trailer after the
    // sections, so a flipped byte inside them can surface as a section-level
    // FAILED_PRECONDITION (e.g. a garbled run-key field reading as "a
    // different config") instead of as corruption. Such verdicts are only
    // trustworthy over an intact file: drain the remainder, extend the
    // running hash, and report a trailer mismatch as corruption instead.
    if (status.code() == util::StatusCode::kFailedPrecondition &&
        reader.ok()) {
      // Chunked drain with an 8-byte rolling tail (the candidate trailer),
      // hashing everything before it — O(1) memory however large the file.
      Checksum computed = reader.running_checksum();
      char tail[sizeof(uint64_t)];
      size_t tail_size = 0;
      char chunk[1 << 16];
      while (in) {
        in.read(chunk, sizeof(chunk));
        const size_t got = static_cast<size_t>(in.gcount());
        if (got == 0) break;
        if (tail_size + got <= sizeof(tail)) {
          std::memcpy(tail + tail_size, chunk, got);
          tail_size += got;
          continue;
        }
        const size_t hashable = tail_size + got - sizeof(tail);
        const size_t from_tail = std::min(tail_size, hashable);
        computed.Update(tail, from_tail);
        computed.Update(chunk, hashable - from_tail);
        char next_tail[sizeof(tail)];
        size_t n = 0;
        for (size_t i = from_tail; i < tail_size; ++i) {
          next_tail[n++] = tail[i];
        }
        for (size_t i = hashable - from_tail; i < got; ++i) {
          next_tail[n++] = chunk[i];
        }
        std::memcpy(tail, next_tail, n);
        tail_size = n;
      }
      if (tail_size < sizeof(tail) ||
          computed.Digest() !=
              DecodeU64(reinterpret_cast<const unsigned char*>(tail))) {
        return ChecksumMismatch(family, path);
      }
    }
    return status;
  }
  obs::Span verify_span(hooks.trace, hooks.main_slot(), "io",
                        "snapshot.verify");
  const uint64_t computed = reader.running_checksum().Digest();
  const uint64_t stored = reader.ReadChecksumTrailer();
  verify_span.End();
  if (!reader.ok() || computed != stored) {
    return ChecksumMismatch(family, path);
  }
  if (in.peek() != std::char_traits<char>::eof()) {
    return util::DataLossError("corrupt " + std::string(family.kind) +
                               " (trailing bytes): " + path);
  }
  return util::OkStatus();
}

util::Status LoadSnapshotFileFromMapping(std::shared_ptr<MappedFile> mapping,
                                         const std::string& path,
                                         const SnapshotFamily& family,
                                         const SectionLoader& load_sections,
                                         const obs::Hooks& hooks) {
  const std::span<const std::byte> bytes = mapping->bytes();
  constexpr size_t kMagicSize = 8;
  if (bytes.size() < kMagicSize ||
      std::memcmp(bytes.data(), family.magic, kMagicSize) != 0) {
    return util::InvalidArgumentError("not a PARIS " +
                                      std::string(family.kind) +
                                      " (bad magic): " + path);
  }
  if (bytes.size() < kMagicSize + sizeof(uint32_t) + sizeof(uint64_t)) {
    return util::DataLossError("truncated " + std::string(family.kind) +
                               ": " + path);
  }

  // Checksum-before-map policy: verify the trailer over the whole mapping
  // before any structure adopts a view into it. This touches every byte
  // once (like the streaming reader) but nothing is copied. The version
  // field, inside the bounds checked above, picks the hash; a version this
  // build does not know is only reported as such when the trailer holds
  // under one of the hashes, so damage there still reads as corruption.
  obs::Span verify_span(hooks.trace, hooks.main_slot(), "io",
                        "snapshot.verify");
  const auto* body =
      reinterpret_cast<const unsigned char*>(bytes.data()) + kMagicSize;
  const size_t body_size = bytes.size() - kMagicSize - sizeof(uint64_t);
  const uint32_t file_version = DecodeU32(body);
  const uint64_t stored = DecodeU64(body + body_size);
  if (!family.supports(file_version)) {
    for (const ChecksumKind kind :
         {ChecksumKind::kFnv1a, ChecksumKind::kLanes}) {
      if (ChecksumOf(kind, body, body_size) == stored) {
        return UnsupportedVersion(family, file_version, path);
      }
    }
    return ChecksumMismatch(family, path);
  }
  if (ChecksumOf(family.checksum(file_version), body, body_size) != stored) {
    return ChecksumMismatch(family, path);
  }
  verify_span.End();

  SnapshotReader reader(bytes);
  reader.set_view_owner(std::move(mapping));
  reader.ReadU32();
  util::Status status = load_sections(reader, file_version);
  if (!status.ok()) return status;
  if (reader.position() != bytes.size() - sizeof(uint64_t)) {
    return util::DataLossError("corrupt " + std::string(family.kind) +
                               " (trailing bytes): " + path);
  }
  return util::OkStatus();
}

}  // namespace

util::Status LoadSnapshotFile(
    const std::string& path, SnapshotLoadMode mode,
    const SnapshotFamily& family,
    const std::function<util::Status(SnapshotReader&, uint32_t file_version)>&
        load_sections,
    obs::Hooks hooks) {
  const util::FaultAction fault =
      util::CheckFaultRetryingTransient("snapshot.read");
  if (fault.kind == util::FaultKind::kErrno) {
    return util::InternalError("read failed for '" + path +
                               "': " + std::strerror(fault.error_number));
  }
  if (mode == SnapshotLoadMode::kStream) {
    return LoadSnapshotFileFromStream(path, family, load_sections, hooks);
  }
  auto mapping = MappedFile::Open(path);
  if (!mapping.ok()) {
    // Only a map failure falls back; content errors never do.
    if (mode == SnapshotLoadMode::kMmap) return mapping.status();
    return LoadSnapshotFileFromStream(path, family, load_sections, hooks);
  }
  return LoadSnapshotFileFromMapping(std::move(mapping).value(), path, family,
                                     load_sections, hooks);
}

// ---------------------------------------------------------------------------
// Term pool
// ---------------------------------------------------------------------------

void SaveTermPool(const rdf::TermPool& pool, SnapshotWriter& writer) {
  writer.WriteU64(pool.size());
  for (rdf::TermId id = 0; id < pool.size(); ++id) {
    writer.WriteU8(static_cast<uint8_t>(pool.kind(id)));
    writer.WriteString(pool.lexical(id));
  }
}

util::Status LoadTermPool(SnapshotReader& reader, rdf::TermPool* pool) {
  if (pool->size() != 0) {
    return util::FailedPreconditionError(
        "snapshot must be loaded into an empty term pool");
  }
  const uint64_t count = reader.ReadU64();
  if (count >= rdf::kNullTerm) reader.MarkFailed();  // ids are u32
  if (!reader.ok()) return util::DataLossError("corrupt term pool section");
  // Pre-size from the count, but never beyond what the bytes can back: a
  // term takes at least a kind byte and a u64 length.
  constexpr uint64_t kMinTermBytes = 9;
  constexpr uint64_t kStreamReserve = 1 << 20;
  pool->Reserve(static_cast<size_t>(std::min(
      count, reader.memory_backed() ? reader.bytes_left() / kMinTermBytes
                                    : kStreamReserve)));
  std::string buffer;
  for (uint64_t i = 0; i < count && reader.ok(); ++i) {
    const uint8_t kind = reader.ReadU8();
    if (kind > static_cast<uint8_t>(rdf::TermKind::kLiteral)) {
      reader.MarkFailed();
      break;
    }
    const std::string_view lexical = reader.ReadStringView(&buffer);
    if (!reader.ok()) break;
    const rdf::TermId id =
        pool->Intern(lexical, static_cast<rdf::TermKind>(kind));
    if (id != i) {
      // A duplicate (lexical, kind) row — the bytes are corrupt.
      reader.MarkFailed();
      break;
    }
  }
  if (!reader.ok()) {
    return util::DataLossError("corrupt term pool section");
  }
  return util::OkStatus();
}

}  // namespace paris::storage

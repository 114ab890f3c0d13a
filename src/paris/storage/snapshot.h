#ifndef PARIS_STORAGE_SNAPSHOT_H_
#define PARIS_STORAGE_SNAPSHOT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "paris/obs/hooks.h"
#include "paris/rdf/term.h"
#include "paris/storage/column.h"
#include "paris/util/status.h"

namespace paris::storage {

// Versioned binary snapshot format (see src/storage/README.md):
//
//   [8-byte magic "PARISNP\n"] [u32 format version]
//   ... sections written by the layers above ...
//   [u64 checksum of every byte after the magic]
//
// Scalars are little-endian; POD rows (facts, pairs, offsets) are written
// raw, matching the in-memory layout of this library's fixed-width structs.
// Since version 2 every POD array payload is padded to an 8-byte file
// offset, so an mmap'ed snapshot can serve the packed columns in place
// (zero-copy load) with naturally aligned loads. The checksum trailer
// detects both corruption and truncation: the streaming reader hashes as it
// consumes, the mmap reader verifies the whole file before adopting any
// view. Which hash the trailer holds is a function of the snapshot family
// and of the version the file declares (`SnapshotFamily::checksum`).

// The trailer hashes.
enum class ChecksumKind : uint8_t {
  // Byte-serial FNV-1a 64: ontology snapshots v2 to v4, result snapshots
  // v2, and the ontology-pair fingerprint (core/result_snapshot.h).
  kFnv1a,
  // Four u64 lanes over 32-byte stripes (XXH64's rounds, seed 0): ontology
  // snapshots since v5, result snapshots since v3.
  kLanes,
};

// Streaming form of either trailer hash. Feeding the input in any split
// gives the one-shot digest: the lane hash carries at most 31 bytes
// between calls, and `Digest` folds the lanes, the total length and that
// tail without consuming the state.
class Checksum {
 public:
  explicit Checksum(ChecksumKind kind);

  void Update(const void* data, size_t size);
  uint64_t Digest() const;

 private:
  ChecksumKind kind_;
  uint64_t fnv_;
  uint64_t lanes_[4];
  uint64_t length_ = 0;
  size_t carry_size_ = 0;
  unsigned char carry_[32] = {};
};

// One-shot digest of a contiguous byte range.
uint64_t ChecksumOf(ChecksumKind kind, const void* data, size_t size);

// What the shared load framing needs to know about a snapshot family.
struct SnapshotFamily {
  const char* magic;     // 8 bytes
  uint32_t min_version;  // oldest version the loaders accept
  uint32_t max_version;  // the current write version
  uint32_t lanes_since;  // first version whose trailer is the lane hash
  const char* kind;      // names the family in error messages

  bool supports(uint32_t version) const {
    return version >= min_version && version <= max_version;
  }
  ChecksumKind checksum(uint32_t version) const {
    return version >= lanes_since ? ChecksumKind::kLanes
                                  : ChecksumKind::kFnv1a;
  }
};

inline constexpr char kSnapshotMagic[8] = {'P', 'A', 'R', 'I',
                                           'S', 'N', 'P', '\n'};
// Current write version. v4 stores the CSR, the POS pairs and the per-term
// relation directory, all adopted zero-copy; v5 keeps v4's layout under the
// lane-hash trailer. Loaders accept v2 to v5: a v2 file (CSR/POS only) gets
// its directory rebuilt in memory, and a v3 file's three triple orderings,
// which v4 dropped, are read past.
inline constexpr uint32_t kSnapshotVersion = 5;
// Oldest ontology-snapshot version the loaders accept, and the only other
// version the writer still produces (compatibility tests).
inline constexpr uint32_t kMinSnapshotVersion = 2;
inline constexpr SnapshotFamily kOntologySnapshotFamily{
    kSnapshotMagic, kMinSnapshotVersion, kSnapshotVersion,
    /*lanes_since=*/5, "snapshot"};

// How a snapshot loader brings a file in. Shared by the ontology snapshots
// (src/ontology/snapshot.h) and the alignment-result snapshots
// (src/core/result_snapshot.h).
enum class SnapshotLoadMode {
  // Try the zero-copy mmap path, fall back to streaming when the file
  // cannot be mapped (platform without mmap, map failure). Content errors
  // never fall back — a corrupt file is rejected, not retried.
  kAuto,
  // Stream and copy through SnapshotReader.
  kStream,
  // Map the file read-only; loads may alias the mapping. Fails if mmap is
  // unavailable.
  kMmap,
};

// Streams sections to `out`, maintaining a running `checksum` hash of every
// byte written (the magic is excluded by writing it before construction —
// `WriteSnapshotHeader` handles this) plus the absolute file offset
// (assuming the stream is preceded by the 8-byte magic), which anchors the
// alignment padding of POD arrays. `checksum` must be the one the family
// assigns to the version the file declares.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::ostream& out,
                          ChecksumKind checksum = ChecksumKind::kLanes)
      : out_(out), checksum_(checksum) {}

  void WriteBytes(const void* data, size_t size);
  void WriteU8(uint8_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteDouble(double v);  // IEEE-754 bits as a little-endian u64
  void WriteString(std::string_view s);  // u64 length + bytes

  // u64 length, zero padding to an 8-byte file offset, then the raw rows.
  template <typename T>
  void WritePodSpan(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= 8);
    WriteU64(v.size());
    AlignTo8();
    WriteBytes(v.data(), v.size() * sizeof(T));
  }

  template <typename T>
  void WritePodVector(const std::vector<T>& v) {
    WritePodSpan(std::span<const T>(v));
  }

  uint64_t checksum() const { return checksum_.Digest(); }
  bool ok() const;

 private:
  void AlignTo8();

  std::ostream& out_;
  Checksum checksum_;
  uint64_t offset_ = sizeof(kSnapshotMagic);  // absolute file offset
};

// Mirrors SnapshotWriter. Two modes share one API:
//
//  * streaming (istream): bytes are consumed and hashed incrementally with
//    the `checksum` hash; callers compare its digest against the trailer.
//  * memory-backed (a whole snapshot file, typically mmap'ed): reads advance
//    a cursor over the buffer, and `ReadPodView` hands out zero-copy spans
//    into it. No incremental hashing — the caller verifies the whole-file
//    checksum *before* constructing the reader (checksum-before-map).
//
// Read failures (EOF, oversized counts) latch a fail state instead of
// returning per-call statuses; callers check `ok()` after a batch of reads.
// Values read after a failure are zero.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::istream& in,
                          ChecksumKind checksum = ChecksumKind::kLanes)
      : in_(&in), checksum_(checksum) {}

  // Memory-backed mode over a whole snapshot file (including the magic);
  // reading starts just after the magic. The caller must have verified the
  // checksum trailer already and must keep the bytes alive; `set_view_owner`
  // lets loaded structures pin an mmap for their lifetime.
  explicit SnapshotReader(std::span<const std::byte> file)
      : data_(file.data()), size_(file.size()), pos_(sizeof(kSnapshotMagic)) {
    if (size_ < pos_) failed_ = true;
  }

  bool ReadBytes(void* data, size_t size);
  uint8_t ReadU8();
  uint32_t ReadU32();
  uint64_t ReadU64();
  double ReadDouble();
  std::string ReadString(uint64_t max_size = kMaxString);
  // ReadString without a string per call: a view of the backing bytes in
  // memory-backed mode, else of `*buffer`, which the read reuses. Valid
  // until `buffer` is next written; empty after a failure.
  std::string_view ReadStringView(std::string* buffer,
                                  uint64_t max_size = kMaxString);

  // Reads a length-prefixed POD array. Grows the vector in bounded chunks so
  // a corrupt length field on a truncated file fails fast at the first short
  // read instead of attempting one giant allocation up front.
  template <typename T>
  bool ReadPodVector(std::vector<T>* v, uint64_t max_elements = kMaxElements) {
    static_assert(std::is_trivially_copyable_v<T>);
    const uint64_t n = ReadU64();
    if (n > max_elements) {
      failed_ = true;
      return false;
    }
    SkipAlignmentPadding();
    v->clear();
    constexpr uint64_t kChunk = 1 << 16;
    for (uint64_t done = 0; done < n;) {
      const uint64_t take = std::min(kChunk, n - done);
      const size_t old_size = v->size();
      v->resize(old_size + take);
      if (!ReadBytes(v->data() + old_size, take * sizeof(T))) return false;
      done += take;
    }
    return ok();
  }

  // Zero-copy read of a length-prefixed POD array: the span aliases the
  // backing buffer. Memory-backed mode only; fails (latching the error
  // state) in streaming mode.
  template <typename T>
  bool ReadPodView(std::span<const T>* out,
                   uint64_t max_elements = kMaxElements) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= 8);
    const uint64_t n = ReadU64();
    if (!memory_backed() || failed_ || n > max_elements) {
      failed_ = true;
      return false;
    }
    SkipAlignmentPadding();
    const uint64_t bytes = n * sizeof(T);
    if (failed_ || bytes > size_ - pos_ || pos_ % alignof(T) != 0) {
      failed_ = true;
      return false;
    }
    *out = {reinterpret_cast<const T*>(data_ + pos_), n};
    pos_ += bytes;
    return true;
  }

  // Reads one POD array into a Column: zero-copy view in memory-backed mode,
  // owned copy in streaming mode.
  template <typename T>
  bool ReadPodColumn(Column<T>* out, uint64_t max_elements = kMaxElements) {
    if (memory_backed()) {
      std::span<const T> view;
      if (!ReadPodView(&view, max_elements)) return false;
      *out = Column<T>::FromView(view);
      return true;
    }
    std::vector<T> values;
    if (!ReadPodVector(&values, max_elements)) return false;
    *out = Column<T>::FromOwned(std::move(values));
    return true;
  }

  // Reads the trailing checksum *without* hashing it, for comparison against
  // the digest of everything consumed so far (`running_checksum()`).
  uint64_t ReadChecksumTrailer();

  bool memory_backed() const { return data_ != nullptr; }
  // Absolute file offset of the cursor (memory-backed mode).
  uint64_t position() const { return pos_; }
  // Bytes between the cursor and the end of the buffer (memory-backed
  // mode; 0 when streaming).
  uint64_t bytes_left() const { return memory_backed() ? size_ - pos_ : 0; }

  // The owner of the backing bytes in memory-backed mode (the file mapping);
  // structures that adopt zero-copy views hold a copy of this.
  void set_view_owner(std::shared_ptr<const void> owner) {
    view_owner_ = std::move(owner);
  }
  const std::shared_ptr<const void>& view_owner() const { return view_owner_; }

  // The running hash of everything consumed (streaming mode).
  const Checksum& running_checksum() const { return checksum_; }
  bool ok() const { return !failed_; }
  void MarkFailed() { failed_ = true; }

 private:
  static constexpr uint64_t kMaxString = 1ull << 32;
  static constexpr uint64_t kMaxElements = 1ull << 40;

  // Consumes the zero padding WritePodSpan emitted before the array payload.
  void SkipAlignmentPadding();

  std::istream* in_ = nullptr;  // streaming mode
  const std::byte* data_ = nullptr;  // memory-backed mode
  uint64_t size_ = 0;
  uint64_t pos_ = sizeof(kSnapshotMagic);  // absolute file offset
  Checksum checksum_{ChecksumKind::kLanes};
  bool failed_ = false;
  std::shared_ptr<const void> view_owner_;
};

// Writes the magic + format version framing (the ontology snapshot family;
// other families write their own magic + version through the writer).
// `version` defaults to the current write version; passing
// `kMinSnapshotVersion` writes a downlevel file (compatibility tests).
// `writer` must hash with `kOntologySnapshotFamily.checksum(version)`.
void WriteSnapshotHeader(SnapshotWriter& writer, std::ostream& raw,
                         uint32_t version = kSnapshotVersion);

// Shared whole-file load framing for every snapshot family (ontology
// snapshots, alignment-result snapshots): magic and version checks, section
// loading via `load_sections`, checksum-trailer verification under the
// hash `family` assigns to the file's version, and the trailing-bytes
// check — with the stream / mmap / auto dispatch and the
// checksum-before-map policy in one place, so the families cannot drift.
//
//  * kStream: the version is read first, and an unsupported one is
//    rejected before any hashing; sections are then read and hashed
//    incrementally, and the trailer is compared afterwards.
//  * kMmap: the version is read (bounds-checked) to pick the hash, and the
//    whole-file trailer is verified over the mapping *before* the reader
//    is constructed; `load_sections` may then adopt zero-copy views (the
//    reader's view_owner pins the mapping).
//  * kAuto: try mmap, fall back to streaming only when the file cannot be
//    mapped. Content errors never fall back.
//
// A supported version with a bad trailer is DataLoss. An unsupported
// version is InvalidArgument — in mmap mode only when the trailer verifies
// under either hash, else DataLoss. The accepted file version is handed to
// `load_sections`, which must consume everything between the version field
// and the trailer, returning a non-OK status on structural errors.
//
// With `hooks` tracing, the trailer check is an "io" span `snapshot.verify`:
// the whole-file hash in mmap mode, only the final comparison when
// streaming (there the hash runs inside the section reads).
util::Status LoadSnapshotFile(
    const std::string& path, SnapshotLoadMode mode,
    const SnapshotFamily& family,
    const std::function<util::Status(SnapshotReader&, uint32_t file_version)>&
        load_sections,
    obs::Hooks hooks = {});

// ---- Term pool section ----

// count, then per term: kind byte + lexical form.
void SaveTermPool(const rdf::TermPool& pool, SnapshotWriter& writer);

// Re-interns every term in id order; `pool` must be empty so the dense ids
// reproduce exactly. The pool is pre-sized from the count, capped by what
// the bytes left can hold (memory-backed) or by a fixed chunk (streaming),
// so a corrupt count cannot drive a giant allocation.
util::Status LoadTermPool(SnapshotReader& reader, rdf::TermPool* pool);

}  // namespace paris::storage

#endif  // PARIS_STORAGE_SNAPSHOT_H_

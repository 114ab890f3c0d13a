#ifndef PARIS_TESTS_SNAPSHOT_RESEAL_H_
#define PARIS_TESTS_SNAPSHOT_RESEAL_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "paris/storage/snapshot.h"

namespace paris::testutil {

// Rewrites the checksum trailer of a whole snapshot file (magic, version,
// sections, trailer) over its possibly mutated body, with the hash `family`
// assigns to the version the file declares — so a deliberate mutation is
// *not* caught by the checksum and reaches the checks behind it.
inline std::string Reseal(std::string bytes,
                          const storage::SnapshotFamily& family) {
  constexpr size_t kMagic = sizeof(storage::kSnapshotMagic);
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + kMagic, sizeof(version));
  const uint64_t checksum =
      storage::ChecksumOf(family.checksum(version), bytes.data() + kMagic,
                          bytes.size() - kMagic - sizeof(uint64_t));
  for (size_t i = 0; i < sizeof(uint64_t); ++i) {
    bytes[bytes.size() - sizeof(uint64_t) + i] =
        static_cast<char>(checksum >> (8 * i));
  }
  return bytes;
}

}  // namespace paris::testutil

#endif  // PARIS_TESTS_SNAPSHOT_RESEAL_H_

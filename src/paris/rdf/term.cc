#include "paris/rdf/term.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "paris/util/hash.h"

namespace paris::rdf {

namespace {

// Lexical bytes are appended to blocks of this size; a term longer than a
// quarter block gets a block of its own, so a fresh block wastes at most a
// quarter of the one it replaces.
constexpr size_t kBlockBytes = size_t{64} << 10;
constexpr size_t kMinSlots = 16;

// The table's 32-bit tag of (lexical, kind); its low bits pick the home
// slot, so a rehash never touches the lexical bytes.
uint32_t Tag(std::string_view lexical, TermKind kind) {
  const uint64_t h = std::hash<std::string_view>{}(lexical) ^
                     static_cast<uint64_t>(kind);
  return static_cast<uint32_t>(util::Mix64(h) >> 32);
}

}  // namespace

size_t TermPool::Probe(std::string_view lexical, TermKind kind,
                       uint32_t tag) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == kEmptySlot) return i;
    if (static_cast<uint32_t>(slot >> 32) != tag) continue;
    const auto id = static_cast<TermId>(slot);
    if (kind_[id] == kind && lexical_[id] == lexical) return i;
  }
}

std::string_view TermPool::Store(std::string_view lexical) {
  const size_t n = lexical.size();
  if (n == 0) return {};
  if (n > kBlockBytes / 4) {
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(n));
    std::memcpy(blocks_.back().get(), lexical.data(), n);
    return {blocks_.back().get(), n};
  }
  if (n > block_left_) {
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(kBlockBytes));
    block_cursor_ = blocks_.back().get();
    block_left_ = kBlockBytes;
  }
  char* out = block_cursor_;
  std::memcpy(out, lexical.data(), n);
  block_cursor_ += n;
  block_left_ -= n;
  return {out, n};
}

void TermPool::Rehash(size_t capacity) {
  std::vector<uint64_t> slots(capacity, kEmptySlot);
  const size_t mask = capacity - 1;
  for (const uint64_t slot : slots_) {
    if (slot == kEmptySlot) continue;
    size_t i = static_cast<size_t>(slot >> 32) & mask;
    while (slots[i] != kEmptySlot) i = (i + 1) & mask;
    slots[i] = slot;
  }
  slots_.swap(slots);
}

void TermPool::Reserve(size_t terms) {
  lexical_.reserve(terms);
  kind_.reserve(terms);
  size_t capacity = std::max(kMinSlots, slots_.size());
  while (capacity / 2 < terms) capacity *= 2;
  if (capacity > slots_.size()) Rehash(capacity);
}

TermId TermPool::Intern(std::string_view lexical, TermKind kind) {
  const uint32_t tag = Tag(lexical, kind);
  size_t at = 0;
  if (!slots_.empty()) {
    at = Probe(lexical, kind, tag);
    if (slots_[at] != kEmptySlot) return static_cast<TermId>(slots_[at]);
  }
  if ((size() + 1) * 2 > slots_.size()) {
    Rehash(std::max(kMinSlots, slots_.size() * 2));
    at = Probe(lexical, kind, tag);
  }
  const auto id = static_cast<TermId>(size());
  lexical_.push_back(Store(lexical));
  kind_.push_back(kind);
  slots_[at] = (uint64_t{tag} << 32) | id;
  return id;
}

std::optional<TermId> TermPool::Find(std::string_view lexical,
                                     TermKind kind) const {
  if (slots_.empty()) return std::nullopt;
  const uint64_t slot = slots_[Probe(lexical, kind, Tag(lexical, kind))];
  if (slot == kEmptySlot) return std::nullopt;
  return static_cast<TermId>(slot);
}

}  // namespace paris::rdf

#ifndef PARIS_CORE_STAMPED_SLOTS_H_
#define PARIS_CORE_STAMPED_SLOTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace paris::core {

// A dense accumulator over the positions [0, n) of a fixed item list (the
// right instances, a target ontology's classes) that starts over in O(1):
// a slot is live only while its stamp equals `epoch_`, and Next() advances
// the epoch, so moving on to the next key costs an increment instead of a
// clear. `touched()` lists the live positions in first-touch order; callers
// that emit from it sort first, so that order never reaches an output.
// Per-worker scratch: one owner, no synchronization.
class StampedSlots {
 public:
  // Grows to at least `n` slots (never shrinks). May allocate: serial
  // phases only.
  void Reserve(size_t n) {
    if (slots_.size() < n) slots_.resize(n);
  }

  // Makes every slot dead.
  void Next() {
    touched_.clear();
    if (++epoch_ == 0) {  // wrapped: a stale stamp could now read as live
      for (Slot& slot : slots_) slot.stamp = 0;
      epoch_ = 1;
    }
  }

  // The value at `position`, first set to `init` (and listed as touched)
  // when the slot was dead.
  double& Touch(uint32_t position, double init) {
    Slot& slot = slots_[position];
    if (slot.stamp != epoch_) {
      slot.stamp = epoch_;
      slot.value = init;
      touched_.push_back(position);
    }
    return slot.value;
  }

  // The value at `position` when the slot is live, else nullptr.
  double* Live(uint32_t position) {
    Slot& slot = slots_[position];
    return slot.stamp == epoch_ ? &slot.value : nullptr;
  }

  // The value of a touched position.
  double value(uint32_t position) const { return slots_[position].value; }

  const std::vector<uint32_t>& touched() const { return touched_; }

 private:
  struct Slot {
    double value = 0.0;
    uint32_t stamp = 0;
  };
  std::vector<Slot> slots_;
  std::vector<uint32_t> touched_;
  uint32_t epoch_ = 0;
};

}  // namespace paris::core

#endif  // PARIS_CORE_STAMPED_SLOTS_H_

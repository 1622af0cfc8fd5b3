// A FIFO for per-entity state held by the thousands (each vehicle's
// shipper queue and link, each ingest series' sealed blocks).
//
// std::deque allocates a 512-byte node and its map when it is constructed,
// so an empty one costs ~640 B of heap. Fifo is a ring over a std::vector
// whose capacity doubles when full: an empty Fifo allocates nothing,
// push_back is amortized O(1) and pop_front is O(1). The capacity stays
// at its high-water mark; a popped slot keeps only a moved-from value.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace vdap::util {

template <class T>
class Fifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The i-th queued element, oldest first. Precondition: i < size().
  T& operator[](std::size_t i) { return slots_[(head_ + i) & mask()]; }
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & mask()];
  }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & mask()] = std::move(value);
    ++size_;
  }

  /// Removes and returns the oldest element. Precondition: !empty().
  T pop_front() {
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) & mask();
    --size_;
    return value;
  }

 private:
  std::size_t mask() const { return slots_.size() - 1; }

  void grow() {
    std::vector<T> bigger(slots_.empty() ? 1 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  // empty, or a power-of-two ring
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace vdap::util

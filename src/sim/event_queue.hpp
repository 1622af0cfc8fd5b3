// Priority event queues for the discrete-event simulator.
//
// Events at equal timestamps fire in insertion order (a strictly increasing
// sequence number breaks ties), which makes simulations deterministic and
// lets components rely on happens-before within a timestep.
//
// EventQueue is a two-level bucketed calendar queue: a wheel of
// fixed-width time buckets covers the near future (push/pop are O(1)
// amortized; a bucket is sorted once, when the cursor reaches it), and a
// binary heap holds everything beyond the horizon, migrating into the
// wheel as the window advances. Events pushed into the cursor bucket
// while it is being consumed wait in a small "late" heap that pop()
// merges with the sorted bucket, so such a push is O(log n) instead of
// a shift of the bucket's tail. Event callbacks live in a slot-recycling
// pool, so memory stays proportional to the number of *pending* events
// instead of growing with every event ever pushed — the property that
// lets a 100k-vehicle shard run for minutes.
//
// Events are ordered by (time, push sequence); ids additionally encode a
// generation so a recycled slot cannot be cancelled through a stale
// handle. tests/sharded_test.cpp drives the queue against the original
// std::priority_queue implementation, kept there as the reference oracle,
// through randomized push/cancel/pop sequences.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/time.hpp"

namespace vdap::sim {

using EventId = std::uint64_t;
using EventFn = std::function<void()>;

class EventQueue {
 public:
  /// `bucket_width` x `buckets` is the calendar horizon (default ~4 s of
  /// sim time); events beyond it wait in the overflow heap.
  explicit EventQueue(SimDuration bucket_width = usec(8192),
                      std::size_t buckets = 512);

  /// Enqueues `fn` to fire at absolute time `at`. Returns an id usable with
  /// cancel().
  EventId push(SimTime at, EventFn fn);

  /// Cancels a pending event. Cancelling an already-fired or unknown id is a
  /// no-op returning false. Cancelled events are dropped lazily on pop.
  bool cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  /// Occupancy introspection (the sharded runtime report): physical entries
  /// currently in the calendar wheel (the late heap included) / the
  /// overflow heap. Both include cancelled-but-not-yet-dropped entries, so
  /// they bound memory, not work.
  std::size_t wheel_entries() const { return wheel_entries_; }
  std::size_t overflow_entries() const { return overflow_.size(); }

  /// Time of the earliest pending event; kTimeMax when empty.
  SimTime next_time();

  /// Pops and returns the earliest event. Precondition: !empty().
  struct Fired {
    SimTime at;
    EventId id;
    EventFn fn;
  };
  Fired pop();

 private:
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;
    bool pending = false;  // false once fired or cancelled
  };
  struct Entry {
    SimTime at;
    std::uint64_t seq;  // tie-break: insertion order
    std::uint32_t slot;
  };
  struct EntryAfter {  // min-heap comparator for the overflow and late heaps
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  using EntryHeap = std::priority_queue<Entry, std::vector<Entry>, EntryAfter>;

  std::uint32_t alloc_slot(EventFn fn);
  void retire_slot(std::uint32_t slot);
  EventId id_of(std::uint32_t slot) const {
    return (static_cast<EventId>(slots_[slot].gen) << 32) | slot;
  }
  void wheel_insert(Entry e);
  /// Advances cursor / re-anchors / migrates overflow until the earliest
  /// live entry is buckets_[cursor_][active_pos_] or late_.top(). Returns
  /// false when nothing is pending.
  bool position();
  /// After position(): whether the earliest entry is late_.top().
  bool late_first() const;
  void advance_bucket();
  void migrate_overflow();

  const SimDuration width_;
  const std::size_t nbuckets_;
  std::vector<std::vector<Entry>> buckets_;
  EntryHeap overflow_;
  // Pushes into the cursor bucket after it was sorted; empty whenever
  // active_sorted_ is false.
  EntryHeap late_;
  SimTime win_lo_ = 0;      // start time of the cursor bucket
  SimTime win_hi_ = 0;      // first time beyond the wheel horizon
  std::size_t cursor_ = 0;  // bucket the window starts at
  bool active_sorted_ = false;  // cursor bucket sorted + being consumed
  std::size_t active_pos_ = 0;  // consume index into the cursor bucket
  std::size_t wheel_entries_ = 0;  // physical entries in the wheel

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
};

}  // namespace vdap::sim

#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace vdap::sim {

// --- EventQueue (bucketed calendar) -----------------------------------------

EventQueue::EventQueue(SimDuration bucket_width, std::size_t buckets)
    : width_(bucket_width > 0 ? bucket_width : 1),
      nbuckets_(buckets > 0 ? buckets : 1),
      buckets_(nbuckets_) {
  win_hi_ = win_lo_ + static_cast<SimDuration>(nbuckets_) * width_;
}

std::uint32_t EventQueue::alloc_slot(EventFn fn) {
  if (!free_slots_.empty()) {
    std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    slots_[s].fn = std::move(fn);
    slots_[s].pending = true;
    return s;
  }
  slots_.push_back(Slot{std::move(fn), 0, true});
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::retire_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  s.pending = false;
  ++s.gen;
  free_slots_.push_back(slot);
}

EventId EventQueue::push(SimTime at, EventFn fn) {
  if (at < 0) at = 0;  // the simulator never schedules into negative time
  std::uint32_t slot = alloc_slot(std::move(fn));
  EventId id = id_of(slot);
  wheel_insert(Entry{at, next_seq_++, slot});
  ++live_count_;
  return id;
}

void EventQueue::wheel_insert(Entry e) {
  if (e.at >= win_hi_) {
    overflow_.push(e);
    return;
  }
  std::size_t b = e.at < win_lo_
                      ? cursor_
                      : static_cast<std::size_t>(e.at / width_) % nbuckets_;
  if (b == cursor_ && active_sorted_) {
    // The cursor bucket is sorted and partially consumed: the late heap
    // holds the entry, and pop() merges the two by (at, seq).
    late_.push(e);
  } else {
    buckets_[b].push_back(e);
  }
  ++wheel_entries_;
}

bool EventQueue::cancel(EventId id) {
  std::uint32_t slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.pending || s.gen != gen) return false;
  s.pending = false;
  s.fn = nullptr;  // release captured state promptly
  --live_count_;
  return true;
}

void EventQueue::migrate_overflow() {
  while (!overflow_.empty() && overflow_.top().at < win_hi_) {
    Entry e = overflow_.top();
    overflow_.pop();
    if (!slots_[e.slot].pending) {
      retire_slot(e.slot);  // cancelled while waiting beyond the horizon
    } else {
      wheel_insert(e);
    }
  }
}

void EventQueue::advance_bucket() {
  buckets_[cursor_].clear();
  active_sorted_ = false;
  active_pos_ = 0;
  cursor_ = (cursor_ + 1) % nbuckets_;
  win_lo_ += width_;
  win_hi_ += width_;
  // The just-vacated bucket now fronts the horizon; pull anything that
  // was waiting right behind it.
  migrate_overflow();
}

bool EventQueue::position() {
  for (;;) {
    if (wheel_entries_ == 0) {
      // The cursor bucket can still hold its consumed prefix (pop only
      // advances active_pos_; advance_bucket is what clears). Drop it now:
      // its slots are already retired, and a re-anchored cursor landing on
      // this bucket must not retire them twice.
      buckets_[cursor_].clear();
      active_sorted_ = false;
      active_pos_ = 0;
      if (overflow_.empty()) return false;
      // Re-anchor the wheel at the overflow's earliest entry (the wheel is
      // physically empty, so the mapping can jump arbitrarily far ahead).
      SimTime t = overflow_.top().at;
      win_lo_ = (t / width_) * width_;
      win_hi_ = win_lo_ + static_cast<SimDuration>(nbuckets_) * width_;
      cursor_ = static_cast<std::size_t>(t / width_) % nbuckets_;
      active_sorted_ = false;
      active_pos_ = 0;
      migrate_overflow();
      continue;
    }
    std::vector<Entry>& b = buckets_[cursor_];
    if (!active_sorted_) {
      if (b.empty()) {
        advance_bucket();
        continue;
      }
      std::sort(b.begin(), b.end(), [](const Entry& x, const Entry& y) {
        if (x.at != y.at) return x.at < y.at;
        return x.seq < y.seq;
      });
      active_sorted_ = true;
      active_pos_ = 0;
    }
    // Cancelled entries are dropped lazily, from the front of both.
    while (active_pos_ < b.size() && !slots_[b[active_pos_].slot].pending) {
      retire_slot(b[active_pos_].slot);
      ++active_pos_;
      --wheel_entries_;
    }
    while (!late_.empty() && !slots_[late_.top().slot].pending) {
      retire_slot(late_.top().slot);
      late_.pop();
      --wheel_entries_;
    }
    if (active_pos_ == b.size() && late_.empty()) {
      advance_bucket();
      continue;
    }
    return true;
  }
}

bool EventQueue::late_first() const {
  if (late_.empty()) return false;
  const std::vector<Entry>& b = buckets_[cursor_];
  return active_pos_ == b.size() || EntryAfter{}(b[active_pos_], late_.top());
}

SimTime EventQueue::next_time() {
  if (!position()) return kTimeMax;
  return late_first() ? late_.top().at : buckets_[cursor_][active_pos_].at;
}

EventQueue::Fired EventQueue::pop() {
  bool found = position();
  assert(found);
  (void)found;
  const bool late = late_first();
  const Entry e = late ? late_.top() : buckets_[cursor_][active_pos_];
  if (late) {
    late_.pop();
  } else {
    ++active_pos_;
  }
  Slot& s = slots_[e.slot];
  Fired fired{e.at, id_of(e.slot), std::move(s.fn)};
  retire_slot(e.slot);
  --wheel_entries_;
  --live_count_;
  return fired;
}

}  // namespace vdap::sim

// The simulator's event queue: an exact monotone radix heap over event times.
//
// A radix heap serves any queue whose pushes are never earlier than its last
// pop, which is the discrete-event clock's contract. An event's key is the
// bit pattern of its time: on non-negative doubles (+inf included) unsigned
// order of the bit patterns is numeric order, and -0.0 is read as +0.0. With
// `last_` the last popped key, an event sits in bucket 0 if its key equals
// `last_` and otherwise in bucket b, where b - 1 is the highest bit in which
// its key differs from `last_`; every key in bucket b exceeds every key in
// the buckets below it. Push appends to one bucket in O(1). Pop takes the
// head of bucket 0; when bucket 0 is empty, the lowest non-empty bucket i is
// refilled: its minimum key, recorded as events were appended, becomes
// `last_`, and one walk over its list moves each event into a bucket below
// i, all of which are empty. An event moves down at most 64 times.
//
// Equal times pop in push order, with no tie-break field:
//  - events with one key always share a bucket: the bucket is a function of
//    the key and `last_`, and a refill from bucket i leaves the events above
//    i where they are (the new `last_` differs from the old one only in bits
//    below i, so their highest differing bit is unchanged);
//  - each bucket is a FIFO list: a push appends at its tail, and a refill
//    walks bucket i from head to tail, appending to buckets that were empty.
// So two events with one key never change their relative order.
//
// Buckets are singly linked lists threaded through one node array whose
// free slots form a free list, so memory stays at the peak number of live
// events. Header-only so tests and microbenchmarks can drive it directly.

#ifndef PDSP_SIM_EVENT_QUEUE_H_
#define PDSP_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

namespace pdsp {

/// \brief Min-queue of (time, payload) events for a monotone clock: every
/// push must be no earlier than the last pop (asserted in Debug builds).
/// Pops ascending by time; among equal times (-0.0 equals +0.0), in push
/// order.
template <typename Payload>
class EventQueue {
 public:
  struct Entry {
    double time;
    Payload payload;
  };

  EventQueue() {
    std::fill(std::begin(head_), std::end(head_), kNil);
    std::fill(std::begin(tail_), std::end(tail_), kNil);
    std::fill(std::begin(min_), std::end(min_), kNoKey);
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Adds an event at `time`: non-negative, not NaN, and no earlier than the
  /// last popped time.
  void Push(double time, const Payload& payload) {
    assert(time >= 0.0 && "event queue: negative or NaN time");
    // -0.0 + 0.0 is +0.0, so both zeros map to key 0.
    const uint64_t key = std::bit_cast<uint64_t>(time + 0.0);
    assert(key >= last_ && "event queue: push earlier than the last pop");
    uint32_t n = free_;
    if (n != kNil) {
      free_ = nodes_[n].next;
    } else {
      n = static_cast<uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[n].key = key;
    nodes_[n].payload = payload;
    Append(BucketOf(key), n);
    ++size_;
  }

  /// Removes and returns the earliest event (the first pushed among equal
  /// times). Requires !empty().
  Entry Pop() {
    assert(size_ > 0 && "event queue: pop from an empty queue");
    if (head_[0] == kNil) Refill();
    const uint32_t n = head_[0];
    Node& node = nodes_[n];
    head_[0] = node.next;
    const Entry entry{std::bit_cast<double>(node.key), node.payload};
    node.next = free_;
    free_ = n;
    --size_;
    return entry;
  }

 private:
  static constexpr uint32_t kNil = std::numeric_limits<uint32_t>::max();
  static constexpr uint64_t kNoKey = std::numeric_limits<uint64_t>::max();
  // Bucket 0 plus one per bit of the key.
  static constexpr int kBuckets = 65;

  struct Node {
    uint64_t key;
    uint32_t next;  // the bucket's next node, or the free list's
    Payload payload;
  };

  int BucketOf(uint64_t key) const {
    return key == last_ ? 0 : 64 - std::countl_zero(key ^ last_);
  }

  void Append(int b, uint32_t n) {
    Node& node = nodes_[n];
    node.next = kNil;
    if (head_[b] == kNil) {
      head_[b] = n;
    } else {
      nodes_[tail_[b]].next = n;
    }
    tail_[b] = n;
    if (b > 0) {
      min_[b] = std::min(min_[b], node.key);
      nonempty_ |= uint64_t{1} << (b - 1);
    }
  }

  /// Bucket 0 is empty: makes the lowest non-empty bucket's minimum the new
  /// `last_` and redistributes that bucket into the (empty) ones below it.
  void Refill() {
    const int i = std::countr_zero(nonempty_) + 1;
    nonempty_ &= nonempty_ - 1;
    last_ = min_[i];
    min_[i] = kNoKey;
    uint32_t n = head_[i];
    head_[i] = kNil;
    while (n != kNil) {
      const uint32_t next = nodes_[n].next;
      Append(BucketOf(nodes_[n].key), n);
      n = next;
    }
  }

  std::vector<Node> nodes_;
  uint32_t free_ = kNil;
  size_t size_ = 0;
  uint64_t last_ = 0;
  // Bit b - 1 is set while bucket b (b >= 1) holds events.
  uint64_t nonempty_ = 0;
  uint32_t head_[kBuckets];
  uint32_t tail_[kBuckets];
  uint64_t min_[kBuckets];  // per bucket b >= 1; kNoKey while empty
};

}  // namespace pdsp

#endif  // PDSP_SIM_EVENT_QUEUE_H_

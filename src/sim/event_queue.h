// The simulator's event queue: an exact monotone radix heap over event times,
// with one digit per byte of the key.
//
// A radix heap serves any queue whose pushes are never earlier than its last
// pop, which is the discrete-event clock's contract. An event's key is the
// bit pattern of its time: on non-negative doubles (+inf included) unsigned
// order of the bit patterns is numeric order, and -0.0 is read as +0.0. With
// `last_` the last popped key, an event whose key equals `last_` sits in
// bucket 0; any other key k sits in bucket (h, v) of level h, where h is the
// highest byte in which k differs from `last_` and v is k's byte h. Since
// k > `last_`, every key in (h, v) exceeds every key in (h, v' < v) and in
// every level below h. Push appends to one bucket in O(1). Pop takes the
// head of bucket 0; when bucket 0 is empty, the lowest non-empty bucket of
// the lowest non-empty level is refilled: its minimum key, recorded as
// events were appended, becomes `last_`, and one walk over its list moves
// each event into bucket 0 or a level below h, all of which are empty. One
// 256-bit occupancy mask per level and an 8-bit mask of non-empty levels find
// that bucket with two bit scans. An event moves at most 8 times.
//
// Equal times pop in push order, with no tie-break field:
//  - events with one key always share a bucket: the bucket is a function of
//    the key and `last_`, and a refill from (h, v) makes `last_` a key of
//    (h, v), so keys in higher levels or in (h, v' > v) still first differ
//    from it in the same byte, which still holds the same value;
//  - each bucket is a FIFO list: a push appends at its tail, and a refill
//    walks bucket (h, v) from head to tail, appending to buckets that were
//    empty.
// So two events with one key never change their relative order.
//
// Buckets are singly linked lists threaded through one node array whose
// free slots form a free list, so memory stays at the peak number of live
// events; the 2,049 bucket heads, tails and minima take 32 KB. Header-only
// so tests and microbenchmarks can drive it directly.

#ifndef PDSP_SIM_EVENT_QUEUE_H_
#define PDSP_SIM_EVENT_QUEUE_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
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
    if (buckets_[0].head == kNil) Refill();
    const uint32_t n = buckets_[0].head;
    Node& node = nodes_[n];
    buckets_[0].head = node.next;
    const Entry entry{std::bit_cast<double>(node.key), node.payload};
    node.next = free_;
    free_ = n;
    --size_;
    return entry;
  }

 private:
  static constexpr uint32_t kNil = std::numeric_limits<uint32_t>::max();
  static constexpr uint64_t kNoKey = std::numeric_limits<uint64_t>::max();
  static constexpr int kLevels = 8;    // one per byte of the key
  static constexpr int kDigits = 256;  // buckets per level
  static constexpr int kMaskWords = kLevels * kDigits / 64;

  struct Node {
    uint64_t key;
    uint32_t next;  // the bucket's next node, or the free list's
    Payload payload;
  };

  struct Bucket {
    uint32_t head = kNil;
    uint32_t tail = kNil;
    uint64_t min = kNoKey;  // for buckets past 0; kNoKey while empty
  };

  /// Bucket 0 for `last_`'s key; 1 + h * 256 + v for bucket (h, v).
  int BucketOf(uint64_t key) const {
    if (key == last_) return 0;
    const int h = (63 - std::countl_zero(key ^ last_)) / 8;
    return 1 + h * kDigits + static_cast<int>((key >> (8 * h)) & 0xff);
  }

  void Append(int b, uint32_t n) {
    Node& node = nodes_[n];
    Bucket& bucket = buckets_[b];
    node.next = kNil;
    if (bucket.head == kNil) {
      bucket.head = n;
    } else {
      nodes_[bucket.tail].next = n;
    }
    bucket.tail = n;
    if (b > 0) {
      if (node.key < bucket.min) bucket.min = node.key;
      const int i = b - 1;
      mask_[i / 64] |= uint64_t{1} << (i % 64);
      levels_ |= 1u << (i / kDigits);
    }
  }

  /// Bucket 0 is empty: makes the minimum of the lowest non-empty bucket of
  /// the lowest non-empty level the new `last_` and redistributes that
  /// bucket into bucket 0 and the (empty) levels below.
  void Refill() {
    const int h = std::countr_zero(levels_);
    uint64_t* words = &mask_[h * (kDigits / 64)];
    int w = 0;
    while (words[w] == 0) ++w;
    const int b = 1 + h * kDigits + w * 64 + std::countr_zero(words[w]);
    words[w] &= words[w] - 1;
    if ((words[0] | words[1] | words[2] | words[3]) == 0) {
      levels_ &= ~(1u << h);
    }
    Bucket& bucket = buckets_[b];
    last_ = bucket.min;
    uint32_t n = bucket.head;
    bucket = Bucket{};
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
  // Bit h is set while level h holds events; bit i of mask_ while bucket
  // 1 + i does.
  uint32_t levels_ = 0;
  uint64_t mask_[kMaskWords] = {};
  Bucket buckets_[1 + kLevels * kDigits];
};

}  // namespace pdsp

#endif  // PDSP_SIM_EVENT_QUEUE_H_

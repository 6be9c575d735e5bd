// Flat keyed operator state: the per-key tables behind time-window panes,
// count-window buffers and window-join row chains (operators.cc).
//
// KeyedTable<V> maps a key Value to a per-key state V with open addressing:
// a power-of-two array of (hash, entry index) slots probed linearly, and the
// entries themselves dense in one vector. A lookup touches one slot run and
// one entry, no key allocates a node, and Erase swap-removes the entry and
// shifts the probe run back over the gap, so there are no tombstones.
//
// Key identity is the ordered map's equivalence, !(a < b) && !(b < a), on
// every typed key column: numbers compare by AsNumeric() (3 and 3.0 are one
// key, so are -0.0 and 0.0, and so are int64 keys that round to one double)
// and strings by their bytes. Value::operator< is no strict weak order on
// NaN or on strings mixed with numbers (reachable only through a promoted
// column), so those get a defined rule instead: all NaNs are one key,
// ordered after every number, and a string never equals a number, with
// numbers ordered before strings. KeyLess is that order; it equals
// Value::operator< wherever the latter is a strict weak order, so sorting
// entries() by it reproduces the ordered map's iteration order.

#ifndef PDSP_RUNTIME_KEYED_STATE_H_
#define PDSP_RUNTIME_KEYED_STATE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "src/data/value.h"

namespace pdsp {

/// Whether `a` and `b` are one key (see the file comment).
inline bool KeyEqual(const Value& a, const Value& b) {
  if (a.is_string() || b.is_string()) {
    return a.is_string() && b.is_string() && a.AsString() == b.AsString();
  }
  const double x = a.AsNumeric();
  const double y = b.AsNumeric();
  return x == y || (std::isnan(x) && std::isnan(y));
}

/// Strict weak order on keys: numbers ascending, then NaN, then strings by
/// bytes. Keys that are not KeyLess either way are KeyEqual.
inline bool KeyLess(const Value& a, const Value& b) {
  if (a.is_string() || b.is_string()) {
    if (!b.is_string()) return false;
    if (!a.is_string()) return true;
    return a.AsString() < b.AsString();
  }
  const double x = a.AsNumeric();
  const double y = b.AsNumeric();
  if (std::isnan(x)) return false;
  return x < y || std::isnan(y);
}

/// Hash of a key's class: KeyEqual keys hash alike. Numbers hash their
/// canonical double (one NaN, +0.0), so unlike Value::Hash() two int64 keys
/// that round to one double collide, as the key identity requires.
inline uint64_t KeyHash(const Value& key) {
  uint64_t h = 0;
  if (key.is_string()) {
    h = std::hash<std::string_view>{}(key.AsString());
  } else {
    double d = key.AsNumeric();
    if (std::isnan(d)) {
      d = std::numeric_limits<double>::quiet_NaN();
    } else if (d == 0.0) {
      d = 0.0;
    }
    std::memcpy(&h, &d, sizeof(h));
  }
  // splitmix64's finalizer: small integers and doubles differ mostly in
  // high bits, and the slot index is taken from the low ones.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// \brief Per-key operator state in one flat open-addressing table.
template <typename V>
class KeyedTable {
 public:
  using Entry = std::pair<Value, V>;

  /// The state of `key`, or nullptr.
  V* Find(const Value& key) {
    const size_t slot = FindSlot(key, Hash32(key));
    return slot == kNotFound ? nullptr : &entries_[slots_[slot].index].second;
  }

  /// The state of `key`, value-initialized when the key is new. The first
  /// key of a class is the one entries() keeps (as the map's operator[]).
  /// The reference lives until the next FindOrInsert, Erase or Clear.
  V& FindOrInsert(const Value& key) {
    const uint32_t hash = Hash32(key);
    size_t slot = 0;
    if (!slots_.empty()) {
      for (slot = hash & mask_; slots_[slot].index != kEmpty;
           slot = Next(slot)) {
        if (Matches(slots_[slot], hash, key)) {
          return entries_[slots_[slot].index].second;
        }
      }
    }
    if ((entries_.size() + 1) * 2 > slots_.size()) {
      Grow();
      slot = EmptySlotFor(hash);
    }
    slots_[slot] = {hash, static_cast<uint32_t>(entries_.size())};
    entries_.emplace_back(key, V{});
    return entries_.back().second;
  }

  /// Removes `key`'s entry if there is one; the last entry moves into its
  /// place in entries().
  void Erase(const Value& key) {
    const size_t slot = FindSlot(key, Hash32(key));
    if (slot == kNotFound) return;
    const uint32_t index = slots_[slot].index;
    RemoveSlot(slot);
    const auto last = static_cast<uint32_t>(entries_.size() - 1);
    if (index != last) {
      size_t moved = Hash32(entries_[last].first) & mask_;
      while (slots_[moved].index != last) moved = Next(moved);
      slots_[moved].index = index;
      entries_[index] = std::move(entries_[last]);
    }
    entries_.pop_back();
  }

  /// Removes every entry and keeps the storage for the next keys.
  void Clear() {
    if (entries_.empty()) return;
    entries_.clear();
    std::fill(slots_.begin(), slots_.end(), Slot{0, kEmpty});
  }

  size_t size() const { return entries_.size(); }

  /// Every (first key, state) pair, in no particular order.
  const std::vector<Entry>& entries() const { return entries_; }

  /// Calls fn(V&) on every state, in entries() order; keys stay as they are.
  template <typename Fn>
  void ForEachValue(Fn&& fn) {
    for (Entry& entry : entries_) fn(entry.second);
  }

 private:
  struct Slot {
    uint32_t hash;
    uint32_t index;  // into entries_; kEmpty marks a free slot
  };
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  static constexpr size_t kNotFound = std::numeric_limits<size_t>::max();
  static constexpr size_t kMinSlots = 8;

  static uint32_t Hash32(const Value& key) {
    return static_cast<uint32_t>(KeyHash(key));
  }
  size_t Next(size_t slot) const { return (slot + 1) & mask_; }
  bool Matches(const Slot& slot, uint32_t hash, const Value& key) const {
    return slot.hash == hash && KeyEqual(entries_[slot.index].first, key);
  }

  size_t FindSlot(const Value& key, uint32_t hash) const {
    if (slots_.empty()) return kNotFound;
    for (size_t slot = hash & mask_; slots_[slot].index != kEmpty;
         slot = Next(slot)) {
      if (Matches(slots_[slot], hash, key)) return slot;
    }
    return kNotFound;
  }

  size_t EmptySlotFor(uint32_t hash) const {
    size_t slot = hash & mask_;
    while (slots_[slot].index != kEmpty) slot = Next(slot);
    return slot;
  }

  // Doubles the slot array, so the load stays at most one half, and
  // re-places every slot by its stored hash.
  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max(kMinSlots, old.size() * 2), Slot{0, kEmpty});
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.index != kEmpty) slots_[EmptySlotFor(slot.hash)] = slot;
    }
  }

  // Frees `gap` and closes it (Knuth's Algorithm R): each later slot of the
  // probe run whose path from its home passes the gap moves back into it,
  // leaving a new gap behind, until the run ends at a free slot.
  void RemoveSlot(size_t gap) {
    for (size_t slot = Next(gap); slots_[slot].index != kEmpty;
         slot = Next(slot)) {
      const size_t home = slots_[slot].hash & mask_;
      if (((slot - home) & mask_) >= ((slot - gap) & mask_)) {
        slots_[gap] = slots_[slot];
        gap = slot;
      }
    }
    slots_[gap] = Slot{0, kEmpty};
  }

  std::vector<Slot> slots_;
  std::vector<Entry> entries_;
  size_t mask_ = 0;
};

}  // namespace pdsp

#endif  // PDSP_RUNTIME_KEYED_STATE_H_

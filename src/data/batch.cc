#include "src/data/batch.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace pdsp {
namespace data {

namespace {

template <typename T>
T Load(const char* p) {
  T word;
  std::memcpy(&word, p, sizeof(T));
  return word;
}

uint64_t Mix(uint64_t h) {
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 31);
}

// Hash of a non-empty short string for the intern table, from fixed-size
// loads only: whole 8-byte words and an overlapping last word, or two
// overlapping 4-byte halves, or three bytes. Only where a string lands in
// the table depends on it.
uint32_t InternHash(std::string_view s) {
  const char* p = s.data();
  const size_t n = s.size();
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ n;
  if (n >= 8) {
    for (size_t i = 0; i + 8 < n; i += 8) h = Mix(h ^ Load<uint64_t>(p + i));
    h = Mix(h ^ Load<uint64_t>(p + n - 8));
  } else if (n >= 4) {
    h = Mix(h ^ Load<uint32_t>(p) ^
            (uint64_t{Load<uint32_t>(p + n - 4)} << 32));
  } else {
    const auto byte = [](char c) { return uint64_t{static_cast<uint8_t>(c)}; };
    h = Mix(h ^ byte(p[0]) ^ (byte(p[n / 2]) << 8) ^ (byte(p[n - 1]) << 16));
  }
  return static_cast<uint32_t>((h * 0x94d049bb133111ebULL) >> 32);
}

// memcmp(a, b, n) == 0 for short strings, with the same loads as
// InternHash instead of a library call.
bool ShortEqual(const char* a, const char* b, size_t n) {
  if (n >= 8) {
    for (size_t i = 0; i + 8 < n; i += 8) {
      if (Load<uint64_t>(a + i) != Load<uint64_t>(b + i)) return false;
    }
    return Load<uint64_t>(a + n - 8) == Load<uint64_t>(b + n - 8);
  }
  if (n >= 4) {
    return Load<uint32_t>(a) == Load<uint32_t>(b) &&
           Load<uint32_t>(a + n - 4) == Load<uint32_t>(b + n - 4);
  }
  return a[0] == b[0] && a[n / 2] == b[n / 2] && a[n - 1] == b[n - 1];
}

}  // namespace

std::string_view StringArena::Add(std::string_view s) {
  if (s.empty()) return std::string_view();
  if (chunks_.empty() || chunks_.back().cap - chunks_.back().used < s.size()) {
    // Chunks grow geometrically from kMinChunkBytes to kChunkBytes: the
    // engine builds a fresh batch per operator firing, and a typical firing
    // holds a handful of short strings — an eager 64 KiB first chunk would
    // dominate the whole data plane's allocation volume (observed ~60x on
    // WC's bytes-per-tuple budget). Large batches still converge to full-
    // size chunks after a few doublings.
    Chunk chunk;
    const size_t last_cap = chunks_.empty() ? 0 : chunks_.back().cap;
    chunk.cap = std::min(std::max(kMinChunkBytes, last_cap * 2), kChunkBytes);
    chunk.cap = std::max(chunk.cap, s.size());
    chunk.bytes = std::make_unique<char[]>(chunk.cap);
    chunks_.push_back(std::move(chunk));
  }
  Chunk& chunk = chunks_.back();
  char* dest = chunk.bytes.get() + chunk.used;
  std::copy(s.begin(), s.end(), dest);
  chunk.used += s.size();
  total_bytes_ += s.size();
  return std::string_view(dest, s.size());
}

void StringArena::Clear() {
  if (chunks_.size() > 1) {
    auto largest = std::max_element(
        chunks_.begin(), chunks_.end(),
        [](const Chunk& a, const Chunk& b) { return a.cap < b.cap; });
    Chunk keep = std::move(*largest);
    chunks_.clear();
    chunks_.push_back(std::move(keep));
  }
  if (!chunks_.empty()) chunks_.front().used = 0;
  total_bytes_ = 0;
}

std::string_view StringInternTable::Intern(std::string_view s,
                                           StringArena* arena) {
  const uint32_t hash = InternHash(s);
  if (!slots_) Allocate(kMinSlots);
  uint32_t i = hash & mask_;
  for (; slots_[i].data != nullptr; i = (i + 1) & mask_) {
    const Slot& slot = slots_[i];
    if (slot.hash == hash && slot.size == s.size() &&
        ShortEqual(slot.data, s.data(), s.size())) {
      return std::string_view(slot.data, slot.size);
    }
  }
  if ((size_ + 1) * 2 > mask_ + 1) {
    Grow();
    i = hash & mask_;
    while (slots_[i].data != nullptr) i = (i + 1) & mask_;
  }
  const std::string_view stored = arena->Add(s);
  slots_[i] = {stored.data(), static_cast<uint32_t>(s.size()), hash};
  ++size_;
  return stored;
}

void StringInternTable::Clear() {
  if (size_ == 0) return;
  // The smallest table that held this batch's strings at a load of one
  // half; one over four times that size grew for an earlier batch.
  uint32_t needed = kMinSlots;
  while (needed < 2 * size_) needed *= 2;
  if (mask_ + 1 > 4 * needed) {
    Allocate(needed);
  } else {
    std::fill(slots_.get(), slots_.get() + mask_ + 1, Slot{nullptr, 0, 0});
  }
  size_ = 0;
}

void StringInternTable::Allocate(uint32_t slots) {
  slots_ = std::make_unique<Slot[]>(slots);  // value-initialized: all free
  mask_ = slots - 1;
}

void StringInternTable::Grow() {
  std::unique_ptr<Slot[]> old = std::move(slots_);
  const uint32_t old_slots = mask_ + 1;
  Allocate(2 * old_slots);
  for (uint32_t j = 0; j < old_slots; ++j) {
    if (old[j].data == nullptr) continue;
    uint32_t i = old[j].hash & mask_;
    while (slots_[i].data != nullptr) i = (i + 1) & mask_;
    slots_[i] = old[j];
  }
}

Batch::Batch(BatchLayout layout) : layout_(std::move(layout)) {
  columns_.resize(layout_.NumColumns());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].type = layout_.column_type(i);
  }
}

void Batch::Clear() {
  for (Column& c : columns_) {
    c.ints.clear();
    c.doubles.clear();
    c.strings.clear();
    c.mixed.clear();
    c.promoted = false;
  }
  event_time_.clear();
  birth_.clear();
  attr_id_.clear();
  arena_.Clear();
  intern_.Clear();
}

void Batch::Reserve(size_t rows) {
  for (Column& c : columns_) {
    switch (c.type) {
      case DataType::kInt:
        c.ints.reserve(rows);
        break;
      case DataType::kDouble:
        c.doubles.reserve(rows);
        break;
      case DataType::kString:
        c.strings.reserve(rows);
        break;
    }
  }
  event_time_.reserve(rows);
  birth_.reserve(rows);
  attr_id_.reserve(rows);
}

void Batch::AppendTuple(const Tuple& tuple, double birth, uint32_t attr_id) {
  assert(tuple.values.size() == columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    AppendValue(c, tuple.values[c]);
  }
  FinishRow(tuple.event_time, birth, attr_id);
}

void Batch::AppendInt(size_t col, int64_t v) {
  Column& c = columns_[col];
  if (c.promoted || c.type != DataType::kInt) {
    AppendValue(col, Value(v));
    return;
  }
  c.ints.push_back(v);
}

void Batch::AppendDouble(size_t col, double v) {
  Column& c = columns_[col];
  if (c.promoted || c.type != DataType::kDouble) {
    AppendValue(col, Value(v));
    return;
  }
  c.doubles.push_back(v);
}

void Batch::AppendString(size_t col, std::string_view v) {
  Column& c = columns_[col];
  if (c.promoted || c.type != DataType::kString) {
    AppendValue(col, Value(std::string(v)));
    return;
  }
  c.strings.push_back(InternOrAdd(v));
}

void Batch::AppendValue(size_t col, const Value& v) {
  Column& c = columns_[col];
  if (!c.promoted && v.type() == c.type) {
    switch (c.type) {
      case DataType::kInt:
        c.ints.push_back(v.AsInt());
        return;
      case DataType::kDouble:
        c.doubles.push_back(v.AsDouble());
        return;
      case DataType::kString:
        c.strings.push_back(InternOrAdd(v.AsString()));
        return;
    }
  }
  if (!c.promoted) Promote(col);
  c.mixed.push_back(v);
}

void Batch::FinishRow(double event_time, double birth, uint32_t attr_id) {
#ifndef NDEBUG
  for (const Column& c : columns_) assert(c.size() == event_time_.size() + 1);
#endif
  event_time_.push_back(event_time);
  birth_.push_back(birth);
  attr_id_.push_back(attr_id);
}

void Batch::AppendRange(const Batch& src, size_t begin, size_t end) {
  assert(NumColumns() == src.NumColumns());
  assert(begin <= end && end <= src.NumRows());
  for (size_t col = 0; col < columns_.size(); ++col) {
    const Column& s = src.columns_[col];
    Column& d = columns_[col];
    if (s.promoted || d.promoted || s.type != d.type) {
      for (size_t r = begin; r < end; ++r) AppendCell(col, src, r, col);
      continue;
    }
    switch (d.type) {
      case DataType::kInt:
        d.ints.insert(d.ints.end(), s.ints.begin() + begin,
                      s.ints.begin() + end);
        break;
      case DataType::kDouble:
        d.doubles.insert(d.doubles.end(), s.doubles.begin() + begin,
                         s.doubles.begin() + end);
        break;
      case DataType::kString:
        // Re-copy payloads: views must point into this batch's arena.
        for (size_t r = begin; r < end; ++r) {
          d.strings.push_back(InternOrAdd(s.strings[r]));
        }
        break;
    }
  }
  event_time_.insert(event_time_.end(), src.event_time_.begin() + begin,
                     src.event_time_.begin() + end);
  birth_.insert(birth_.end(), src.birth_.begin() + begin,
                src.birth_.begin() + end);
  attr_id_.insert(attr_id_.end(), src.attr_id_.begin() + begin,
                  src.attr_id_.begin() + end);
}

void Batch::AppendGather(const Batch& src, const SelectionVector& sel) {
  assert(NumColumns() == src.NumColumns());
  for (size_t col = 0; col < columns_.size(); ++col) {
    const Column& s = src.columns_[col];
    Column& d = columns_[col];
    if (s.promoted || d.promoted || s.type != d.type) {
      for (uint32_t r : sel) AppendCell(col, src, r, col);
      continue;
    }
    switch (d.type) {
      case DataType::kInt:
        for (uint32_t r : sel) d.ints.push_back(s.ints[r]);
        break;
      case DataType::kDouble:
        for (uint32_t r : sel) d.doubles.push_back(s.doubles[r]);
        break;
      case DataType::kString:
        for (uint32_t r : sel) d.strings.push_back(InternOrAdd(s.strings[r]));
        break;
    }
  }
  for (uint32_t r : sel) {
    event_time_.push_back(src.event_time_[r]);
    birth_.push_back(src.birth_[r]);
    attr_id_.push_back(src.attr_id_[r]);
  }
}

void Batch::AppendCell(size_t col, const Batch& src, size_t row,
                       size_t src_col) {
  const Column& s = src.columns_[src_col];
  if (s.promoted) {
    AppendValue(col, s.mixed[row]);
    return;
  }
  switch (s.type) {
    case DataType::kInt:
      AppendInt(col, s.ints[row]);
      return;
    case DataType::kDouble:
      AppendDouble(col, s.doubles[row]);
      return;
    case DataType::kString:
      AppendString(col, s.strings[row]);
      return;
  }
}

const int64_t* Batch::IntData(size_t col) const {
  const Column& c = columns_[col];
  if (c.promoted || c.type != DataType::kInt) return nullptr;
  return c.ints.data();
}

const double* Batch::DoubleData(size_t col) const {
  const Column& c = columns_[col];
  if (c.promoted || c.type != DataType::kDouble) return nullptr;
  return c.doubles.data();
}

const std::string_view* Batch::StringData(size_t col) const {
  const Column& c = columns_[col];
  if (c.promoted || c.type != DataType::kString) return nullptr;
  return c.strings.data();
}

Value Batch::ValueAt(size_t row, size_t col) const {
  const Column& c = columns_[col];
  if (c.promoted) return c.mixed[row];
  switch (c.type) {
    case DataType::kInt:
      return Value(c.ints[row]);
    case DataType::kDouble:
      return Value(c.doubles[row]);
    case DataType::kString:
      return Value(std::string(c.strings[row]));
  }
  return Value();
}

double Batch::NumericAt(size_t row, size_t col) const {
  const Column& c = columns_[col];
  if (c.promoted) return c.mixed[row].AsNumeric();
  switch (c.type) {
    case DataType::kInt:
      return static_cast<double>(c.ints[row]);
    case DataType::kDouble:
      return c.doubles[row];
    case DataType::kString:
      return static_cast<double>(c.strings[row].size());
  }
  return 0.0;
}

std::optional<std::string_view> Batch::StringAt(size_t row,
                                                size_t col) const {
  const Column& c = columns_[col];
  if (c.promoted) {
    const Value& v = c.mixed[row];
    if (!v.is_string()) return std::nullopt;
    return std::string_view(v.AsString());
  }
  if (c.type != DataType::kString) return std::nullopt;
  return c.strings[row];
}

Tuple Batch::RowTuple(size_t row) const {
  Tuple tuple;
  tuple.values.reserve(columns_.size());
  for (size_t col = 0; col < columns_.size(); ++col) {
    tuple.values.push_back(ValueAt(row, col));
  }
  tuple.event_time = event_time_[row];
  return tuple;
}

size_t Batch::promotions() const {
  size_t promoted = 0;
  for (const Column& c : columns_) promoted += c.promoted ? 1 : 0;
  return promoted;
}

size_t Batch::WireSize(size_t begin, size_t end) const {
  assert(begin <= end && end <= NumRows());
  size_t bytes = 8 * (end - begin);  // timestamps
  for (const Column& c : columns_) {
    if (c.promoted) {
      for (size_t r = begin; r < end; ++r) bytes += c.mixed[r].WireSize();
      continue;
    }
    switch (c.type) {
      case DataType::kInt:
      case DataType::kDouble:
        bytes += 8 * (end - begin);
        break;
      case DataType::kString:
        for (size_t r = begin; r < end; ++r) {
          bytes += c.strings[r].size() + 4;  // length prefix
        }
        break;
    }
  }
  return bytes;
}

void Batch::Promote(size_t col) {
  Column& c = columns_[col];
  assert(!c.promoted);
  const size_t rows = c.size();
  c.mixed.reserve(rows);
  switch (c.type) {
    case DataType::kInt:
      for (int64_t v : c.ints) c.mixed.push_back(Value(v));
      c.ints.clear();
      break;
    case DataType::kDouble:
      for (double v : c.doubles) c.mixed.push_back(Value(v));
      c.doubles.clear();
      break;
    case DataType::kString:
      for (std::string_view v : c.strings) {
        c.mixed.push_back(Value(std::string(v)));
      }
      c.strings.clear();
      break;
  }
  c.promoted = true;
}

std::string_view Batch::InternOrAdd(std::string_view v) {
  if (v.size() > kInternMaxBytes) return arena_.Add(v);
  if (v.empty()) return std::string_view();
  return intern_.Intern(v, &arena_);
}

}  // namespace data
}  // namespace pdsp

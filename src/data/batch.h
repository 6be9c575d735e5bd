// Columnar micro-batches: the unit of flow on the hot data path.
//
// A Batch holds N stream elements in schema-specialized columnar form —
// one typed vector per schema field (int64/double columns are contiguous
// arrays; string columns are views into an arena of stable chunks with
// short strings interned per batch) plus three per-row system columns:
// event time, birth (earliest contributing source tuple's production time)
// and the latency-attribution handle (see src/runtime/element.h).
// Vectorized kernels (src/runtime/kernels.h) filter, hash, aggregate and
// partition over columns directly. Operators that work row by row read
// cells through RowView (UDOs) or keep whole rows in a Batch of their own
// (join buffers, filled with AppendRange and copied out with AppendCell),
// and append their outputs per column.
//
// Layout rules:
//  - The column set and types come from a BatchLayout derived from the
//    operator's output Schema (query/batch_layout.h). Appends that match
//    the layout go to the typed vector; a value whose type disagrees with
//    its column promotes the whole column to a dynamically typed fallback
//    (`mixed`) so round-tripping is always exact — promotion is a
//    correctness escape hatch, counted via promotions(), not a hot path.
//  - Batches are move-only. Copying rows between batches goes through
//    AppendRange/AppendGather (selection-vector gather) or AppendCell,
//    which re-copy string payloads into the destination arena. A source
//    column whose type differs from the destination's is appended value by
//    value and promotes the destination, so the copies are total.
//  - A SelectionVector is a list of row indices into a batch; kernels
//    produce and consume them (filter survivors, per-destination
//    partitions) so data is gathered once, at routing time.

#ifndef PDSP_DATA_BATCH_H_
#define PDSP_DATA_BATCH_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/data/value.h"

namespace pdsp {
namespace data {

/// Row indices into a Batch (kernel currency: filter survivors, partition
/// membership). Indices are in increasing order unless a kernel documents
/// otherwise (FlatMap repeats indices to replicate rows).
using SelectionVector = std::vector<uint32_t>;

/// \brief Column types of a batch, derived from a Schema. Kept separate
/// from Schema so the data plane does not depend on field names.
class BatchLayout {
 public:
  BatchLayout() = default;
  explicit BatchLayout(const Schema& schema) {
    types_.reserve(schema.NumFields());
    for (const Field& f : schema.fields()) types_.push_back(f.type);
  }
  explicit BatchLayout(std::vector<DataType> types)
      : types_(std::move(types)) {}

  size_t NumColumns() const { return types_.size(); }
  DataType column_type(size_t i) const { return types_[i]; }
  const std::vector<DataType>& types() const { return types_; }

  bool operator==(const BatchLayout& other) const {
    return types_ == other.types_;
  }

 private:
  std::vector<DataType> types_;
};

/// \brief Append-only byte arena with stable storage: string payloads live
/// in fixed chunks that never reallocate, so string_views into the arena
/// stay valid for the life of the batch (including across moves).
class StringArena {
 public:
  /// Copies `s` into the arena and returns a stable view.
  std::string_view Add(std::string_view s);

  size_t TotalBytes() const { return total_bytes_; }

  /// Forgets every string. The largest chunk stays, rewound, so a batch
  /// cleared for reuse does not allocate again for its first strings; the
  /// others are freed.
  void Clear();

 private:
  // First chunk is small (a per-firing batch usually holds a handful of
  // short strings); subsequent chunks double up to kChunkBytes.
  static constexpr size_t kMinChunkBytes = 256;
  static constexpr size_t kChunkBytes = 64 * 1024;

  struct Chunk {
    std::unique_ptr<char[]> bytes;
    size_t used = 0;
    size_t cap = 0;
  };

  std::vector<Chunk> chunks_;
  size_t total_bytes_ = 0;
};

/// \brief A batch's intern table for short strings: open addressing over
/// 16-byte slots (arena pointer, length, hash), probed linearly at a load of
/// at most one half. Slots are allocated at the first string, 8 of them.
class StringInternTable {
 public:
  StringInternTable() = default;
  // Moves leave the source empty, so a moved-from batch stays usable.
  StringInternTable(StringInternTable&& other) noexcept
      : slots_(std::move(other.slots_)),
        mask_(std::exchange(other.mask_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  StringInternTable& operator=(StringInternTable&& other) noexcept {
    slots_ = std::move(other.slots_);
    mask_ = std::exchange(other.mask_, 0);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  /// The arena copy equal to `s`, added to `arena` if there is none yet.
  /// `s` is non-empty and short (Batch interns up to kInternMaxBytes).
  std::string_view Intern(std::string_view s, StringArena* arena);

  /// Forgets every string, in time proportional to the strings interned
  /// since the last Clear: a table much larger than they needed (one grown
  /// for an earlier large batch) is cut back instead of wiped in full.
  void Clear();

 private:
  struct Slot {
    const char* data;  // nullptr marks a free slot
    uint32_t size;
    uint32_t hash;
  };
  static constexpr uint32_t kMinSlots = 8;

  // Reallocates the (empty) table with `slots` free slots.
  void Allocate(uint32_t slots);
  // Doubles the slots and re-places every string by its stored hash.
  void Grow();

  std::unique_ptr<Slot[]> slots_;
  uint32_t mask_ = 0;  // slot count - 1, once allocated
  uint32_t size_ = 0;  // strings interned since the last Clear
};

/// \brief One schema-specialized columnar micro-batch. See file comment.
class Batch {
 public:
  Batch() = default;
  explicit Batch(BatchLayout layout);

  Batch(Batch&&) = default;
  Batch& operator=(Batch&&) = default;
  Batch(const Batch&) = delete;
  Batch& operator=(const Batch&) = delete;

  const BatchLayout& layout() const { return layout_; }
  size_t NumColumns() const { return columns_.size(); }
  size_t NumRows() const { return event_time_.size(); }
  bool empty() const { return event_time_.empty(); }

  /// Drops all rows (layout and arena chunks are kept for reuse).
  void Clear();
  void Reserve(size_t rows);

  // --- row appends (building a batch from dynamically typed tuples) -----

  /// Appends one dynamically typed row. Values that disagree with their
  /// column's layout type promote the column (exact round-trip preserved).
  void AppendTuple(const Tuple& tuple, double birth, uint32_t attr_id);

  // --- columnar appends (operators, generator) ---------------------------
  // Append one value per column (in any column order), then FinishRow once
  // per row. FinishRow asserts all columns reached the new length.

  void AppendInt(size_t col, int64_t v);
  void AppendDouble(size_t col, double v);
  /// Strings of at most kInternMaxBytes are interned per batch (repeated
  /// keys/words share one arena copy); longer payloads are copied as-is.
  void AppendString(size_t col, std::string_view v);
  void AppendValue(size_t col, const Value& v);
  void FinishRow(double event_time, double birth, uint32_t attr_id);

  // --- batch-to-batch copies ---------------------------------------------
  // Exact for any pair of layouts with one column count (checked with
  // assert): a column whose types disagree is copied value by value and
  // promotes the destination, as AppendValue(col, src.ValueAt(row, col)).

  /// Appends rows [begin, end) of `src`.
  void AppendRange(const Batch& src, size_t begin, size_t end);
  /// Appends the selected rows of `src` in selection order (indices may
  /// repeat: FlatMap replication).
  void AppendGather(const Batch& src, const SelectionVector& sel);
  /// Appends cell (row, src_col) of `src` to column `col`: typed from the
  /// source column's raw data, or through its Value when it is promoted.
  void AppendCell(size_t col, const Batch& src, size_t row, size_t src_col);

  // --- column reads -------------------------------------------------------

  DataType column_type(size_t col) const { return columns_[col].type; }
  /// True when the column fell back to dynamically typed storage.
  bool column_promoted(size_t col) const { return columns_[col].promoted; }

  /// Raw typed data; nullptr when the column is promoted or of another
  /// type. Valid until the next append.
  const int64_t* IntData(size_t col) const;
  const double* DoubleData(size_t col) const;
  const std::string_view* StringData(size_t col) const;

  /// Dynamically typed read of one cell (exact: promotion preserves the
  /// original Value).
  Value ValueAt(size_t row, size_t col) const;
  /// Value::AsNumeric semantics: ints/doubles as double, strings by length.
  double NumericAt(size_t row, size_t col) const;
  /// The cell's string, read in place from a typed or a promoted column
  /// (valid until the next append); nullopt when the cell is a number.
  std::optional<std::string_view> StringAt(size_t row, size_t col) const;

  double event_time(size_t row) const { return event_time_[row]; }
  double birth(size_t row) const { return birth_[row]; }
  uint32_t attr_id(size_t row) const { return attr_id_[row]; }

  const std::vector<double>& event_times() const { return event_time_; }
  const std::vector<double>& births() const { return birth_; }
  const std::vector<uint32_t>& attr_ids() const { return attr_id_; }

  /// Materializes one row back into dynamically typed form.
  Tuple RowTuple(size_t row) const;

  /// Wire bytes of rows [begin, end): 8 per timestamp plus per-value sizes,
  /// summed column-wise (must agree exactly with Tuple::WireSize).
  size_t WireSize(size_t begin, size_t end) const;

  /// Number of columns that fell back to dynamically typed storage.
  size_t promotions() const;
  /// Bytes currently held by the string arena.
  size_t ArenaBytes() const { return arena_.TotalBytes(); }

  /// Strings longer than this are not interned (unique payloads like
  /// sentences would only bloat the intern table).
  static constexpr size_t kInternMaxBytes = 32;

 private:
  struct Column {
    DataType type = DataType::kInt;
    bool promoted = false;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<std::string_view> strings;
    std::vector<Value> mixed;  // promotion fallback; empty on the hot path

    size_t size() const {
      if (promoted) return mixed.size();
      switch (type) {
        case DataType::kInt:
          return ints.size();
        case DataType::kDouble:
          return doubles.size();
        case DataType::kString:
          return strings.size();
      }
      return 0;
    }
  };

  /// Moves a column's typed data into dynamically typed storage so a
  /// mismatched value can be stored exactly.
  void Promote(size_t col);

  std::string_view InternOrAdd(std::string_view v);

  BatchLayout layout_;
  std::vector<Column> columns_;
  std::vector<double> event_time_;
  std::vector<double> birth_;
  std::vector<uint32_t> attr_id_;
  StringArena arena_;
  StringInternTable intern_;
};

/// \brief Cheap view of one batch row: what a UDO reads its input through
/// (src/runtime/udo.h). Cells come back dynamically typed, exactly as
/// stored, so promoted columns read the same as typed ones.
class RowView {
 public:
  RowView(const Batch& batch, size_t row) : batch_(&batch), row_(row) {}

  size_t NumValues() const { return batch_->NumColumns(); }
  Value value(size_t col) const { return batch_->ValueAt(row_, col); }
  double Numeric(size_t col) const { return batch_->NumericAt(row_, col); }
  /// The cell's string in place (Batch::StringAt): no copy, no Value.
  std::optional<std::string_view> Text(size_t col) const {
    return batch_->StringAt(row_, col);
  }
  double event_time() const { return batch_->event_time(row_); }
  double birth() const { return batch_->birth(row_); }
  uint32_t attr_id() const { return batch_->attr_id(row_); }

  Tuple ToTuple() const { return batch_->RowTuple(row_); }

 private:
  const Batch* batch_;
  size_t row_;
};

}  // namespace data
}  // namespace pdsp

#endif  // PDSP_DATA_BATCH_H_

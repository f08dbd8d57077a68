// Table: a match-action table in (or aspiring to) first normal form —
// a finite relation over a Schema whose rows pair exact-match values with
// action values (Eq. 1 of the paper).
//
// Storage is columnar (struct-of-arrays): one Column per attribute.
// Every relational operation the pipeline is built from — projection,
// selection, fingerprinting, FD mining's partition construction — is a
// column scan or a key probe, so the column-major layout turns the hot
// loops into contiguous sweeps and drops the per-row heap allocation of
// the former row-of-vectors store (≈3× fewer bytes per rule at fleet
// scale; see BENCH_scale.json). Columns adapt their representation:
// narrow-domain columns intern their values (32-bit ids into an
// append-only pool of distinct values), wide-domain columns spill to
// raw 64-bit storage — see Column.
//
// Two lazy, mutation-tracked acceleration structures ride on top:
//
//  * per-column content fingerprints (column_fingerprint): computed on
//    demand, kept per column and invalidated only when that column's
//    value sequence changes, so the FD-mining partition cache stays warm
//    across cell-wise control-plane patches without rehashing clean
//    columns;
//  * match-key hash indexes (find_row): one per queried column set,
//    built on first probe and extended incrementally on append, making
//    find_row O(1) amortized instead of an O(rows) scan.
//
// Both are internal caches: they never change observable results, and
// equality/fingerprints depend only on (name, schema, cell contents).
// They are NOT synchronized — concurrent access to one Table must be
// confined to the pure readers (at, column, row_view, num_rows); the
// parallel FD miner warms fingerprints on the calling thread for this
// reason.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/attr.hpp"
#include "util/status.hpp"

namespace maton::core {

/// One entry of a match-action table: a full assignment of values to the
/// schema's columns (materialized, row-major).
using Row = std::vector<Value>;

namespace detail {
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
}  // namespace detail

/// Adaptive column store. A column starts *interned*: each cell is a
/// 32-bit id into an append-only pool of the distinct values seen, so a
/// narrow-domain column (ports, VIP tags, metadata) costs 4 bytes per
/// cell instead of 8 and its fingerprint folds over the compact ids.
/// Ids preserve equality — two cells carry the same id iff they hold the
/// same value — so partitioning and FD checks can work on ids directly.
/// When the domain turns out wide (distinct values exceed
/// max(4096, rows/2), e.g. a globally-unique output column) the column
/// spills to raw 64-bit storage once and stays raw: ids would not pay
/// for the pool.
///
/// The content fingerprint is a pure fold over the VALUE sequence —
/// identical for interned and raw representations — so equal contents
/// always fingerprint equal (the partition cache's cross-rebuild reuse
/// criterion). It is cached, folds appends in place, and recomputes
/// after point writes/erases by scanning the 4-byte ids against the
/// resident pool instead of 8 bytes per cell.
class Column {
 public:
  [[nodiscard]] std::size_t size() const noexcept {
    return interned_ ? ids_.size() : raw_.size();
  }
  [[nodiscard]] Value operator[](std::size_t r) const noexcept {
    return interned_ ? pool_[ids_[r]] : raw_[r];
  }
  [[nodiscard]] bool interned() const noexcept { return interned_; }
  /// Interned representation (valid only while interned()).
  [[nodiscard]] std::span<const std::uint32_t> ids() const noexcept {
    return ids_;
  }
  [[nodiscard]] std::span<const Value> pool() const noexcept {
    return pool_;
  }

  void reserve(std::size_t n);
  void push_back(Value v);
  /// Overwrites cell `r`; returns false when the value was already there
  /// (every cache stays valid in that case).
  bool set(std::size_t r, Value v);
  void erase(std::size_t first, std::size_t count);

  [[nodiscard]] std::uint64_t content_fingerprint() const;
  [[nodiscard]] bool content_equals(const Column& other) const;
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  [[nodiscard]] static std::size_t spill_threshold(
      std::size_t rows) noexcept {
    return rows / 2 > 4096 ? rows / 2 : 4096;
  }
  void spill();

  bool interned_ = true;
  std::vector<std::uint32_t> ids_;  // interned cells: pool indices
  std::vector<Value> pool_;         // id → value, append-only
  std::unordered_map<Value, std::uint32_t> lookup_;  // value → id
  std::vector<Value> raw_;          // wide-domain cells, post-spill
  mutable std::uint64_t fp_ = detail::kFnvOffset;  // fold of the values
  mutable bool fp_valid_ = true;  // empty sequence: offset is correct
};

class Table;

/// Lightweight non-owning view of one table entry. Indexing reads
/// straight out of the column store; materialize() produces a Row copy.
/// Invalidated by any mutation of the underlying table.
class RowView {
 public:
  RowView(const Table& table, std::size_t row) noexcept
      : table_(&table), row_(row) {}

  [[nodiscard]] inline Value operator[](std::size_t col) const;
  [[nodiscard]] inline std::size_t size() const noexcept;
  /// Index of this entry within its table.
  [[nodiscard]] std::size_t index() const noexcept { return row_; }
  [[nodiscard]] inline Row materialize() const;

 private:
  const Table* table_;
  std::size_t row_;
};

/// Forward range over a table's entries yielding RowView (the migration
/// target for the former `for (const Row& r : table.rows())` loops).
class RowRange {
 public:
  class iterator {
   public:
    using value_type = RowView;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    iterator() noexcept : table_(nullptr), row_(0) {}
    iterator(const Table* table, std::size_t row) noexcept
        : table_(table), row_(row) {}
    RowView operator*() const noexcept { return RowView(*table_, row_); }
    iterator& operator++() noexcept {
      ++row_;
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator out = *this;
      ++row_;
      return out;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    const Table* table_;
    std::size_t row_;
  };

  RowRange(const Table& table, std::size_t n) noexcept
      : table_(&table), n_(n) {}
  [[nodiscard]] iterator begin() const noexcept { return {table_, 0}; }
  [[nodiscard]] iterator end() const noexcept { return {table_, n_}; }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }

 private:
  const Table* table_;
  std::size_t n_;
};

class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        cols_(schema_.size()) {}

  Table(const Table& other);
  Table(Table&& other) noexcept = default;
  Table& operator=(const Table& other);
  Table& operator=(Table&& other) noexcept = default;
  ~Table() = default;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  [[nodiscard]] const Schema& schema() const noexcept { return schema_; }
  [[nodiscard]] std::size_t num_rows() const noexcept { return num_rows_; }
  [[nodiscard]] std::size_t num_cols() const noexcept { return schema_.size(); }
  [[nodiscard]] bool empty() const noexcept { return num_rows_ == 0; }

  /// Appends an entry; the row width must equal the schema width.
  void add_row(std::span<const Value> row);

  /// Pre-extends every column's capacity for `n` total entries.
  void reserve_rows(std::size_t n);

  /// Overwrites one cell in place. This is the control-plane patching
  /// primitive: an intent that rewrites a few cells of one column leaves
  /// every other column's fingerprint — and therefore its cached mining
  /// partitions — unchanged. Callers must preserve order independence.
  void set_value(std::size_t row, std::size_t col, Value v);

  /// Erases `count` consecutive rows starting at `first`.
  void erase_rows(std::size_t first, std::size_t count);

  /// Materialized copy of entry `i` (row-major).
  [[nodiscard]] Row row(std::size_t i) const;

  /// Copies entry `i` into `out` (resized to the schema width) without
  /// allocating when `out` already has capacity — the per-row primitive
  /// of bulk lowering loops.
  void copy_row_into(std::size_t i, Row& out) const;

  /// Zero-copy view of entry `i`.
  [[nodiscard]] RowView row_view(std::size_t i) const;

  /// Iteration over all entries as RowViews, in row order.
  [[nodiscard]] RowRange rows() const noexcept {
    return RowRange(*this, num_rows_);
  }

  /// One column's value sequence, in row order. The natural access path
  /// for column scans (fingerprints, partitions, FD checks); interned
  /// columns additionally expose their id sequence for scans that only
  /// need equality structure.
  [[nodiscard]] const Column& column(std::size_t col) const;

  [[nodiscard]] Value at(std::size_t row, std::size_t col) const;

  /// Relational projection onto `cols` with duplicate elimination.
  /// Column order in the result follows ascending original index.
  [[nodiscard]] Table project(const AttrSet& cols, std::string name = {}) const;

  /// Rows whose `col` equals `v` (selection).
  [[nodiscard]] Table select_eq(std::size_t col, Value v,
                                std::string name = {}) const;

  /// True when no two rows agree on every column of `cols`.
  /// unique_on(match_set()) is the paper's order-independence requirement
  /// for 1NF.
  [[nodiscard]] bool unique_on(const AttrSet& cols) const;

  /// First pair of row indices that agree on every column of `cols`
  /// (a witness against unique_on), or nullopt when none exists.
  [[nodiscard]] std::optional<std::pair<std::size_t, std::size_t>>
  duplicate_on(const AttrSet& cols) const;

  /// Order independence: the match columns uniquely identify every entry.
  [[nodiscard]] bool is_order_independent() const {
    return unique_on(schema_.match_set());
  }

  /// Index of the first row whose `cols` columns equal `key` (which is
  /// given in ascending-column order), or nullopt. O(1) amortized: the
  /// first probe for a given `cols` builds a hash index over the live
  /// rows; later probes reuse it (appends extend it incrementally,
  /// set_value drops only the indexes covering the touched column).
  [[nodiscard]] std::optional<std::size_t> find_row(
      const AttrSet& cols, std::span<const Value> key) const;

  /// Number of populated match-action fields, the size measure of §2
  /// ("the universal table in Fig. 1a contains 24 match-action fields").
  [[nodiscard]] std::size_t field_count() const noexcept {
    return num_rows_ * schema_.size();
  }

  /// Number of distinct value combinations over `cols`.
  [[nodiscard]] std::size_t distinct_count(const AttrSet& cols) const;

  /// Content fingerprint of one column: a hash of its value sequence in
  /// row order. Equal fingerprints ⇒ (whp) equal column contents, which
  /// is the FD-mining partition-cache reuse criterion — π(X) depends
  /// only on the value sequences of X's columns. Cached per column and
  /// recomputed only after that column's sequence changed (set_value
  /// dirties one column; appends fold into valid fingerprints in place).
  [[nodiscard]] std::uint64_t column_fingerprint(std::size_t col) const;

  /// Whole-table content fingerprint: schema width, row count, and every
  /// cell, in row-major order. Mutating the table changes it. Cached
  /// until the next mutation.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  /// Heap bytes held by the value store plus the lazy caches/indexes
  /// currently materialized (hash-map footprints are estimated from
  /// entry and bucket counts). The BENCH_scale.json bytes/rule metric.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  /// Pretty-printed table (attribute header + typed value rendering).
  /// Large tables are elided: the first kRenderHead and last kRenderTail
  /// entries frame an "… (N more rows)" marker, so printing a
  /// fleet-scale universal table stays O(1) in the row count.
  [[nodiscard]] std::string to_string() const;

  static constexpr std::size_t kRenderHead = 48;
  static constexpr std::size_t kRenderTail = 8;

  /// Equality is relation-level: name, schema and cell contents. The
  /// lazy caches, key indexes, and each column's representation (interned
  /// vs raw, pool order) never participate.
  friend bool operator==(const Table& a, const Table& b) {
    if (a.name_ != b.name_ || a.schema_ != b.schema_ ||
        a.num_rows_ != b.num_rows_) {
      return false;
    }
    for (std::size_t c = 0; c < a.cols_.size(); ++c) {
      if (!a.cols_[c].content_equals(b.cols_[c])) return false;
    }
    return true;
  }

 private:
  friend class RowView;

  /// Hash index over one column set: FNV-1a of the key values (ascending
  /// column order) → row indices carrying that hash, ascending. Probes
  /// verify the actual cells, so hash collisions only cost comparisons.
  struct KeyIndex {
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
    std::size_t rows_indexed = 0;
  };

  void invalidate_all_caches() noexcept;
  [[nodiscard]] std::uint64_t hash_row_key(std::size_t row,
                                           const AttrSet& cols) const;
  /// The flat row set behind duplicate_on, project and distinct_count:
  /// walks the rows in order and calls visit(r, first) with the first
  /// row whose `cols` cells equal row r's (r itself for a key's first
  /// occurrence), until visit returns false. One open-addressed array of
  /// row indices, probed from the FNV fold of the key cells
  /// (hash_row_key); a slot hit compares the cells column by column.
  template <typename Visit>
  void scan_first_rows(const AttrSet& cols, Visit visit) const;

  std::string name_;
  Schema schema_;
  std::size_t num_rows_ = 0;
  /// cols_[c][r] = cell (r, c); every column has num_rows_ entries.
  /// Per-column fingerprints live inside Column.
  std::vector<Column> cols_;

  // --- lazy caches (content-derived; dropped by copy, never compared) --
  mutable std::optional<std::uint64_t> table_fp_;
  mutable std::unordered_map<std::uint64_t, KeyIndex> key_indexes_;
};

inline Value RowView::operator[](std::size_t col) const {
  return table_->cols_[col][row_];
}

inline std::size_t RowView::size() const noexcept {
  return table_->num_cols();
}

inline Row RowView::materialize() const {
  Row out;
  out.reserve(size());
  for (std::size_t c = 0; c < size(); ++c) out.push_back((*this)[c]);
  return out;
}

/// Renders one cell according to the attribute's codec.
[[nodiscard]] std::string format_value(const Attribute& attr, Value v);

}  // namespace maton::core

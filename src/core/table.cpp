#include "core/table.hpp"

#include <algorithm>
#include <bit>

#include "util/contract.hpp"
#include "util/format.hpp"

namespace maton::core {

namespace {

using detail::kFnvOffset;
using detail::kFnvPrime;

/// Slot of an FNV key hash in a table of 2^(64 - shift) slots. The FNV
/// fold carries a cell's low bits only into the hash's low bits and its
/// high bits only into the high ones, so fold the halves together and take
/// the top bits of a Fibonacci multiply.
[[nodiscard]] std::size_t key_slot(std::uint64_t h, unsigned shift) noexcept {
  h ^= h >> 32;
  return static_cast<std::size_t>((h * 0x9e3779b97f4a7c15ULL) >> shift);
}

}  // namespace

void Column::reserve(std::size_t n) {
  if (interned_) {
    ids_.reserve(n);
  } else {
    raw_.reserve(n);
  }
}

std::uint32_t Column::find_id(Value v) const noexcept {
  if (slots_.empty()) return kNoId;
  const auto shift = static_cast<unsigned>(std::countl_zero(slots_.size()) + 1);
  for (std::size_t s = key_slot(v, shift); slots_[s] != 0;
       s = (s + 1) & (slots_.size() - 1)) {
    if (pool_[slots_[s] - 1] == v) return slots_[s] - 1;
  }
  return kNoId;
}

std::uint32_t Column::intern(Value v) {
  pool_.push_back(v);
  // Past half full, re-index the whole pool at twice the size.
  const bool grow = pool_.size() * 2 > slots_.size();
  if (grow) slots_.assign(std::max<std::size_t>(16, slots_.size() * 2), 0);
  const auto shift = static_cast<unsigned>(std::countl_zero(slots_.size()) + 1);
  for (std::size_t id = grow ? 0 : pool_.size() - 1; id < pool_.size(); ++id) {
    std::size_t s = key_slot(pool_[id], shift);
    while (slots_[s] != 0) s = (s + 1) & (slots_.size() - 1);
    slots_[s] = static_cast<std::uint32_t>(id + 1);
  }
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void Column::push_back(Value v) {
  if (interned_) {
    std::uint32_t id = find_id(v);
    if (id == kNoId) {
      if (pool_.size() + 1 > spill_threshold(ids_.size() + 1)) {
        spill();
        raw_.push_back(v);
        return;
      }
      id = intern(v);
    }
    ids_.push_back(id);
    if (fp_valid_) fp_ = (fp_ ^ v) * kFnvPrime;
    return;
  }
  raw_.push_back(v);
  if (fp_valid_) fp_ = (fp_ ^ v) * kFnvPrime;
}

bool Column::set(std::size_t r, Value v) {
  if ((*this)[r] == v) return false;
  if (interned_) {
    if (const std::uint32_t id = find_id(v); id != kNoId) {
      ids_[r] = id;
    } else if (pool_.size() + 1 > spill_threshold(size())) {
      spill();
      raw_[r] = v;
    } else {
      ids_[r] = intern(v);
    }
  } else {
    raw_[r] = v;
  }
  fp_valid_ = false;
  return true;
}

void Column::erase(std::size_t first, std::size_t count) {
  if (interned_) {
    ids_.erase(ids_.begin() + static_cast<std::ptrdiff_t>(first),
               ids_.begin() + static_cast<std::ptrdiff_t>(first + count));
    // Erased rows may leave dead pool entries behind; the pool is
    // append-only and bounded by the distinct values ever seen.
  } else {
    raw_.erase(raw_.begin() + static_cast<std::ptrdiff_t>(first),
               raw_.begin() + static_cast<std::ptrdiff_t>(first + count));
  }
  fp_valid_ = false;
}

void Column::spill() {
  raw_.reserve(ids_.size() + 1);
  for (const std::uint32_t id : ids_) raw_.push_back(pool_[id]);
  ids_.clear();
  ids_.shrink_to_fit();
  pool_.clear();
  pool_.shrink_to_fit();
  slots_.clear();
  slots_.shrink_to_fit();
  interned_ = false;
  // The fingerprint folds values in either representation, so a warm
  // fold stays valid across the spill.
}

std::uint64_t Column::content_fingerprint() const {
  if (!fp_valid_) {
    std::uint64_t h = kFnvOffset;
    if (interned_) {
      // 4-byte scan; the pool resolves ids to values from cache.
      for (const std::uint32_t id : ids_) {
        h ^= pool_[id];
        h *= kFnvPrime;
      }
    } else {
      for (const Value v : raw_) {
        h ^= v;
        h *= kFnvPrime;
      }
    }
    fp_ = h;
    fp_valid_ = true;
  }
  return fp_;
}

bool Column::content_equals(const Column& other) const {
  const std::size_t n = size();
  if (n != other.size()) return false;
  if (interned_ && other.interned_ && pool_ == other.pool_) {
    return ids_ == other.ids_;
  }
  if (!interned_ && !other.interned_) return raw_ == other.raw_;
  for (std::size_t r = 0; r < n; ++r) {
    if ((*this)[r] != other[r]) return false;
  }
  return true;
}

std::size_t Column::memory_bytes() const noexcept {
  std::size_t bytes = ids_.capacity() * sizeof(std::uint32_t) +
                      pool_.capacity() * sizeof(Value) +
                      raw_.capacity() * sizeof(Value) +
                      slots_.capacity() * sizeof(std::uint32_t);
  return bytes;
}

Table::Table(const Table& other)
    : name_(other.name_),
      schema_(other.schema_),
      num_rows_(other.num_rows_),
      cols_(other.cols_) {
  // Key indexes are rebuilt on demand; copying a table (e.g. into a
  // pipeline stage) must not drag an index sized like the table. The
  // columns' own fingerprint caches are content-derived and travel with
  // them.
}

Table& Table::operator=(const Table& other) {
  if (this == &other) return *this;
  name_ = other.name_;
  schema_ = other.schema_;
  num_rows_ = other.num_rows_;
  cols_ = other.cols_;
  invalidate_all_caches();
  return *this;
}

void Table::invalidate_all_caches() noexcept {
  table_fp_.reset();
  key_indexes_.clear();
}

void Table::add_row(std::span<const Value> row) {
  // The message is built only on failure: appending stays allocation-free.
  if (row.size() != schema_.size()) {
    expects(false, "row width does not match schema width in table " + name_);
  }
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    // Columns fold appended cells into their fingerprints in place
    // (FNV-1a is a left fold over the sequence), so appends keep warm
    // fingerprints warm.
    cols_[c].push_back(row[c]);
  }
  ++num_rows_;
  // The whole-table fingerprint mixes the row count before the cells.
  table_fp_.reset();
  // Key indexes extend lazily on the next probe (rows_indexed lags).
}

void Table::reserve_rows(std::size_t n) {
  for (auto& col : cols_) col.reserve(n);
}

void Table::set_value(std::size_t row_idx, std::size_t col, Value v) {
  expects(row_idx < num_rows_, "row index out of range");
  expects(col < schema_.size(), "column index out of range");
  if (!cols_[col].set(row_idx, v)) {
    return;  // no content change; every cache stays valid
  }
  table_fp_.reset();
  // Only indexes that cover the touched column see a different key.
  for (auto it = key_indexes_.begin(); it != key_indexes_.end();) {
    it = ((it->first >> col) & 1) != 0 ? key_indexes_.erase(it)
                                       : std::next(it);
  }
}

void Table::erase_rows(std::size_t first, std::size_t count) {
  expects(first + count <= num_rows_, "row range out of range");
  if (count == 0) return;
  for (auto& col : cols_) col.erase(first, count);
  num_rows_ -= count;
  invalidate_all_caches();
}

Row Table::row(std::size_t i) const {
  expects(i < num_rows_, "row index out of range");
  Row out;
  out.reserve(cols_.size());
  for (const auto& col : cols_) out.push_back(col[i]);
  return out;
}

void Table::copy_row_into(std::size_t i, Row& out) const {
  expects(i < num_rows_, "row index out of range");
  out.resize(cols_.size());
  for (std::size_t c = 0; c < cols_.size(); ++c) out[c] = cols_[c][i];
}

RowView Table::row_view(std::size_t i) const {
  expects(i < num_rows_, "row index out of range");
  return RowView(*this, i);
}

const Column& Table::column(std::size_t col) const {
  expects(col < schema_.size(), "column index out of range");
  return cols_[col];
}

Value Table::at(std::size_t row_idx, std::size_t col) const {
  expects(row_idx < num_rows_, "row index out of range");
  expects(col < schema_.size(), "column index out of range");
  return cols_[col][row_idx];
}

Table Table::project(const AttrSet& cols, std::string name) const {
  std::vector<std::size_t> old_cols;
  Schema sub = schema_.project(cols, &old_cols);
  Table out(name.empty() ? name_ + "[" + schema_.names(cols) + "]"
                         : std::move(name),
            std::move(sub));

  Row proj(old_cols.size());
  scan_first_rows(cols, [&](std::size_t r, std::size_t first) {
    if (first == r) {
      for (std::size_t k = 0; k < old_cols.size(); ++k) {
        proj[k] = cols_[old_cols[k]][r];
      }
      out.add_row(proj);
    }
    return true;
  });
  return out;
}

Table Table::select_eq(std::size_t col, Value v, std::string name) const {
  expects(col < schema_.size(), "column index out of range");
  Table out(name.empty() ? name_ : std::move(name), schema_);
  const Column& probe = cols_[col];
  Row scratch;
  for (std::size_t r = 0; r < num_rows_; ++r) {
    if (probe[r] != v) continue;
    copy_row_into(r, scratch);
    out.add_row(scratch);
  }
  return out;
}

bool Table::unique_on(const AttrSet& cols) const {
  return !duplicate_on(cols).has_value();
}

std::optional<std::pair<std::size_t, std::size_t>> Table::duplicate_on(
    const AttrSet& cols) const {
  std::optional<std::pair<std::size_t, std::size_t>> witness;
  scan_first_rows(cols, [&](std::size_t r, std::size_t first) {
    if (first == r) return true;
    witness.emplace(first, r);
    return false;
  });
  return witness;
}

template <typename Visit>
void Table::scan_first_rows(const AttrSet& cols, Visit visit) const {
  for (std::size_t c : cols) {
    expects(c < schema_.size(), "column index out of range");
  }
  expects(num_rows_ < ~std::uint32_t{0}, "row set index overflow");
  // Slots hold row + 1 (0 = empty), at least twice as many as rows, so
  // linear probes stay short.
  unsigned bits = 4;
  while ((std::size_t{1} << bits) < num_rows_ * 2) ++bits;
  std::vector<std::uint32_t> slots(std::size_t{1} << bits, 0);
  const std::size_t mask = slots.size() - 1;
  for (std::size_t r = 0; r < num_rows_; ++r) {
    std::size_t slot = key_slot(hash_row_key(r, cols), 64 - bits);
    std::size_t first = r;
    for (; slots[slot] != 0; slot = (slot + 1) & mask) {
      const std::size_t other = slots[slot] - 1;
      bool same = true;
      for (std::size_t c : cols) {
        if (cols_[c][other] != cols_[c][r]) {
          same = false;
          break;
        }
      }
      if (same) {
        first = other;
        break;
      }
    }
    if (first == r) slots[slot] = static_cast<std::uint32_t>(r + 1);
    if (!visit(r, first)) return;
  }
}

std::uint64_t Table::hash_row_key(std::size_t row, const AttrSet& cols) const {
  std::uint64_t h = kFnvOffset;
  for (std::size_t c : cols) {
    h ^= cols_[c][row];
    h *= kFnvPrime;
  }
  return h;
}

std::optional<std::size_t> Table::find_row(const AttrSet& cols,
                                           std::span<const Value> key) const {
  expects(key.size() == cols.size(), "key width differs from column count");
  for (std::size_t c : cols) {
    expects(c < schema_.size(), "column index out of range");
  }

  KeyIndex& index = key_indexes_[cols.raw()];
  if (index.rows_indexed < num_rows_) {
    // Extend over rows appended since the last probe (or build fresh).
    for (std::size_t r = index.rows_indexed; r < num_rows_; ++r) {
      index.buckets[hash_row_key(r, cols)].push_back(
          static_cast<std::uint32_t>(r));
    }
    index.rows_indexed = num_rows_;
  }

  std::uint64_t h = kFnvOffset;
  for (Value v : key) {
    h ^= v;
    h *= kFnvPrime;
  }
  const auto bucket = index.buckets.find(h);
  if (bucket == index.buckets.end()) return std::nullopt;
  // Bucket rows are ascending by construction, so the first verified
  // candidate is the first matching row — identical to the linear scan.
  for (const std::uint32_t r : bucket->second) {
    std::size_t k = 0;
    bool match = true;
    for (std::size_t c : cols) {
      if (cols_[c][r] != key[k]) {
        match = false;
        break;
      }
      ++k;
    }
    if (match) return r;
  }
  return std::nullopt;
}

std::size_t Table::distinct_count(const AttrSet& cols) const {
  std::size_t distinct = 0;
  scan_first_rows(cols, [&](std::size_t r, std::size_t first) {
    distinct += first == r ? 1 : 0;
    return true;
  });
  return distinct;
}

std::uint64_t Table::column_fingerprint(std::size_t col) const {
  expects(col < schema_.size(), "column index out of range");
  return cols_[col].content_fingerprint();
}

std::uint64_t Table::fingerprint() const noexcept {
  if (table_fp_.has_value()) return *table_fp_;
  std::uint64_t h = kFnvOffset;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= kFnvPrime;
  };
  mix(schema_.size());
  mix(num_rows_);
  // Row-major cell order, matching the former row-of-vectors store.
  for (std::size_t r = 0; r < num_rows_; ++r) {
    for (const auto& col : cols_) mix(col[r]);
  }
  table_fp_ = h;
  return h;
}

std::size_t Table::memory_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& col : cols_) bytes += col.memory_bytes();
  bytes += cols_.capacity() * sizeof(Column);
  // Hash maps: estimate nodes (entry + next pointer) plus bucket array.
  for (const auto& [raw, index] : key_indexes_) {
    (void)raw;
    for (const auto& [h, rows] : index.buckets) {
      (void)h;
      bytes += sizeof(std::uint64_t) + sizeof(std::vector<std::uint32_t>) +
               rows.capacity() * sizeof(std::uint32_t) + sizeof(void*);
    }
    bytes += index.buckets.bucket_count() * sizeof(void*);
  }
  return bytes;
}

std::string format_value(const Attribute& attr, Value v) {
  switch (attr.codec) {
    case ValueCodec::kPlain:
      return std::to_string(v);
    case ValueCodec::kIpv4:
      return format_ipv4(static_cast<std::uint32_t>(v));
    case ValueCodec::kIpv4Prefix:
      return format_ipv4_prefix(static_cast<std::uint32_t>(v >> 8),
                                static_cast<unsigned>(v & 0xff));
    case ValueCodec::kMac:
      return format_mac(v);
    case ValueCodec::kPort:
      return std::to_string(v);
  }
  return std::to_string(v);
}

std::string Table::to_string() const {
  std::vector<std::string> header;
  header.reserve(schema_.size());
  for (const Attribute& a : schema_.attributes()) {
    header.push_back(a.kind == AttrKind::kAction ? a.name + "!" : a.name);
  }

  // Head/tail elision: rendering cost (and column-width computation) is
  // bounded by kRenderHead + kRenderTail regardless of the row count.
  const bool elide = num_rows_ > kRenderHead + kRenderTail;
  const std::size_t head = elide ? kRenderHead : num_rows_;
  const std::size_t tail_first = elide ? num_rows_ - kRenderTail : num_rows_;
  std::vector<std::size_t> rendered;
  rendered.reserve(head + (num_rows_ - tail_first));
  for (std::size_t r = 0; r < head; ++r) rendered.push_back(r);
  for (std::size_t r = tail_first; r < num_rows_; ++r) rendered.push_back(r);

  std::vector<std::vector<std::string>> cells;
  cells.reserve(rendered.size());
  for (const std::size_t r : rendered) {
    std::vector<std::string> line;
    line.reserve(schema_.size());
    for (std::size_t c = 0; c < schema_.size(); ++c) {
      line.push_back(format_value(schema_.at(c), cols_[c][r]));
    }
    cells.push_back(std::move(line));
  }
  std::vector<std::size_t> width(schema_.size(), 0);
  for (std::size_t c = 0; c < schema_.size(); ++c) {
    width[c] = header[c].size();
    for (const auto& line : cells) width[c] = std::max(width[c], line[c].size());
  }

  std::string out = "table " + name_ + " (" + std::to_string(num_rows_) +
                    " entries)\n";
  auto emit = [&](const std::vector<std::string>& line) {
    out += "  ";
    for (std::size_t c = 0; c < line.size(); ++c) {
      out += line[c];
      if (c + 1 < line.size()) out.append(width[c] - line[c].size() + 2, ' ');
    }
    out += '\n';
  };
  emit(header);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (elide && i == head) {
      out += "  … (" + std::to_string(tail_first - head) + " more rows)\n";
    }
    emit(cells[i]);
  }
  return out;
}

}  // namespace maton::core

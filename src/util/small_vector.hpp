// A contiguous vector with inline storage for its first N elements.
//
// Built for per-packet scratch on the data-plane hot path: the matched-
// rule list of a pipeline traversal is bounded by the pipeline depth
// (a handful), so it fits the inline buffer and costs zero allocations;
// pathological programs spill to the heap transparently. dp::Rule keeps
// its matches and actions in two of them, so an owned rule of the usual
// size is one object with no heap storage. Restricted to trivially
// copyable element types so growth is a memcpy and the destructor never
// walks elements.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>

namespace maton::util {

template <typename T, std::size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector is for trivially copyable scratch elements");
  static_assert(N > 0, "inline capacity must be non-zero");

 public:
  SmallVector() = default;

  SmallVector(std::initializer_list<T> values) { assign(values); }
  SmallVector(const SmallVector& other) { assign(other.span()); }
  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) assign(other.span());
    return *this;
  }
  /// Takes over a spilled source's heap buffer, or copies an inline
  /// source's elements; the source is left empty and inline.
  SmallVector(SmallVector&& other) noexcept { *this = std::move(other); }
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this == &other) return *this;
    if (other.heap_) {
      heap_ = std::move(other.heap_);
      capacity_ = other.capacity_;
    } else {
      std::memcpy(data(), other.inline_, other.size_ * sizeof(T));
    }
    size_ = other.size_;
    other.size_ = 0;
    other.capacity_ = N;
    return *this;
  }

  /// Replaces the contents with the elements of `values` (any range of
  /// elements convertible to T); keeps the capacity reached.
  template <typename Range>
  void assign(const Range& values) {
    size_ = 0;
    for (const T v : values) push_back(v);
  }

  void push_back(const T& value) {
    if (size_ == capacity_) grow();
    data()[size_++] = value;
  }

  /// Drops all elements; keeps whatever capacity has been reached.
  void clear() noexcept { size_ = 0; }

  /// Truncates to, or value-initializes up to, `n` elements.
  void resize(std::size_t n) {
    while (capacity_ < n) grow();
    for (std::size_t i = size_; i < n; ++i) data()[i] = T{};
    size_ = n;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] T* data() noexcept {
    return heap_ ? heap_.get() : inline_;
  }
  [[nodiscard]] const T* data() const noexcept {
    return heap_ ? heap_.get() : inline_;
  }

  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data()[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data()[i];
  }

  [[nodiscard]] T& front() noexcept { return data()[0]; }
  [[nodiscard]] const T& front() const noexcept { return data()[0]; }
  [[nodiscard]] T& back() noexcept { return data()[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return data()[size_ - 1]; }

  [[nodiscard]] T* begin() noexcept { return data(); }
  [[nodiscard]] T* end() noexcept { return data() + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data(); }
  [[nodiscard]] const T* end() const noexcept { return data() + size_; }

  [[nodiscard]] std::span<const T> span() const noexcept {
    return {data(), size_};
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  void grow() {
    const std::size_t next = capacity_ * 2;
    auto bigger = std::make_unique<T[]>(next);
    std::memcpy(bigger.get(), data(), size_ * sizeof(T));
    heap_ = std::move(bigger);
    capacity_ = next;
  }

  // Cache-line aligned so the batch walkers' kernel loads over inline
  // scratch (MatchedBuf and friends) never split a line.
  alignas(64) T inline_[N];
  std::unique_ptr<T[]> heap_;
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace maton::util

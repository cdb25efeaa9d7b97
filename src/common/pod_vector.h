#ifndef FIM_COMMON_POD_VECTOR_H_
#define FIM_COMMON_POD_VECTOR_H_

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

namespace fim {

/// A vector of trivially copyable values that grows by doubling through
/// std::realloc. Once the array is large enough for the allocator to map
/// it on pages of its own, realloc moves those pages instead of copying
/// them, so a growing array is neither copied nor held twice: a loader
/// that appends 40 MB of ids touches 40 MB, where std::vector copies
/// every generation and holds the last two at once.
template <typename T>
class PodVector {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  PodVector() = default;
  PodVector(std::initializer_list<T> values) { Append(values); }
  PodVector(const PodVector& other) { Append(other); }
  PodVector(PodVector&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  PodVector& operator=(PodVector other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
    return *this;
  }
  ~PodVector() { std::free(data_); }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  const T* data() const { return data_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  const T& back() const { return data_[size_ - 1]; }

  void push_back(T value) {
    if (size_ == capacity_) Reserve(size_ + 1);
    data_[size_++] = value;
  }

  void Append(std::span<const T> values) {
    Reserve(size_ + values.size());
    if (!values.empty()) {
      std::memcpy(data_ + size_, values.data(), values.size() * sizeof(T));
    }
    size_ += values.size();
  }

  /// Drops the values from `size` on; keeps the capacity.
  void Truncate(std::size_t size) { size_ = std::min(size_, size); }

  /// Gives back the capacity past size(). Shrinking in place, realloc
  /// copies nothing.
  void ShrinkToFit() {
    if (size_ == capacity_) return;
    if (size_ == 0) {
      std::free(std::exchange(data_, nullptr));
    } else if (void* shrunk = std::realloc(data_, size_ * sizeof(T))) {
      data_ = static_cast<T*>(shrunk);
    } else {
      return;
    }
    capacity_ = size_;
  }

 private:
  // Grows the capacity to at least `wanted`, and at least doubles it.
  void Reserve(std::size_t wanted) {
    if (wanted <= capacity_) return;
    const std::size_t capacity = std::max(wanted, 2 * capacity_);
    void* grown = std::realloc(data_, capacity * sizeof(T));
    if (grown == nullptr) throw std::bad_alloc();
    data_ = static_cast<T*>(grown);
    capacity_ = capacity;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace fim

#endif  // FIM_COMMON_POD_VECTOR_H_

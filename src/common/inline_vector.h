// InlineVector<T, N>: a vector whose first N elements live inside the object.
//
// The data path builds a few short lists per op (the chunk pieces of one
// access, its WQEs, the physical ranges an RNIC resolves), and nearly every
// op has one or two entries. Keeping those in place means a warm op never
// touches the heap; a longer list moves to one heap buffer and grows like
// std::vector. It offers only what those users need: append, index,
// iterate, move.
#ifndef SRC_COMMON_INLINE_VECTOR_H_
#define SRC_COMMON_INLINE_VECTOR_H_

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace lt {

template <typename T, size_t N>
class InlineVector {
  static_assert(N > 0);

 public:
  InlineVector() = default;
  InlineVector(InlineVector&& other) noexcept { TakeFrom(other); }
  InlineVector& operator=(InlineVector&& other) noexcept {
    if (this != &other) {
      Reset();
      TakeFrom(other);
    }
    return *this;
  }
  InlineVector(const InlineVector&) = delete;
  InlineVector& operator=(const InlineVector&) = delete;
  ~InlineVector() { Reset(); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) {
      Grow();
    }
    T* slot = ::new (static_cast<void*>(data_ + size_)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(T value) { emplace_back(std::move(value)); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  T* Inline() { return reinterpret_cast<T*>(inline_); }
  bool OnHeap() const { return capacity_ > N; }

  // Moves every element into a heap buffer twice the current capacity.
  void Grow() {
    std::allocator<T> alloc;
    const size_t capacity = capacity_ * 2;
    T* heap = alloc.allocate(capacity);
    for (size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(heap + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    if (OnHeap()) {
      alloc.deallocate(data_, capacity_);
    }
    data_ = heap;
    capacity_ = capacity;
  }

  // Destroys every element and returns to the empty inline state.
  void Reset() {
    for (size_t i = 0; i < size_; ++i) {
      data_[i].~T();
    }
    if (OnHeap()) {
      std::allocator<T>().deallocate(data_, capacity_);
    }
    data_ = Inline();
    size_ = 0;
    capacity_ = N;
  }

  // Takes `other`'s elements (stealing its heap buffer, or moving its inline
  // ones) and leaves it empty. *this must be empty and inline.
  void TakeFrom(InlineVector& other) {
    if (other.OnHeap()) {
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = other.Inline();
      other.size_ = 0;
      other.capacity_ = N;
      return;
    }
    for (size_t i = 0; i < other.size_; ++i) {
      ::new (static_cast<void*>(data_ + i)) T(std::move(other.data_[i]));
    }
    size_ = other.size_;
    other.Reset();
  }

  alignas(T) unsigned char inline_[N * sizeof(T)];
  T* data_ = Inline();
  size_t size_ = 0;
  size_t capacity_ = N;
};

}  // namespace lt

#endif  // SRC_COMMON_INLINE_VECTOR_H_

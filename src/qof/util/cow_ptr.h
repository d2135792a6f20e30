#ifndef QOF_UTIL_COW_PTR_H_
#define QOF_UTIL_COW_PTR_H_

#include <memory>
#include <utility>

namespace qof {

/// A copy-on-write handle. Copying a handle shares the pointee and marks
/// both handles as not owning it; a write through either then goes to a
/// private copy (Mutable, or Reset with freshly built content). A handle
/// that made its pointee, or already copied it, owns it and writes in
/// place — so a state nobody else holds is mutated in place, and a state
/// pinned by a snapshot is copied one touched piece at a time.
///
/// Ownership is a bit in the handle, not a reference-count test: a count
/// read by the writer orders nothing against a reader on another thread
/// that just dropped its reference, whereas the bit is only touched by
/// copies and writes, which the caller serializes (readers only
/// dereference). The price: a pointee once shared stays unowned after
/// the other holders drop, and the next write copies it once more.
template <typename T>
class CowPtr {
 public:
  CowPtr() = default;
  explicit CowPtr(T value)
      : ptr_(std::make_shared<T>(std::move(value))), owned_(true) {}

  // Copies clear the source's bit too: after a copy, neither handle may
  // write into the pointee the other can still see.
  CowPtr(const CowPtr& other) : ptr_(other.ptr_) { other.owned_ = false; }
  CowPtr& operator=(const CowPtr& other) {
    if (this != &other) {
      ptr_ = other.ptr_;
      owned_ = false;
      other.owned_ = false;
    }
    return *this;
  }
  CowPtr(CowPtr&& other) noexcept
      : ptr_(std::move(other.ptr_)), owned_(other.owned_) {
    other.owned_ = false;
  }
  CowPtr& operator=(CowPtr&& other) noexcept {
    if (this != &other) {
      ptr_ = std::move(other.ptr_);
      owned_ = other.owned_;
      other.owned_ = false;
    }
    return *this;
  }

  explicit operator bool() const { return ptr_ != nullptr; }
  const T& operator*() const { return *ptr_; }
  const T* operator->() const { return ptr_.get(); }
  const T* get() const { return ptr_.get(); }

  /// True when a write would land in place.
  bool owned() const { return owned_; }

  /// The pointee for writing: in place when owned, else a private copy
  /// (a default-constructed T for a null handle).
  T& Mutable() {
    if (!owned_) {
      ptr_ = ptr_ != nullptr ? std::make_shared<T>(std::as_const(*ptr_))
                             : std::make_shared<T>();
      owned_ = true;
    }
    return *ptr_;
  }

  /// Replaces the pointee with `value`, owned. Splices over a shared
  /// pointee build their result in one pass and land it here, instead of
  /// copying the old value through Mutable() and editing the copy.
  void Reset(T value) {
    ptr_ = std::make_shared<T>(std::move(value));
    owned_ = true;
  }

 private:
  std::shared_ptr<T> ptr_;
  mutable bool owned_ = false;
};

}  // namespace qof

#endif  // QOF_UTIL_COW_PTR_H_

// Small-buffer-only move-only callable.
//
// InlineFunction<R(Args...), Cap> is the event loop's replacement for
// std::function on the hot path: the callable is stored in `Cap` bytes of inline
// storage and there is NO heap fallback — a closure that does not fit fails to
// compile (static_assert), which keeps every ScheduleAfter/RunOn* call site
// honest about its capture size. Unlike std::function it is move-only, so
// callbacks may own move-only state (other InlineFunctions, pooled contexts).
//
// Two function pointers erase the type: one invokes, one relocates/destroys.
// Trivially copyable + trivially destructible callables (the common pointer-pack
// closures) get a null manager and relocate with memcpy, so moving a queued
// callback is cheap. See docs/ARCHITECTURE.md, "Coroutine runtime & scheduler
// fast path".

#ifndef SRC_SIM_INLINE_FN_H_
#define SRC_SIM_INLINE_FN_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace remon {

template <typename Sig, std::size_t Cap>
class InlineFunction;

template <typename R, typename... Args, std::size_t Cap>
class InlineFunction<R(Args...), Cap> {
 public:
  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                !std::is_same_v<D, std::nullptr_t> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    static_assert(sizeof(D) <= Cap,
                  "closure exceeds InlineFunction inline capacity; shrink the "
                  "captures (pool/box the state) or raise the alias capacity");
    static_assert(alignof(D) <= alignof(std::max_align_t));
    static_assert(std::is_nothrow_move_constructible_v<D>);
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    invoke_ = [](void* s, Args... args) -> R {
      return (*std::launder(reinterpret_cast<D*>(s)))(std::forward<Args>(args)...);
    };
    if constexpr (!(std::is_trivially_copyable_v<D> &&
                    std::is_trivially_destructible_v<D>)) {
      manage_ = [](void* dst, void* src) {
        D* s = std::launder(reinterpret_cast<D*>(src));
        if (dst != nullptr) {
          ::new (dst) D(std::move(*s));
        }
        s->~D();
      };
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  // Const like std::function's call operator: closures holding an InlineFunction
  // by value stay callable without `mutable`. The callable itself is invoked
  // non-const (it lives in our storage; constness here is shallow).
  R operator()(Args... args) const {
    return invoke_(const_cast<unsigned char*>(storage_), std::forward<Args>(args)...);
  }

  explicit operator bool() const { return invoke_ != nullptr; }
  friend bool operator==(const InlineFunction& f, std::nullptr_t) {
    return f.invoke_ == nullptr;
  }
  friend bool operator!=(const InlineFunction& f, std::nullptr_t) {
    return f.invoke_ != nullptr;
  }

  static constexpr std::size_t capacity() { return Cap; }

 private:
  void MoveFrom(InlineFunction& other) noexcept {
    if (other.invoke_ == nullptr) {
      return;
    }
    if (other.manage_ != nullptr) {
      other.manage_(storage_, other.storage_);
    } else {
      // The whole buffer moves, including the bytes past a smaller callable that
      // were never written: copying indeterminate unsigned chars is well-defined,
      // and g++ cannot see that the tail is never read.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
      std::memcpy(storage_, other.storage_, Cap);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    }
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void Reset() {
    if (manage_ != nullptr) {
      manage_(nullptr, storage_);
      manage_ = nullptr;
    }
    invoke_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[Cap];
  R (*invoke_)(void*, Args...) = nullptr;
  // Relocate (dst != null: move-construct dst from src, destroy src) or destroy
  // (dst == null). Null for trivially relocatable callables.
  void (*manage_)(void* dst, void* src) = nullptr;
};

}  // namespace remon

#endif  // SRC_SIM_INLINE_FN_H_

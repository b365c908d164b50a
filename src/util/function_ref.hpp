// Non-owning callable reference: the hot-path replacement for
// `const std::function&` parameters whose callee finishes before the caller's
// lambda dies (fork/join style). Constructing a std::function from a capturing
// lambda heap-allocates once the captures outgrow the small-buffer slot —
// which every per-superstep `parallel_machines([&]{...})` call did. A
// FunctionRef is two words, never allocates, and forwards through a plain
// function pointer, so the serial cluster path can promise zero steady-state
// heap allocations (see the allocation probe in tests/test_alloc_probe.cpp).
//
// Lifetime contract: the referenced callable must outlive every invocation.
// Its user here is the blocking fork/join call parallel_machines, where
// the caller's lambda lives across the whole call.
#pragma once

#include <type_traits>
#include <utility>

namespace lazygraph::util {

template <class Sig>
class FunctionRef;

template <class R, class... Args>
class FunctionRef<R(Args...)> {
 public:
  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace lazygraph::util

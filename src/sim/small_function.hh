/**
 * @file
 * SmallFunction: a type-erased callable held in a fixed inline buffer.
 *
 * std::function heap-allocates any capture larger than its tiny
 * implementation-defined buffer (two pointers on libstdc++), which made
 * every EventQueue::schedule call allocate. SmallFunction constructs a
 * callable directly in its own buffer, invokes it there and destroys it
 * there: it never allocates and never moves what it holds. A callable
 * larger than the buffer does not compile, so an oversized capture
 * cannot put an allocation on the simulator's hot path.
 */

#ifndef ODBSIM_SIM_SMALL_FUNCTION_HH
#define ODBSIM_SIM_SMALL_FUNCTION_HH

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace odbsim
{

template <typename Signature, std::size_t InlineBytes>
class SmallFunction;

/**
 * Type-erased callable with @p InlineBytes of in-object storage.
 *
 * It can be neither copied nor moved (an event callback is built in
 * its slab slot and fired there), which also lets move-only captures
 * (unique_ptr, moved-in request structs) be stored directly.
 */
template <typename R, typename... Args, std::size_t InlineBytes>
class SmallFunction<R(Args...), InlineBytes>
{
  public:
    SmallFunction() = default;
    SmallFunction(const SmallFunction &) = delete;
    SmallFunction &operator=(const SmallFunction &) = delete;
    ~SmallFunction() { reset(); }

    /**
     * Replace the held callable with @p f, constructed directly in the
     * inline buffer: the one copy or move of the capture this wrapper
     * ever performs.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    SmallFunction &
    operator=(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= InlineBytes,
                      "callable is larger than SmallFunction's InlineBytes "
                      "limit (EventQueue::smallCallbackBytes for an event "
                      "callback): capture less, or capture a pointer");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "callable is over-aligned for SmallFunction's "
                      "inline buffer");
        reset();
        std::construct_at(reinterpret_cast<Fn *>(buf_), std::forward<F>(f));
        invoke_ = [](void *obj, Args &&...args) -> R {
            return (*static_cast<Fn *>(obj))(std::forward<Args>(args)...);
        };
        destroy_ = [](void *obj) { static_cast<Fn *>(obj)->~Fn(); };
        return *this;
    }

    /** Destroy the held callable, leaving the wrapper empty. */
    void
    reset()
    {
        if (!invoke_)
            return;
        destroy_(buf_);
        invoke_ = nullptr;
        destroy_ = nullptr;
    }

    explicit operator bool() const { return invoke_ != nullptr; }

    R
    operator()(Args... args)
    {
        return invoke_(buf_, std::forward<Args>(args)...);
    }

  private:
    using Invoke = R (*)(void *, Args &&...);
    using Destroy = void (*)(void *);

    alignas(std::max_align_t) unsigned char buf_[InlineBytes];
    Invoke invoke_ = nullptr;
    Destroy destroy_ = nullptr;
};

} // namespace odbsim

#endif // ODBSIM_SIM_SMALL_FUNCTION_HH

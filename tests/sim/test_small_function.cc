/**
 * @file
 * Unit tests for SmallFunction: in-place construction, invocation,
 * move-only captures, replacement and destruction accounting. A
 * callable larger than the buffer must not compile; the
 * `small_function_rejects_oversized_callback` ctest checks that.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "sim/small_function.hh"

namespace
{

using namespace odbsim;

using Fn = SmallFunction<int(), 64>;

TEST(SmallFunction, DefaultConstructedIsEmpty)
{
    Fn f;
    EXPECT_FALSE(f);
}

TEST(SmallFunction, InvokesInlineCallable)
{
    int x = 41;
    Fn f;
    f = [&x] { return ++x; };
    ASSERT_TRUE(f);
    EXPECT_EQ(f(), 42);
    EXPECT_EQ(f(), 43);
}

TEST(SmallFunction, PassesArgumentsAndReturnsResult)
{
    SmallFunction<int(int, int), 64> add;
    add = [](int a, int b) { return a + b; };
    EXPECT_EQ(add(2, 40), 42);
}

TEST(SmallFunction, HoldsMoveOnlyCapture)
{
    auto p = std::make_unique<int>(7);
    Fn f;
    f = [p = std::move(p)] { return *p; };
    EXPECT_EQ(f(), 7);
}

struct DtorCounter
{
    int *count;
    explicit DtorCounter(int *c) : count(c) {}
    DtorCounter(DtorCounter &&o) noexcept : count(o.count)
    {
        o.count = nullptr;
    }
    DtorCounter(const DtorCounter &) = delete;
    ~DtorCounter()
    {
        if (count)
            ++*count;
    }
    int operator()() const { return 1; }
};

TEST(SmallFunction, DestroysInlineCallableExactlyOnce)
{
    int destroyed = 0;
    {
        Fn f;
        f = DtorCounter(&destroyed);
        EXPECT_EQ(f(), 1);
    }
    EXPECT_EQ(destroyed, 1);
}

TEST(SmallFunction, ResetDestroysAndEmpties)
{
    int destroyed = 0;
    Fn f;
    f = DtorCounter(&destroyed);
    f.reset();
    EXPECT_FALSE(f);
    EXPECT_EQ(destroyed, 1);
    f.reset(); // idempotent
    EXPECT_EQ(destroyed, 1);
}

TEST(SmallFunction, CallableAssignmentReplacesInPlace)
{
    int destroyed = 0;
    Fn f;
    f = DtorCounter(&destroyed);
    // Assigning a new callable constructs it directly in the buffer
    // and must destroy the previous occupant first.
    f = [] { return 99; };
    EXPECT_EQ(destroyed, 1);
    EXPECT_EQ(f(), 99);
}

} // namespace

/**
 * @file
 * Must not compile: an event callback whose capture is larger than
 * EventQueue::smallCallbackBytes. Only the
 * `small_function_rejects_oversized_callback` ctest builds it, and it
 * passes when the build stops at SmallFunction's size check.
 */

#include <cstdint>

#include "sim/event_queue.hh"

void
scheduleOversizedCallback(odbsim::EventQueue &eq)
{
    struct Big
    {
        std::uint64_t payload[15]; // 120 bytes > smallCallbackBytes
    };
    static_assert(sizeof(Big) > odbsim::EventQueue::smallCallbackBytes);
    const Big big{};
    eq.schedule(5, [big] { (void)big; });
}

/**
 * @file
 * The simulated process abstraction.
 *
 * A Process is a resumable activity: each time the scheduler dispatches
 * it, the process is asked for its next chunk of work (a WorkItem) and
 * what to do after the chunk retires — keep running, block (the process
 * must already have arranged its own wake-up, e.g. by submitting a disk
 * read or enqueueing on a lock), or terminate.
 */

#ifndef ODBSIM_OS_PROCESS_HH
#define ODBSIM_OS_PROCESS_HH

#include <cstdint>
#include <string>

#include "cpu/work.hh"
#include "mem/addr_space.hh"
#include "sim/types.hh"

namespace odbsim::os
{

class System;

/** What a process wants to do next. */
struct NextAction
{
    enum class After : std::uint8_t
    {
        Continue,  ///< Run the chunk, then ask again.
        Block,     ///< Run the chunk, then sleep until woken.
        Terminate, ///< Run the chunk, then exit.
    };

    cpu::WorkItem work;
    After after = After::Continue;
};

/**
 * Base class for all simulated activities (database server processes,
 * background writers, etc.).
 */
class Process
{
  public:
    enum class State : std::uint8_t
    {
        New,
        Ready,
        Running,
        Blocked,
        Done,
    };

    explicit Process(std::string name)
        : name_(std::move(name))
    {}

    virtual ~Process() = default;

    /** Produce the next chunk of work; called only while Running. */
    virtual NextAction next(System &sys) = 0;

    const std::string &name() const { return name_; }
    std::uint64_t pid() const { return pid_; }
    State state() const { return state_; }

    /** Base of this process's private (stack/PGA) region. */
    Addr
    privateBase() const
    {
        return mem::addrmap::processPrivateBase(pid_);
    }

    /**
     * Restrict the process to the logical CPUs set in @p mask (bit i =
     * CPU i). The default all-ones mask reproduces the unpinned legacy
     * scheduler bit-identically. Set before spawning; island placement
     * uses this to pin servers to a socket's CPUs.
     */
    void setCpuAffinity(std::uint32_t mask) { cpuAffinity_ = mask; }

    /** Logical CPU of the most recent dispatch. */
    unsigned lastCpu() const { return lastCpu_; }

  private:
    friend class Scheduler;
    friend class System;

    std::string name_;
    std::uint64_t pid_ = 0;
    State state_ = State::New;
    /** Allowed-CPU bitmask; ~0 = any CPU (legacy behaviour). */
    std::uint32_t cpuAffinity_ = ~std::uint32_t{0};
    /** CPU of the most recent dispatch (NUMA first-touch anchor). */
    unsigned lastCpu_ = 0;
    /** Private region already homed to a socket (multi-socket only). */
    bool numaHomed_ = false;
    /** Wake arrived while the process was still retiring a chunk. */
    bool wakePending_ = false;
    /** Kernel instructions to charge before the next user chunk
     *  (interrupt bottom halves, context-switch path). */
    std::uint64_t pendingKernelInstr_ = 0;
    /** Extra non-event cycles charged with the pending kernel work. */
    double pendingExtraCycles_ = 0.0;
};

} // namespace odbsim::os

#endif // ODBSIM_OS_PROCESS_HH

/**
 * @file
 * The CPU scheduler: a global round-robin ready queue feeding P
 * processors, with quantum-based preemption and context-switch cost
 * accounting — the mechanism behind the paper's Figure 8 (context
 * switches per transaction).
 *
 * Matching Linux accounting, a context switch is counted whenever a
 * CPU dispatches a task other than the one it ran last, and whenever
 * it dispatches after an idle period (the idle task counts as a task).
 *
 * Processes may carry a CPU-affinity mask (Process::setCpuAffinity);
 * the scheduler then dispatches each process only to allowed CPUs and
 * a CPU picks the frontmost *eligible* ready process. With the default
 * all-ones masks every decision below reduces exactly to the legacy
 * global round-robin, which is what keeps single-socket runs
 * bit-identical (see docs/TOPOLOGY.md).
 */

#ifndef ODBSIM_OS_SCHEDULER_HH
#define ODBSIM_OS_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "os/process.hh"
#include "sim/pooled_fifo.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace odbsim::os
{

class System;

/**
 * Global-queue round-robin scheduler.
 */
class Scheduler
{
  public:
    Scheduler(System &sys, unsigned num_cpus, Tick quantum);

    /** Enter a new or woken process into the ready state. */
    void makeReady(Process *p);

    /**
     * Wake a blocked process, charging @p kernel_instr of kernel
     * pre-work (interrupt/completion path) to its next dispatch.
     */
    void wake(Process *p, std::uint64_t kernel_instr);

    /** @name Statistics @{ */
    std::uint64_t contextSwitches() const
    {
        return ctxSwitches_.value();
    }
    Tick busyTicks(unsigned cpu) const { return slots_[cpu].busyTicks; }
    void resetStats();
    /** @} */

  private:
    friend class System;

    struct CpuSlot
    {
        Process *current = nullptr;
        Process *lastRun = nullptr;
        bool wentIdle = true;
        Tick sliceStart = 0;
        Tick busyTicks = 0;
    };

    /** May @p p run on @p cpu under its affinity mask? */
    static bool
    eligible(const Process *p, unsigned cpu)
    {
        return (p->cpuAffinity_ >> cpu) & 1u;
    }

    /** Is any ready process allowed to run on @p cpu? */
    bool hasEligibleReady(unsigned cpu) const;

    void dispatch(unsigned cpu, Process *p);
    void runChunk(unsigned cpu);
    void chunkDone(unsigned cpu, NextAction::After after);
    void pickNext(unsigned cpu);

    System &sys_;
    Tick quantum_;
    std::vector<CpuSlot> slots_;
    sim::PooledFifo<Process *> ready_;
    Counter ctxSwitches_;
};

} // namespace odbsim::os

#endif // ODBSIM_OS_SCHEDULER_HH

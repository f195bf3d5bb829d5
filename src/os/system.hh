/**
 * @file
 * System: the top-level simulated machine — event queue, CPU cores,
 * memory system, scheduler, disk array — and the services (sleep,
 * synchronous block reads, DMA accounting) that the database layer
 * builds on.
 */

#ifndef ODBSIM_OS_SYSTEM_HH
#define ODBSIM_OS_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cpu/core.hh"
#include "mem/hierarchy.hh"
#include "os/disk.hh"
#include "os/kernel_costs.hh"
#include "os/process.hh"
#include "os/scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace odbsim::os
{

/** Full machine configuration. */
struct SystemConfig
{
    /** Logical CPUs (hardware threads). */
    unsigned numCpus = 4;
    /**
     * Hardware threads per physical core (Hyper-Threading). Sibling
     * threads share one cache hierarchy and contend for issue
     * bandwidth; the paper's machine supported HT but ran with it
     * disabled (Section 3.3) — set 2 to model it enabled.
     */
    unsigned threadsPerCore = 1;
    /**
     * Cycle multiplier applied to a thread whose sibling is busy:
     * NetBurst HT shares the pipeline, so each thread runs slower
     * while the pair retires more in total.
     */
    double smtCycleFactor = 1.45;
    cpu::CoreConfig core;
    mem::HierarchyConfig hierarchy;
    mem::BusConfig bus;
    /** Socket topology (default: one socket, the legacy machine). */
    mem::TopologyConfig topology;
    DiskArrayConfig disks;
    KernelCosts kernel;
    /** Scheduler time slice. */
    Tick quantum = 20 * tickPerMs;
    /** Fault-injection knobs (default: none; structurally inert). */
    sim::FaultConfig faults;
    std::uint64_t seed = 0x0d'b51edeULL;
};

/**
 * The simulated machine.
 */
class System
{
  public:
    explicit System(const SystemConfig &cfg);

    const SystemConfig &config() const { return cfg_; }

    EventQueue &eq() { return eq_; }
    Tick now() const { return eq_.curTick(); }

    mem::MemorySystem &memsys() { return memsys_; }
    const mem::MemorySystem &memsys() const { return memsys_; }

    cpu::CpuCore &core(unsigned i) { return *cores_[i]; }
    const cpu::CpuCore &core(unsigned i) const { return *cores_[i]; }
    unsigned numCpus() const { return static_cast<unsigned>(cores_.size()); }

    /** Physical core index of logical CPU @p i. */
    unsigned
    physicalOf(unsigned i) const
    {
        return i / cfg_.threadsPerCore;
    }

    /** Sibling logical CPU of @p i, or @p i itself without SMT. */
    unsigned
    siblingOf(unsigned i) const
    {
        if (cfg_.threadsPerCore < 2)
            return i;
        return i ^ 1;
    }

    /** @name Socket topology @{ */
    /** Socket count S of the configured topology (>= 1). */
    unsigned numSockets() const { return memsys_.numSockets(); }

    /** Socket owning logical CPU @p i (always 0 at S=1). */
    unsigned
    socketOfCpu(unsigned i) const
    {
        return memsys_.socketOf(physicalOf(i));
    }

    /**
     * Affinity mask over the logical CPUs of sockets
     * [@p first_socket, @p first_socket + @p num_sockets).
     */
    std::uint32_t socketAffinityMask(unsigned first_socket,
                                     unsigned num_sockets) const;

    /**
     * First-touch home @p p's private (PGA/stack) region on the socket
     * of logical CPU @p cpu. Called by the scheduler on the first
     * dispatch; a no-op on single-socket topologies.
     */
    void homeProcessPrivate(Process *p, unsigned cpu);
    /** @} */

    Scheduler &sched() { return sched_; }
    const Scheduler &sched() const { return sched_; }

    DiskArray &disks() { return disks_; }
    const DiskArray &disks() const { return disks_; }

    /** The run's fault plan (inert when no fault knobs are set). */
    sim::FaultPlan &faults() { return faults_; }
    const sim::FaultPlan &faults() const { return faults_; }

    const KernelCosts &kernelCosts() const { return cfg_.kernel; }

    Rng &rng() { return rng_; }

    /** Register and start a process; the system keeps ownership. */
    Process *spawn(std::unique_ptr<Process> p);

    /** Number of processes spawned so far. */
    std::size_t processCount() const { return processes_.size(); }

    /**
     * Submit a synchronous block read on behalf of @p p. The caller
     * must return NextAction::After::Block from the current chunk;
     * the process is woken (with the I/O completion kernel path as
     * pre-work) when the DMA into @p frame_addr finishes.
     */
    void diskReadForProcess(Process *p, std::uint64_t block_id,
                            Addr frame_addr, std::uint64_t bytes);

    /** Submit an asynchronous block write (e.g. DBWR writeback). */
    void diskWriteAsync(std::uint64_t block_id, std::uint64_t bytes,
                        std::function<void()> on_complete);

    /** Put @p p to sleep for @p duration; caller returns Block. */
    void sleepProcess(Process *p, Tick duration,
                      std::uint64_t wake_kernel_instr = 0);

    /** Wake a process blocked through a custom mechanism (locks). */
    void
    wakeProcess(Process *p, std::uint64_t kernel_instr)
    {
        sched_.wake(p, kernel_instr);
    }

    /**
     * Charge kernel instructions (a syscall path) to @p p's next
     * dispatch; runs before the process's next user chunk.
     */
    void
    chargeKernel(Process *p, std::uint64_t instr)
    {
        p->pendingKernelInstr_ += instr;
    }

    /** Build a kernel-mode WorkItem of @p instr instructions. */
    cpu::WorkItem makeKernelWork(std::uint64_t instr,
                                 double extra_cycles = 0.0) const;

    /** Run the simulation until @p t (absolute). */
    void runUntil(Tick t) { eq_.run(t); }

    /** Run the simulation for @p d more ticks. */
    void runFor(Tick d) { eq_.run(eq_.curTick() + d); }

    /** @name Measurement-window control @{ */
    void beginMeasurement();
    Tick measurementWindow() const { return now() - windowStart_; }
    /** Utilization of CPU @p i over the current window. */
    double cpuUtilization(unsigned i) const;
    /** Mean utilization over all CPUs. */
    double avgCpuUtilization() const;
    /** @} */

  private:
    SystemConfig cfg_;
    EventQueue eq_;
    /** Constructed before disks_ so drive-event binding can refer to
     *  it; its RNG stream is independent of the workload's. */
    sim::FaultPlan faults_;
    mem::MemorySystem memsys_;
    std::vector<std::unique_ptr<cpu::CpuCore>> cores_;
    DiskArray disks_;
    Scheduler sched_;
    Rng rng_;
    std::vector<std::unique_ptr<Process>> processes_;
    std::uint64_t nextPid_ = 1;
    Tick windowStart_ = 0;
};

} // namespace odbsim::os

#endif // ODBSIM_OS_SYSTEM_HH

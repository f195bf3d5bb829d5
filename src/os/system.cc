#include "os/system.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace odbsim::os
{

System::System(const SystemConfig &cfg)
    : cfg_(cfg),
      faults_(cfg.faults, cfg.seed ^ 0xfa17ULL),
      memsys_(cfg.numCpus / std::max(1u, cfg.threadsPerCore),
              cfg.hierarchy, cfg.bus, cfg.core.samplePeriod,
              cfg.topology),
      disks_(cfg.disks, eq_, cfg.seed ^ 0xd15cULL),
      sched_(*this, cfg.numCpus, cfg.quantum),
      rng_(cfg.seed)
{
    odbsim_assert(cfg.threadsPerCore == 1 || cfg.threadsPerCore == 2,
                  "threadsPerCore must be 1 or 2");
    odbsim_assert(cfg.numCpus % cfg.threadsPerCore == 0,
                  "numCpus must be a multiple of threadsPerCore");
    for (unsigned i = 0; i < cfg.numCpus; ++i) {
        cores_.push_back(std::make_unique<cpu::CpuCore>(
            i, cfg.core, memsys_, cfg.seed + i,
            i / cfg.threadsPerCore));
    }
    disks_.bindFaults(&faults_);
}

Process *
System::spawn(std::unique_ptr<Process> p)
{
    p->pid_ = nextPid_++;
    Process *raw = p.get();
    processes_.push_back(std::move(p));
    sched_.makeReady(raw);
    return raw;
}

std::uint32_t
System::socketAffinityMask(unsigned first_socket,
                           unsigned num_sockets) const
{
    std::uint32_t mask = 0;
    for (unsigned i = 0; i < numCpus(); ++i) {
        const unsigned s = socketOfCpu(i);
        if (s >= first_socket && s < first_socket + num_sockets)
            mask |= 1u << i;
    }
    odbsim_assert(mask != 0, "socket affinity mask selects no CPU");
    return mask;
}

void
System::homeProcessPrivate(Process *p, unsigned cpu)
{
    if (memsys_.numSockets() <= 1)
        return;
    memsys_.setHomeRegion(p->privateBase(), mem::addrmap::pgaStride,
                          socketOfCpu(cpu));
}

void
System::diskReadForProcess(Process *p, std::uint64_t block_id,
                           Addr frame_addr, std::uint64_t bytes)
{
    // First-touch homing: the filled frame belongs to the socket the
    // requesting process runs on (it is Running right now, so lastCpu
    // is current). -1 on single-socket topologies = no homing.
    const int home =
        memsys_.numSockets() > 1
            ? static_cast<int>(socketOfCpu(p->lastCpu()))
            : -1;
    disks_.readBlock(block_id, bytes, [this, p, frame_addr, bytes,
                                       home] {
        memsys_.dmaFill(frame_addr, bytes, now(), home);
        sched_.wake(p, cfg_.kernel.ioCompleteInstr);
    });
}

void
System::diskWriteAsync(std::uint64_t block_id, std::uint64_t bytes,
                       std::function<void()> on_complete)
{
    disks_.writeBlock(block_id, bytes,
                      [this, bytes, cb = std::move(on_complete)] {
                          memsys_.dmaDrain(bytes, now());
                          if (cb)
                              cb();
                      });
}

void
System::sleepProcess(Process *p, Tick duration,
                     std::uint64_t wake_kernel_instr)
{
    eq_.scheduleAfter(duration, [this, p, wake_kernel_instr] {
        sched_.wake(p, wake_kernel_instr);
    });
}

cpu::WorkItem
System::makeKernelWork(std::uint64_t instr, double extra_cycles) const
{
    cpu::WorkItem wi;
    wi.instructions = instr;
    wi.mode = mem::ExecMode::Os;
    wi.codeBase = mem::addrmap::kernelCodeBase;
    wi.codeBytes = mem::addrmap::kernelCodeBytes;
    wi.privateBase = mem::addrmap::kernelDataBase;
    wi.privateBytes = mem::addrmap::kernelDataBytes;
    wi.extraCycles = extra_cycles;
    return wi;
}

void
System::beginMeasurement()
{
    for (auto &c : cores_)
        c->resetCounters();
    memsys_.resetStats();
    disks_.resetStats();
    sched_.resetStats();
    faults_.resetCounters();
    windowStart_ = now();
}

double
System::cpuUtilization(unsigned i) const
{
    const Tick window = measurementWindow();
    if (window == 0)
        return 0.0;
    return static_cast<double>(sched_.busyTicks(i)) /
           static_cast<double>(window);
}

double
System::avgCpuUtilization() const
{
    double sum = 0.0;
    for (unsigned i = 0; i < numCpus(); ++i)
        sum += cpuUtilization(i);
    return sum / numCpus();
}

} // namespace odbsim::os

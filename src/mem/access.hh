/**
 * @file
 * Common memory-access vocabulary shared by the cache, CPU and
 * performance-counter models.
 */

#ifndef ODBSIM_MEM_ACCESS_HH
#define ODBSIM_MEM_ACCESS_HH

#include <cstdint>

#include "sim/types.hh"

namespace odbsim::mem
{

/** What kind of reference an access is. */
enum class AccessKind : std::uint8_t
{
    CodeFetch,
    DataRead,
    DataWrite,
};

/** Privilege mode the access executes in (EMON ring split). */
enum class ExecMode : std::uint8_t
{
    User,
    Os,
};

constexpr const char *
toString(ExecMode m)
{
    return m == ExecMode::User ? "user" : "os";
}

/**
 * Deepest level of the hierarchy that serviced a post-L1 access. The
 * simulated stream is the L2 reference stream (L1/trace-cache hits
 * never reach it — their flat contribution is modeled statistically,
 * matching the paper's fixed-cost methodology).
 */
enum class ServicedBy : std::uint8_t
{
    L2,
    L3,
    Memory,      ///< L3 miss serviced by DRAM over the bus.
    RemoteCache, ///< L3 miss serviced by a dirty line in another CPU.
};

/** Outcome of a single simulated reference. */
struct AccessResult
{
    /** Deepest level that serviced the reference. */
    ServicedBy servicedBy = ServicedBy::L2;
    /**
     * Extra stall cycles beyond the fixed Table 3 costs, valid when
     * l3Miss(): the bus queueing delay of the servicing socket, plus —
     * on a multi-socket topology — the interconnect hop latency and
     * link queueing of a remote access. On a single-socket machine
     * this is exactly the front-side bus queueWaitCycles() the CPU
     * model historically read itself. It stays +0.0 on an L2 or L3
     * hit, which lets the CPU model add it without a branch.
     */
    double memStallExtraCycles = 0.0;

    /** True when the reference left the requesting CPU's caches. */
    bool l3Miss() const
    {
        return servicedBy == ServicedBy::Memory ||
               servicedBy == ServicedBy::RemoteCache;
    }
};

} // namespace odbsim::mem

#endif // ODBSIM_MEM_ACCESS_HH

/**
 * @file
 * Per-CPU cache hierarchy (L2 + L3 tag stores) and the system-wide
 * MemorySystem facade that adds bus, coherence and interconnect
 * behaviour.
 *
 * The simulated reference stream is *set-sampled*: the CPU model feeds
 * only cache lines whose global line index is a multiple of the
 * sampling factor S, and the tag stores are built at 1/S of their
 * nominal capacity, so per-line reuse behaviour is preserved exactly
 * while counters are scaled back up by S (see DESIGN.md). The L1
 * levels (trace cache, L1D, TLB) contribute flat per-instruction
 * costs in the paper's own methodology and are modeled statistically
 * in the CPU core instead.
 *
 * Every machine is a set of TopologyConfig::sockets >= 1 hardware
 * islands: each socket owns a front-side bus and a coherence directory
 * for the lines whose *home* is that socket, and every L3 miss
 * resolves at its line's home. A miss serviced off the requester's
 * socket also crosses the bounded-bandwidth interconnect (see
 * docs/TOPOLOGY.md). The single-bus machines of the 2003 study are the
 * one-socket case of the same code: every line's home is socket 0,
 * every miss is local and there is no interconnect.
 */

#ifndef ODBSIM_MEM_HIERARCHY_HH
#define ODBSIM_MEM_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/access.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/coherence.hh"
#include "mem/topology.hh"
#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace odbsim::mem
{

/** Geometry of one CPU's caches (defaults: Xeon MP of the study). */
struct HierarchyConfig
{
    CacheGeometry l2{256 * KiB, 8, 64};  ///< Per-CPU L2 geometry.
    CacheGeometry l3{1 * MiB, 8, 64};    ///< L3 geometry (per CPU or shared).
    /**
     * Chip-multiprocessor mode: one on-die L3 shared by every core
     * instead of per-CPU L3s. L2 misses that hit the shared L3 stay
     * on-die (no front-side-bus transaction), and a line written by
     * one core is served to its siblings from the shared cache — the
     * design point the paper's introduction motivates.
     */
    bool sharedL3 = false;
};

/**
 * Weighted event counters for one privilege mode on one CPU.
 * All fields estimate the unsampled machine (increments are scaled by
 * the sampling factor).
 */
struct MemCounters
{
    std::uint64_t codeFetches = 0; ///< Code refs reaching L2 (TC misses).
    std::uint64_t dataReads = 0;   ///< Data reads reaching L2.
    std::uint64_t dataWrites = 0;  ///< Data writes reaching L2.
    std::uint64_t l2Misses = 0;    ///< Misses in L2 (code + data).
    std::uint64_t l3Misses = 0;    ///< Misses in L3.
    std::uint64_t coherenceMisses = 0; ///< Subset of l3Misses (HITM).

    /** Zero every counter. */
    void reset() { *this = MemCounters{}; }

    /** Accumulate another counter block into this one. */
    MemCounters &operator+=(const MemCounters &o);

    /** Total references reaching the L2 (code + reads + writes). */
    std::uint64_t
    l2Accesses() const
    {
        return codeFetches + dataReads + dataWrites;
    }

    /** The reference counter of @p kind, picked by table lookup. */
    std::uint64_t &
    references(AccessKind kind)
    {
        static_assert(static_cast<unsigned>(AccessKind::CodeFetch) == 0 &&
                          static_cast<unsigned>(AccessKind::DataRead) == 1 &&
                          static_cast<unsigned>(AccessKind::DataWrite) == 2,
                      "byKind follows AccessKind's order");
        static constexpr std::uint64_t MemCounters::*byKind[] = {
            &MemCounters::codeFetches, &MemCounters::dataReads,
            &MemCounters::dataWrites};
        return this->*byKind[static_cast<unsigned>(kind)];
    }
};

/**
 * The private cache stack of one CPU (scaled tag stores).
 */
class CpuCacheHierarchy
{
  public:
    /** Build the scaled L2/L3 tag stores for CPU @p cpu_id. */
    CpuCacheHierarchy(unsigned cpu_id, const CacheGeometry &l2,
                      const CacheGeometry &l3,
                      std::uint32_t sample_factor);

    /**
     * Map a sampled line address (line index divisible by S) to the
     * compacted address space the scaled tag stores index on; without
     * this, sampled lines would collide into 1/S of the sets.
     *
     * Line size and sample factor are powers of two (asserted at
     * construction), so the divide/multiply pair reduces to two
     * shifts computed once in the constructor:
     * addr / (line_bytes * S) * line_bytes == addr >> (lg L + lg S)
     * << lg L, exactly, for any addr.
     */
    Addr
    compress(Addr addr) const
    {
        return (addr >> compressShift_) << lineShift_;
    }

    /**
     * Map a compacted line address back to the original (uncompressed)
     * line address — the inverse of compress() for sampled lines.
     * Same shift identity as compress(), exact for any input:
     * caddr / line_bytes * line_bytes * S == caddr >> lg L << (lg L +
     * lg S).
     */
    Addr
    decompressLine(Addr caddr) const
    {
        return (caddr >> lineShift_) << compressShift_;
    }

    /** Counters for privilege mode @p m. @{ */
    const MemCounters &counters(ExecMode m) const
    {
        return counters_[static_cast<unsigned>(m)];
    }

    MemCounters &counters(ExecMode m)
    {
        return counters_[static_cast<unsigned>(m)];
    }
    /** @} */

    /** User + OS counters summed. */
    MemCounters totalCounters() const;

    /** Zero the counters and the tag-store statistics. */
    void resetCounters();

    /** Invalidate one line in both levels. */
    void
    invalidateLine(Addr line_addr)
    {
        const Addr c = compress(line_addr);
        l2_.invalidate(c);
        l3_.invalidate(c);
    }

    /** The scaled tag stores (read-only). @{ */
    const SetAssocCache &l2() const { return l2_; }
    const SetAssocCache &l3() const { return l3_; }
    /** @} */

  private:
    friend class MemorySystem;

    unsigned cpuId_;
    SetAssocCache l2_;
    SetAssocCache l3_;
    /** log2(lineBytes); constructor-computed for compress(). */
    unsigned lineShift_;
    /** log2(lineBytes * sample factor). */
    unsigned compressShift_;
    MemCounters counters_[2];
};

/**
 * The full memory system: per-CPU hierarchies, one front-side bus and
 * coherence directory per socket, and (for multi-socket topologies)
 * the inter-socket interconnect and first-touch home map.
 */
class MemorySystem
{
  public:
    /**
     * A batch of accesses sharing one (cpu, mode, now) triple — the
     * hot-path entry point the CPU core uses.
     *
     * beginEpoch() performs the per-batch work once (advancing the bus
     * models to @p now and resolving the per-mode counter block);
     * access() then runs the pure per-reference path. This is
     * bit-exact versus calling MemorySystem::access per reference:
     * with a constant `now`, every maybeUpdate(now) after the first is
     * a no-op, and the counter block resolved up front is the same one
     * every per-reference lookup would return.
     *
     * An epoch is a thin non-owning view: keep it strictly inside the
     * scope that called beginEpoch() and do not interleave it with
     * calls that advance simulated time.
     */
    class AccessEpoch
    {
      public:
        /** Simulate one sampled post-L1 reference (see
         *  MemorySystem::access for the address contract). */
        AccessResult access(Addr addr, AccessKind kind);

      private:
        friend class MemorySystem;
        AccessEpoch(MemorySystem &sys, CpuCacheHierarchy &h,
                    MemCounters &ctr)
            : sys_(&sys), h_(&h), ctr_(&ctr)
        {}

        MemorySystem *sys_;
        CpuCacheHierarchy *h_;
        MemCounters *ctr_;
    };

    /**
     * @param sample_factor Set-sampling factor S: tag stores are
     *        built at 1/S capacity and callers must feed only lines
     *        whose index is a multiple of S, weighting counters by S.
     * @param topo Socket topology; the default is one socket.
     */
    MemorySystem(unsigned num_cpus, const HierarchyConfig &hier_cfg,
                 const BusConfig &bus_cfg, std::uint32_t sample_factor,
                 const TopologyConfig &topo = {});

    /** Number of physical CPUs. */
    unsigned numCpus() const { return static_cast<unsigned>(cpus_.size()); }
    /** Set-sampling factor S the tag stores were scaled by. */
    std::uint32_t sampleFactor() const { return sampleFactor_; }
    /** True in CMP mode (one on-die L3 shared by every core). */
    bool sharedL3() const { return sharedL3_ != nullptr; }

    /** Cache hierarchy of CPU @p i. @{ */
    CpuCacheHierarchy &cpu(unsigned i) { return *cpus_[i]; }
    const CpuCacheHierarchy &cpu(unsigned i) const { return *cpus_[i]; }
    /** @} */

    /** Socket 0's front-side bus (the only bus when sockets == 1). @{ */
    FrontSideBus &bus() { return buses_[0]; }
    const FrontSideBus &bus() const { return buses_[0]; }
    /** @} */

    /** Socket 0's coherence directory (the only one at S=1). @{ */
    CoherenceDirectory &directory() { return dirs_[0]; }
    const CoherenceDirectory &directory() const { return dirs_[0]; }
    /** @} */

    /** @name Socket topology @{ */
    /** The configured topology. */
    const TopologyConfig &topology() const { return topo_; }
    /** Socket count S (>= 1). */
    unsigned numSockets() const { return sockets_; }
    /** True when the machine has more than one socket. */
    bool multiSocket() const { return sockets_ > 1; }
    /** Socket owning physical CPU @p cpu (always 0 at S=1). */
    unsigned socketOf(unsigned cpu) const { return cpu / cpusPerSocket_; }
    /** Front-side bus of socket @p s. @{ */
    FrontSideBus &busAt(unsigned s) { return buses_[s]; }
    const FrontSideBus &busAt(unsigned s) const { return buses_[s]; }
    /** @} */
    /** Coherence directory of socket @p s. */
    CoherenceDirectory &directoryAt(unsigned s) { return dirs_[s]; }
    /** The inter-socket interconnect model (nullptr at S=1). */
    const FrontSideBus *interconnect() const { return link_.get(); }
    /**
     * Home socket of @p addr: the recorded first-touch home when one
     * exists, else page-interleaved across the sockets. Always 0 at
     * S=1.
     */
    unsigned
    homeSocket(Addr addr) const
    {
        if (sockets_ == 1)
            return 0;
        const Addr page = addr >> topo_.pageShift;
        if (const std::uint8_t *h = homePages_.find(page))
            return *h;
        return static_cast<unsigned>(page % sockets_);
    }
    /**
     * Record @p socket as the home of [base, base+bytes) — first-touch
     * page homing (process private regions at first dispatch, buffer
     * frames at fill time). No-op at S=1; later calls overwrite.
     */
    void setHomeRegion(Addr base, std::uint64_t bytes, unsigned socket);
    /** @} */

    /** @name Multi-socket statistics (all zero at S=1) @{ */
    /** Weighted L3 misses serviced by a remote socket. */
    std::uint64_t remoteMisses() const { return remoteMisses_; }
    /** Share of L3 misses serviced by a remote socket, in [0, 1]. */
    double
    remoteMissShare() const
    {
        const std::uint64_t total = localMisses_ + remoteMisses_;
        return total ? static_cast<double>(remoteMisses_) /
                           static_cast<double>(total)
                     : 0.0;
    }
    /** Mean interconnect utilization over the measurement period. */
    double
    linkUtilizationMean() const
    {
        return link_ ? link_->utilizationStat().mean() : 0.0;
    }
    /** @} */

    /**
     * Simulate one sampled post-L1 reference. @p addr must lie on a
     * sampled line (line index divisible by the sample factor).
     *
     * Equivalent to `beginEpoch(cpu_id, mode, now).access(addr, kind)`
     * — kept for callers making isolated accesses; loops should hoist
     * the epoch.
     */
    AccessResult access(unsigned cpu_id, Addr addr, AccessKind kind,
                        ExecMode mode, Tick now);

    /**
     * Open an access batch for @p cpu_id in @p mode at time @p now:
     * advances the bus models once and resolves the counter block, so
     * AccessEpoch::access runs only per-reference work.
     */
    AccessEpoch
    beginEpoch(unsigned cpu_id, ExecMode mode, Tick now)
    {
        advanceBuses(now);
        CpuCacheHierarchy &h = *cpus_[cpu_id];
        return AccessEpoch(*this, h, h.counters(mode));
    }

    /**
     * A DMA engine filled @p bytes at @p base (disk read into memory):
     * stale cached copies are invalidated and the transfer is charged
     * to the home socket's bus. On a multi-socket topology a
     * non-negative @p home_socket re-homes the region to that socket
     * first (first-touch homing by the process that requested the
     * read); DMA landing outside socket 0 (where I/O attaches) also
     * crosses the interconnect.
     */
    void dmaFill(Addr base, std::uint64_t bytes, Tick now,
                 int home_socket = -1);

    /** DMA read of memory (disk write from memory): bus traffic only. */
    void dmaDrain(std::uint64_t bytes, Tick now);

    /** Reset statistics on every component (cache state is kept). */
    void resetStats();

  private:
    static CacheGeometry scaleGeometry(const CacheGeometry &g,
                                       std::uint32_t factor,
                                       const char *name);

    /**
     * The per-reference body shared by access() and AccessEpoch. It
     * and the tag-store and directory calls it makes are inline, so
     * the compiler builds the whole path through them as one function.
     */
    AccessResult accessImpl(CpuCacheHierarchy &h, MemCounters &ctr,
                            Addr addr, AccessKind kind);

    /**
     * Drop @p line from both cache levels of every CPU set in @p cpus.
     * Out of line: the per-reference path calls it only for a
     * non-empty mask, which is rare.
     */
    void invalidateSharers(std::uint32_t cpus, Addr line);

    /** Directory of @p line's home socket. */
    CoherenceDirectory &dirFor(Addr line) { return dirs_[homeSocket(line)]; }

    /** Advance every bus model (and the interconnect) to @p now. */
    void
    advanceBuses(Tick now)
    {
        for (FrontSideBus &b : buses_)
            b.maybeUpdate(now);
        if (link_)
            link_->maybeUpdate(now);
    }

    TopologyConfig topo_;
    std::uint32_t sampleFactor_;
    /** @name Per-access invariants, computed once in the constructor.
     *  @{ */
    std::uint64_t weight_;   ///< sampleFactor_ widened for counters.
    Addr lineMask_;          ///< ~(l3.lineBytes - 1)
    Addr sampledStride_;     ///< l3.lineBytes * sampleFactor_
    unsigned sockets_;       ///< Socket count S (>= 1).
    unsigned cpusPerSocket_; ///< ceil(P / S).
    /** @} */
    std::vector<std::unique_ptr<CpuCacheHierarchy>> cpus_;
    /** The on-die shared L3 (CMP mode only). */
    std::unique_ptr<SetAssocCache> sharedL3_;
    /** Each socket's front-side bus and directory, by socket. @{ */
    std::vector<FrontSideBus> buses_;
    std::vector<CoherenceDirectory> dirs_;
    /** @} */
    /** The inter-socket interconnect (allocated only at S > 1). */
    std::unique_ptr<FrontSideBus> link_;
    /** First-touch page homes: page index -> socket. */
    sim::FlatMap<Addr, std::uint8_t> homePages_;
    /** Weighted L3 misses serviced locally / by a remote socket. @{ */
    std::uint64_t localMisses_ = 0;
    std::uint64_t remoteMisses_ = 0;
    /** @} */
};

inline AccessResult
MemorySystem::accessImpl(CpuCacheHierarchy &h, MemCounters &ctr,
                         Addr addr, AccessKind kind)
{
    const unsigned cpu_id = h.cpuId_;
    const std::uint64_t weight = weight_;
    const Addr line = addr & lineMask_;
    const bool is_write = kind == AccessKind::DataWrite;

    AccessResult res;
    ctr.references(kind) += weight;

    // The scaled tag stores index on the compacted sampled-line space.
    const Addr caddr = h.compress(addr);

    // Dirty victims from L2 are assumed to hit L3 (tag-store
    // approximation); only L3 victims produce bus writebacks.
    if (h.l2_.access(caddr, is_write).hit) {
        if (is_write) {
            if (const std::uint32_t copies =
                    dirFor(line).onWriteHit(cpu_id, line))
                invalidateSharers(copies, line);
        }
        res.servicedBy = ServicedBy::L2;
        return res;
    }
    ctr.l2Misses += weight;

    SetAssocCache &l3 = sharedL3_ ? *sharedL3_ : h.l3_;
    const CacheAccessResult l3res = l3.access(caddr, is_write);
    if (l3res.evicted) {
        // Map the victim back to its original (uncompressed) line
        // address for the directory.
        const Addr victim_line = h.decompressLine(l3res.evictedLineAddr);
        const unsigned vhome = homeSocket(victim_line);
        if (sharedL3_) {
            // Inclusive shared L3: evicting a line removes every
            // core's copy and its directory state. Only the L2s can
            // hold one; a CMP core's private L3 is never filled.
            invalidateSharers(~0u >> (maxCoherentCpus - numCpus()),
                              victim_line);
            dirs_[vhome].onDmaFill(victim_line);
        } else {
            dirs_[vhome].onEviction(cpu_id, victim_line);
        }
        if (l3res.evictedDirty) {
            // The writeback lands in the victim's home memory and
            // crosses the interconnect when that home is remote.
            buses_[vhome].addLineTransfers(static_cast<double>(weight));
            if (vhome != socketOf(cpu_id))
                link_->addLineTransfers(static_cast<double>(weight));
        }
    }

    // The line's home socket orchestrates the fill: its directory
    // classifies it, and on a miss its bus carries the line (and any
    // writeback). A write drops the remote sharers' copies, and a
    // remote dirty copy leaves its owner.
    const unsigned home = homeSocket(line);
    const CoherenceOutcome out = dirs_[home].onFill(cpu_id, line, is_write);
    if (const std::uint32_t copies = out.staleCopies())
        invalidateSharers(copies, line);
    if (l3res.hit) {
        // In CMP mode an L3 hit may still be a coherence transfer:
        // another core wrote the line and the modified copy is served
        // on-die (cheap), but it counts as a HITM event.
        if (sharedL3_ && out.remoteDirty)
            ctr.coherenceMisses += weight;
        res.servicedBy = ServicedBy::L3;
        return res;
    }
    ctr.l3Misses += weight;

    // The requester also pays per-hop latency and link queueing to
    // reach the servicing socket when that socket is not its own. At
    // S=1 every socket is 0, so the stall is exactly the bus wait.
    FrontSideBus &hb = buses_[home];
    double extra = hb.queueWaitCycles();
    unsigned servicing = home;
    if (out.remoteDirty) {
        // Cache-to-cache transfer from the owner; its writeback also
        // crosses the home bus.
        ctr.coherenceMisses += weight;
        hb.addLineTransfers(static_cast<double>(weight));
        res.servicedBy = ServicedBy::RemoteCache;
        servicing = socketOf(out.remoteOwner);
    } else {
        res.servicedBy = ServicedBy::Memory;
    }
    const unsigned my_socket = socketOf(cpu_id);
    if (servicing != my_socket) {
        extra += topo_.hopLatencyCycles *
                     socketHops(my_socket, servicing, sockets_) +
                 link_->queueWaitCycles();
        link_->addLineTransfers(static_cast<double>(weight));
        remoteMisses_ += weight;
    } else {
        localMisses_ += weight;
    }
    hb.addLineTransfers(static_cast<double>(weight));
    res.memStallExtraCycles = extra;
    return res;
}

inline AccessResult
MemorySystem::AccessEpoch::access(Addr addr, AccessKind kind)
{
    return sys_->accessImpl(*h_, *ctr_, addr, kind);
}

} // namespace odbsim::mem

#endif // ODBSIM_MEM_HIERARCHY_HH

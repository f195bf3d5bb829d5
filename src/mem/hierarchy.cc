#include "mem/hierarchy.hh"

#include <bit>

#include "sim/logging.hh"

namespace odbsim::mem
{

MemCounters &
MemCounters::operator+=(const MemCounters &o)
{
    codeFetches += o.codeFetches;
    dataReads += o.dataReads;
    dataWrites += o.dataWrites;
    l2Misses += o.l2Misses;
    l3Misses += o.l3Misses;
    coherenceMisses += o.coherenceMisses;
    return *this;
}

CpuCacheHierarchy::CpuCacheHierarchy(unsigned cpu_id,
                                     const CacheGeometry &l2,
                                     const CacheGeometry &l3,
                                     std::uint32_t sample_factor)
    : cpuId_(cpu_id), l2_("l2", l2), l3_("l3", l3),
      sampleFactor_(sample_factor)
{
    const std::uint64_t line_bytes = l2.lineBytes;
    odbsim_assert(line_bytes >= 1 && std::has_single_bit(line_bytes),
                  "line size must be a power of two");
    odbsim_assert(sample_factor >= 1 &&
                      std::has_single_bit(
                          static_cast<std::uint64_t>(sample_factor)),
                  "sample factor must be a power of two");
    lineShift_ = static_cast<unsigned>(std::countr_zero(line_bytes));
    compressShift_ =
        lineShift_ + static_cast<unsigned>(std::countr_zero(
                         static_cast<std::uint64_t>(sample_factor)));
}

MemCounters
CpuCacheHierarchy::totalCounters() const
{
    MemCounters sum = counters_[0];
    sum += counters_[1];
    return sum;
}

void
CpuCacheHierarchy::resetCounters()
{
    counters_[0].reset();
    counters_[1].reset();
    l2_.resetStats();
    l3_.resetStats();
}

void
CpuCacheHierarchy::invalidateLine(Addr line_addr)
{
    const Addr c = compress(line_addr);
    l2_.invalidate(c);
    l3_.invalidate(c);
}

void
CpuCacheHierarchy::flush()
{
    l2_.flush();
    l3_.flush();
}

CacheGeometry
MemorySystem::scaleGeometry(const CacheGeometry &g, std::uint32_t factor,
                            const char *name)
{
    CacheGeometry scaled = g;
    odbsim_assert(g.sizeBytes % factor == 0,
                  "cache ", name, " size not divisible by sample factor");
    scaled.sizeBytes = g.sizeBytes / factor;
    odbsim_assert(scaled.numSets() >= 2,
                  "sample factor leaves too few sets in ", name);
    return scaled;
}

MemorySystem::MemorySystem(unsigned num_cpus,
                           const HierarchyConfig &hier_cfg,
                           const BusConfig &bus_cfg,
                           std::uint32_t sample_factor,
                           const TopologyConfig &topo)
    : hierCfg_(hier_cfg), topo_(topo), sampleFactor_(sample_factor),
      weight_(sample_factor),
      lineMask_(~static_cast<Addr>(hier_cfg.l3.lineBytes - 1)),
      sampledStride_(static_cast<Addr>(hier_cfg.l3.lineBytes) *
                     sample_factor),
      singleCpu_(num_cpus == 1),
      sockets_(topo.sockets < 1 ? 1u : topo.sockets),
      cpusPerSocket_((num_cpus + sockets_ - 1) / sockets_),
      multiSocket_(sockets_ > 1), bus_(bus_cfg), directory_(num_cpus)
{
    odbsim_assert(num_cpus >= 1, "need at least one CPU");
    odbsim_assert(sample_factor >= 1 &&
                      (sample_factor & (sample_factor - 1)) == 0,
                  "sample factor must be a power of two");
    odbsim_assert(std::has_single_bit(
                      static_cast<std::uint64_t>(hier_cfg.l3.lineBytes)),
                  "line size must be a power of two");
    odbsim_assert(!(multiSocket_ && hier_cfg.sharedL3),
                  "CMP (one die) and multi-socket topology are exclusive");
    odbsim_assert(sockets_ <= maxCoherentCpus, "too many sockets");
    odbsim_assert(topo_.pageShift >= 6 && topo_.pageShift <= 30,
                  "unreasonable topology page shift");
    const CacheGeometry l2 =
        scaleGeometry(hier_cfg.l2, sample_factor, "l2");
    const CacheGeometry l3 =
        scaleGeometry(hier_cfg.l3, sample_factor, "l3");
    for (unsigned i = 0; i < num_cpus; ++i)
        cpus_.push_back(std::make_unique<CpuCacheHierarchy>(
            i, l2, l3, sample_factor));
    if (hier_cfg.sharedL3)
        sharedL3_ = std::make_unique<SetAssocCache>("shared-l3", l3);

    // Sockets 1..S-1 get their own bus and directory; the interconnect
    // reuses the M/G/1 bus model with link occupancies and no base
    // residency (the per-hop latency is charged separately).
    if (multiSocket_) {
        for (unsigned s = 1; s < sockets_; ++s) {
            extraBuses_.push_back(
                std::make_unique<FrontSideBus>(bus_cfg));
            extraDirs_.push_back(
                std::make_unique<CoherenceDirectory>(num_cpus));
        }
        BusConfig link_cfg = bus_cfg;
        link_cfg.baseTransactionCycles = 0.0;
        link_cfg.lineOccupancyCycles = topo_.linkOccupancyCycles;
        link_cfg.dmaOccupancyCyclesPerKb =
            topo_.linkDmaOccupancyCyclesPerKb;
        link_ = std::make_unique<FrontSideBus>(link_cfg);
    }
    buses_.push_back(&bus_);
    dirs_.push_back(&directory_);
    for (unsigned s = 1; s < sockets_; ++s) {
        buses_.push_back(extraBuses_[s - 1].get());
        dirs_.push_back(extraDirs_[s - 1].get());
    }

    // Size each directory for short probe chains: reserve four times
    // the lines the caches can keep resident, so the load is at most
    // 7/32 at that bound (about 1/8 in steady state) and warm-up never
    // rehashes. Every L3 miss erases its victim's entry and inserts the
    // new line; at load 1/2 linear probing turns those into
    // variable-length cluster walks and backward shifts whose
    // mispredicted loop exits cost more host time than the bigger table
    // does. The tables still grow on demand.
    for (CoherenceDirectory *d : dirs_)
        d->reserve(4 * num_cpus * (l3.numLines() + l2.numLines()));
}

void
MemorySystem::setHomeRegion(Addr base, std::uint64_t bytes,
                            unsigned socket)
{
    if (!multiSocket_ || bytes == 0)
        return;
    odbsim_assert(socket < sockets_, "home socket out of range");
    const Addr first = base >> topo_.pageShift;
    const Addr last = (base + bytes - 1) >> topo_.pageShift;
    for (Addr page = first; page <= last; ++page)
        homePages_.findOrInsert(page) =
            static_cast<std::uint8_t>(socket);
}

AccessResult
MemorySystem::access(unsigned cpu_id, Addr addr, AccessKind kind,
                     ExecMode mode, Tick now)
{
    advanceBuses(now);
    CpuCacheHierarchy &h = *cpus_[cpu_id];
    return accessImpl(h, h.counters(mode), addr, kind);
}

AccessResult
MemorySystem::accessImpl(CpuCacheHierarchy &h, MemCounters &ctr,
                         Addr addr, AccessKind kind)
{
    const unsigned cpu_id = h.cpuId_;
    const std::uint64_t weight = weight_;
    const Addr line = addr & lineMask_;
    const bool is_code = kind == AccessKind::CodeFetch;
    const bool is_write = kind == AccessKind::DataWrite;

    AccessResult res;
    if (is_code)
        ctr.codeFetches += weight;
    else if (is_write)
        ctr.dataWrites += weight;
    else
        ctr.dataReads += weight;

    // The scaled tag stores index on the compacted sampled-line space.
    const Addr caddr = h.compress(addr);

    // Dirty victims from L2 are assumed to hit L3 (tag-store
    // approximation); only L3 victims produce bus writebacks.
    if (h.l2_.access(caddr, is_write).hit) {
        if (is_write) {
            if (singleCpu_) {
                // P=1 fast path: onWriteHit's remote mask is provably
                // empty (sharers can only be bit 0), so only the
                // directory's tracking state needs to advance.
                dirFor(line).touchSolo(line, true);
            } else {
                std::uint32_t mask = dirFor(line).onWriteHit(cpu_id, line);
                while (mask) {
                    const unsigned j =
                        static_cast<unsigned>(std::countr_zero(mask));
                    mask &= mask - 1;
                    cpus_[j]->invalidateLine(line);
                }
            }
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
        if (sharedL3_) {
            // Inclusive shared L3: evicting a line removes every
            // core's L2 copy and its directory state.
            for (auto &c : cpus_)
                c->l2_.invalidate(l3res.evictedLineAddr);
            directory_.onDmaFill(victim_line);
        } else {
            dirFor(victim_line).onEviction(cpu_id, victim_line);
        }
        if (l3res.evictedDirty) {
            if (!multiSocket_) {
                bus_.addLineTransfers(static_cast<double>(weight));
            } else {
                // The writeback lands in the victim's home memory and
                // crosses the interconnect when that home is remote.
                const unsigned vhome = homeSocket(victim_line);
                buses_[vhome]->addLineTransfers(
                    static_cast<double>(weight));
                if (vhome != socketOf(cpu_id))
                    link_->addLineTransfers(static_cast<double>(weight));
            }
        }
    }
    if (l3res.hit) {
        if (singleCpu_) {
            // P=1: a fill by the only CPU can neither observe a remote
            // dirty copy nor need invalidations; track the line only.
            dirFor(line).touchSolo(line, is_write);
            res.servicedBy = ServicedBy::L3;
            return res;
        }
        // In CMP mode an L3 hit may still be a coherence transfer:
        // another core wrote the line and the modified copy is served
        // on-die (cheap), but it counts as a HITM event. Remote copies
        // to invalidate live only in L2s (the L3 is shared); in SMP
        // mode the whole remote stack is invalidated.
        const CoherenceOutcome hit_out =
            dirFor(line).onFill(cpu_id, line, is_write);
        std::uint32_t mask = hit_out.invalidateMask;
        while (mask) {
            const unsigned j =
                static_cast<unsigned>(std::countr_zero(mask));
            mask &= mask - 1;
            if (sharedL3_)
                cpus_[j]->l2_.invalidate(caddr);
            else
                cpus_[j]->invalidateLine(line);
        }
        if (hit_out.remoteDirty) {
            if (sharedL3_) {
                cpus_[hit_out.remoteOwner]->l2_.invalidate(caddr);
                ctr.coherenceMisses += weight;
            } else {
                cpus_[hit_out.remoteOwner]->invalidateLine(line);
            }
        }
        res.servicedBy = ServicedBy::L3;
        return res;
    }
    ctr.l3Misses += weight;

    if (multiSocket_)
        return missMultiSocket(h, ctr, line, is_write, res);

    if (singleCpu_) {
        // P=1: an L3 miss is always serviced by memory — remoteDirty
        // is impossible, so no cache-to-cache transfer or extra
        // writeback can occur.
        directory_.touchSolo(line, is_write);
        res.servicedBy = ServicedBy::Memory;
        res.memStallExtraCycles = bus_.queueWaitCycles();
        bus_.addLineTransfers(static_cast<double>(weight));
        return res;
    }

    const CoherenceOutcome out = directory_.onFill(cpu_id, line, is_write);
    std::uint32_t mask = out.invalidateMask;
    while (mask) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(mask));
        mask &= mask - 1;
        cpus_[j]->invalidateLine(line);
    }
    if (out.remoteDirty) {
        // Cache-to-cache transfer: the dirty copy leaves the remote
        // cache and its writeback also crosses the bus.
        cpus_[out.remoteOwner]->invalidateLine(line);
        ctr.coherenceMisses += weight;
        bus_.addLineTransfers(static_cast<double>(weight));
        res.servicedBy = ServicedBy::RemoteCache;
    } else {
        res.servicedBy = ServicedBy::Memory;
    }
    res.memStallExtraCycles = bus_.queueWaitCycles();
    bus_.addLineTransfers(static_cast<double>(weight));
    return res;
}

AccessResult
MemorySystem::missMultiSocket(CpuCacheHierarchy &h, MemCounters &ctr,
                              Addr line, bool is_write, AccessResult res)
{
    // The miss is orchestrated by the line's home socket: its
    // directory classifies the miss and its bus carries the fill (and
    // any writeback). The requester additionally pays per-hop latency
    // and link queueing to reach the servicing socket when that socket
    // is not its own.
    const unsigned cpu_id = h.cpuId_;
    const double weight = static_cast<double>(weight_);
    const unsigned my_socket = cpu_id / cpusPerSocket_;
    const unsigned home = homeSocket(line);
    CoherenceDirectory &dir = *dirs_[home];
    FrontSideBus &hb = *buses_[home];

    double extra = hb.queueWaitCycles();
    unsigned servicing = home;
    if (singleCpu_) {
        // P=1: no remote cache can hold the line dirty.
        dir.touchSolo(line, is_write);
        res.servicedBy = ServicedBy::Memory;
    } else {
        const CoherenceOutcome out = dir.onFill(cpu_id, line, is_write);
        std::uint32_t mask = out.invalidateMask;
        while (mask) {
            const unsigned j =
                static_cast<unsigned>(std::countr_zero(mask));
            mask &= mask - 1;
            cpus_[j]->invalidateLine(line);
        }
        if (out.remoteDirty) {
            // Cache-to-cache transfer from the owner; its writeback
            // also crosses the home bus.
            cpus_[out.remoteOwner]->invalidateLine(line);
            ctr.coherenceMisses += weight_;
            hb.addLineTransfers(weight);
            res.servicedBy = ServicedBy::RemoteCache;
            servicing = out.remoteOwner / cpusPerSocket_;
        } else {
            res.servicedBy = ServicedBy::Memory;
        }
    }
    if (servicing != my_socket) {
        extra += topo_.hopLatencyCycles *
                     socketHops(my_socket, servicing, sockets_) +
                 link_->queueWaitCycles();
        link_->addLineTransfers(weight);
        remoteMisses_ += weight_;
    } else {
        localMisses_ += weight_;
    }
    hb.addLineTransfers(weight);
    res.memStallExtraCycles = extra;
    return res;
}

void
MemorySystem::dmaFill(Addr base, std::uint64_t bytes, Tick now,
                      int home_socket)
{
    advanceBuses(now);
    if (!multiSocket_)
        bus_.addDmaBytes(static_cast<double>(bytes));

    // Only sampled lines can be cached; snoop just those. On a
    // multi-socket topology this runs against the lines' *current*
    // home directories, before any re-homing below.
    const Addr stride = sampledStride_;
    Addr first = base & ~static_cast<Addr>(stride - 1);
    if (first < base)
        first += stride;
    for (Addr line = first; line < base + bytes; line += stride) {
        CoherenceDirectory &dir = dirFor(line);
        const SnoopState s = dir.snoop(line);
        if (!s.tracked)
            continue;
        for (unsigned j = 0; j < numCpus(); ++j) {
            if (s.sharers & (1u << j))
                cpus_[j]->invalidateLine(line);
        }
        if (s.modifiedOwner >= 0)
            cpus_[static_cast<unsigned>(s.modifiedOwner)]
                ->invalidateLine(line);
        if (sharedL3_)
            sharedL3_->invalidate(cpus_[0]->compress(line));
        dir.onDmaFill(line);
    }

    if (multiSocket_) {
        // First-touch homing: the filled region moves to the socket of
        // the process that requested the read (when the caller knows
        // it). The DMA occupies the home bus, plus the interconnect
        // when the home is not socket 0, where I/O attaches.
        if (home_socket >= 0)
            setHomeRegion(base, bytes,
                          static_cast<unsigned>(home_socket));
        const unsigned home = homeSocket(base);
        buses_[home]->addDmaBytes(static_cast<double>(bytes));
        if (home != 0)
            link_->addDmaBytes(static_cast<double>(bytes));
    }
}

void
MemorySystem::dmaDrain(std::uint64_t bytes, Tick now)
{
    advanceBuses(now);
    // Drains always stage through socket 0, where I/O attaches.
    bus_.addDmaBytes(static_cast<double>(bytes));
}

void
MemorySystem::resetStats()
{
    for (auto &c : cpus_)
        c->resetCounters();
    if (sharedL3_)
        sharedL3_->resetStats();
    bus_.resetStats();
    directory_.resetStats();
    for (auto &b : extraBuses_)
        b->resetStats();
    for (auto &d : extraDirs_)
        d->resetStats();
    if (link_)
        link_->resetStats();
    localMisses_ = 0;
    remoteMisses_ = 0;
}

void
MemorySystem::flushAll()
{
    for (auto &c : cpus_)
        c->flush();
    if (sharedL3_)
        sharedL3_->flush();
    for (CoherenceDirectory *d : dirs_)
        d->clear();
    resetStats();
}

} // namespace odbsim::mem

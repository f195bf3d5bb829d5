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

} // namespace odbsim::mem

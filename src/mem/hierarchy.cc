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
    : cpuId_(cpu_id), l2_("l2", l2), l3_("l3", l3)
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
    : topo_(topo), sampleFactor_(sample_factor), weight_(sample_factor),
      lineMask_(~static_cast<Addr>(hier_cfg.l3.lineBytes - 1)),
      sampledStride_(static_cast<Addr>(hier_cfg.l3.lineBytes) *
                     sample_factor),
      sockets_(topo.sockets < 1 ? 1u : topo.sockets),
      cpusPerSocket_((num_cpus + sockets_ - 1) / sockets_)
{
    odbsim_assert(num_cpus >= 1, "need at least one CPU");
    odbsim_assert(sample_factor >= 1 &&
                      (sample_factor & (sample_factor - 1)) == 0,
                  "sample factor must be a power of two");
    odbsim_assert(std::has_single_bit(
                      static_cast<std::uint64_t>(hier_cfg.l3.lineBytes)),
                  "line size must be a power of two");
    odbsim_assert(sockets_ == 1 || !hier_cfg.sharedL3,
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

    // Size each directory for short probe chains: reserve four times
    // the lines the caches can keep resident, so the load is at most
    // 7/32 at that bound (about 1/8 in steady state) and warm-up never
    // rehashes. Every L3 miss erases its victim's entry and inserts the
    // new line; at load 1/2 linear probing turns those into
    // variable-length cluster walks and backward shifts whose
    // mispredicted loop exits cost more host time than the bigger table
    // does. The tables still grow on demand.
    buses_.reserve(sockets_);
    dirs_.reserve(sockets_);
    for (unsigned s = 0; s < sockets_; ++s) {
        buses_.emplace_back(bus_cfg);
        dirs_.emplace_back(num_cpus).reserve(
            4 * num_cpus * (l3.numLines() + l2.numLines()));
    }

    // The interconnect reuses the M/G/1 bus model with link occupancies
    // and no base residency (the per-hop latency is charged
    // separately).
    if (sockets_ > 1) {
        BusConfig link_cfg = bus_cfg;
        link_cfg.baseTransactionCycles = 0.0;
        link_cfg.lineOccupancyCycles = topo_.linkOccupancyCycles;
        link_cfg.dmaOccupancyCyclesPerKb =
            topo_.linkDmaOccupancyCyclesPerKb;
        link_ = std::make_unique<FrontSideBus>(link_cfg);
    }
}

void
MemorySystem::setHomeRegion(Addr base, std::uint64_t bytes,
                            unsigned socket)
{
    if (sockets_ == 1 || bytes == 0)
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

void
MemorySystem::invalidateSharers(std::uint32_t cpus, Addr line)
{
    for (; cpus; cpus &= cpus - 1)
        cpus_[static_cast<unsigned>(std::countr_zero(cpus))]
            ->invalidateLine(line);
}

void
MemorySystem::dmaFill(Addr base, std::uint64_t bytes, Tick now,
                      int home_socket)
{
    advanceBuses(now);

    // Only sampled lines can be cached; snoop just those, against the
    // lines' *current* home directories, before any re-homing below.
    const Addr stride = sampledStride_;
    Addr first = base & ~static_cast<Addr>(stride - 1);
    if (first < base)
        first += stride;
    for (Addr line = first; line < base + bytes; line += stride) {
        CoherenceDirectory &dir = dirFor(line);
        const SnoopState s = dir.snoop(line);
        if (!s.tracked)
            continue;
        // A modified owner is always also a sharer.
        invalidateSharers(s.sharers, line);
        if (sharedL3_)
            sharedL3_->invalidate(cpus_[0]->compress(line));
        dir.onDmaFill(line);
    }

    // First-touch homing: the filled region moves to the socket of the
    // process that requested the read (when the caller knows it). The
    // DMA occupies the home bus, plus the interconnect when the home is
    // not socket 0, where I/O attaches.
    if (home_socket >= 0)
        setHomeRegion(base, bytes, static_cast<unsigned>(home_socket));
    const unsigned home = homeSocket(base);
    buses_[home].addDmaBytes(static_cast<double>(bytes));
    if (home != 0)
        link_->addDmaBytes(static_cast<double>(bytes));
}

void
MemorySystem::dmaDrain(std::uint64_t bytes, Tick now)
{
    advanceBuses(now);
    // Drains always stage through socket 0, where I/O attaches.
    buses_[0].addDmaBytes(static_cast<double>(bytes));
}

void
MemorySystem::resetStats()
{
    for (auto &c : cpus_)
        c->resetCounters();
    if (sharedL3_)
        sharedL3_->resetStats();
    for (FrontSideBus &b : buses_)
        b.resetStats();
    for (CoherenceDirectory &d : dirs_)
        d.resetStats();
    if (link_)
        link_->resetStats();
    localMisses_ = 0;
    remoteMisses_ = 0;
}

} // namespace odbsim::mem

#include "cpu/core.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>

#include "sim/logging.hh"

namespace odbsim::cpu
{

namespace
{

constexpr Addr lineBytes = 64;

/** One generated region-stream reference, buffered until simulated. */
struct Ref
{
    Addr addr;
    mem::AccessKind kind;
};

/** Region-stream references generated per batch (a 1 KB stack buffer). */
constexpr std::size_t refBatch = 64;

} // namespace

std::uint64_t
skewedLineIndex(double u, double exp, std::uint64_t lines)
{
    // Why the fast paths give pow's index bit for bit:
    //  - exp 1.0: IEEE 754 pow(u, 1.0) is exactly u.
    //  - exp 3.0 and 1.5: let x = u^exp exactly and n = lines (exact in
    //    a double). `approx` = fl(fl(fl(u*u)*u)*n), or fl(fl(u*fl(sqrt
    //    u))*n) with sqrt correctly rounded, takes three roundings of
    //    at most 2^-53 each, so |approx - x*n| < 2^-51 * x*n (only
    //    values below 1, which truncate to 0 either way, can come near
    //    the subnormal range). pow's result for a libm with relative
    //    error below 2^-42, times n and rounded, is within about
    //    2^-42 * x*n of x*n. The two values are then less than
    //    approx * 2^-40 apart. When approx is farther than that from
    //    every integer, no integer lies between them, both truncate to
    //    the same index, and the clamp to lines - 1 treats them alike.
    //    Otherwise we ask pow. The guard decides exactly: with
    //    i = trunc(approx), approx - i is exact (Sterbenz, or i == 0);
    //    1 - frac is exact for frac >= 0.5 and at least 0.5 otherwise,
    //    and a margin of 0.5 or more always falls back. glibc's pow is
    //    within 1 ulp (2^-52), far inside the margin.
    //  - Other exponents call std::pow.
    const double n = static_cast<double>(lines);
    double scaled;
    if (exp == 1.0) {
        scaled = u * n;
    } else if (exp == 3.0 || exp == 1.5) {
        const double approx =
            (exp == 3.0 ? u * u * u : u * std::sqrt(u)) * n;
        const double frac =
            approx - static_cast<double>(static_cast<std::uint64_t>(approx));
        const double margin = approx * 0x1p-40;
        scaled = frac > margin && 1.0 - frac > margin
                     ? approx
                     : std::pow(u, exp) * n;
    } else {
        scaled = std::pow(u, exp) * n;
    }
    const auto idx = static_cast<std::uint64_t>(scaled);
    return idx < lines ? idx : lines - 1;
}

CpuCore::CpuCore(unsigned id, const CoreConfig &cfg,
                 mem::MemorySystem &memsys, std::uint64_t seed,
                 unsigned mem_cpu_id)
    : id_(id), memId_(mem_cpu_id == ~0u ? id : mem_cpu_id), cfg_(cfg),
      clock_(cfg.freqHz), memsys_(memsys),
      rng_(seed ^ (0x9e3779b97f4a7c15ULL * (id + 1))),
      serviceCycles_{0.0, cfg.costs.l2MissCycles, cfg.costs.l3MissCycles,
                     cfg.costs.l3MissCycles}
{
    odbsim_assert(cfg.samplePeriod == memsys.sampleFactor(),
                  "core samplePeriod (", cfg.samplePeriod,
                  ") must match MemorySystem sample factor (",
                  memsys.sampleFactor(), ")");
    odbsim_assert(memId_ < memsys.numCpus(),
                  "mem cpu id out of range");
}

CpuCore::RegionStream
CpuCore::makeStream(Addr base, std::uint64_t bytes, std::uint64_t stride)
{
    RegionStream s;
    s.lines = std::max<std::uint64_t>(1, bytes / stride);
    // Align the region base itself to the sampled-line grid so reuse
    // across work items of the same region is exact.
    s.alignedBase = base / stride * stride;
    return s;
}

Addr
CpuCore::sampleStream(const RegionStream &s, double exp,
                      std::uint64_t stride)
{
    // Pick among the region's *sampled* lines (every S-th line) with a
    // power-law concentration toward the region start.
    return s.alignedBase +
           skewedLineIndex(rng_.uniform(), exp, s.lines) * stride;
}

double
CpuCore::stallCyclesFor(const mem::AccessResult &res, bool is_code) const
{
    // The memory system reports the load- and topology-dependent part
    // of an L3 miss (bus queueing, plus interconnect hops on
    // multi-socket machines); at S=1 it is exactly the front-side bus
    // queueWaitCycles(). It is +0.0 on an L2 or L3 hit, so an L3 hit
    // adds exactly l2MissCycles and an L2 hit adds +0.0 to the base.
    static_assert(static_cast<unsigned>(mem::ServicedBy::L2) == 0 &&
                      static_cast<unsigned>(mem::ServicedBy::L3) == 1 &&
                      static_cast<unsigned>(mem::ServicedBy::Memory) == 2 &&
                      static_cast<unsigned>(mem::ServicedBy::RemoteCache) ==
                          3,
                  "serviceCycles_ follows ServicedBy's order");
    const StallCosts &c = cfg_.costs;
    const double base = is_code ? c.tcMissCycles : c.l2HitCycles;
    return base + (serviceCycles_[static_cast<unsigned>(res.servicedBy)] +
                   res.memStallExtraCycles);
}

ExecResult
CpuCore::execute(const WorkItem &item, Tick now, double cycle_scale)
{
    const double k = static_cast<double>(cfg_.samplePeriod);
    const std::uint64_t stride = lineBytes * cfg_.samplePeriod;
    const auto mode = item.mode;
    ModeCpuCounters &ctr = counters_[mode];
    const double instr = static_cast<double>(item.instructions);

    // Flat, statistically-modeled components (paper Table 3).
    double cycles = instr * cfg_.costs.baseCyclesPerInstr;
    const double mispredicts =
        instr * cfg_.branchesPerInstr * cfg_.mispredictPerBranch;
    cycles += mispredicts * cfg_.costs.branchMispredictCycles;
    const double tlb_misses = instr * cfg_.tlbMissPerInstr;
    cycles += tlb_misses * cfg_.costs.tlbMissCycles;

    // All of this item's references share one (cpu, mode, now) triple,
    // so the per-reference loops below run against a single access
    // epoch: the bus-clock advance and the per-mode counter lookup
    // happen once per WorkItem instead of once per reference. The
    // epoch opens lazily at the first reference — a WorkItem that
    // generates none must not touch the bus clock, exactly as the
    // per-reference path behaved.
    std::optional<mem::MemorySystem::AccessEpoch> epoch;
    const auto accessRef = [&](Addr addr, mem::AccessKind kind) {
        if (!epoch)
            epoch.emplace(memsys_.beginEpoch(memId_, mode, now));
        return epoch->access(addr, kind);
    };

    // Region-stream references are generated up to refBatch at a time
    // into a stack buffer, then simulated in order, so the host runs
    // the draws of a batch back to back instead of between hierarchy
    // walks. This is exact: the generator draws only from rng_ and no
    // draw depends on an access result, so filling the buffer first
    // keeps the order of the RNG draws (pick, line index, write), and
    // draining it in order keeps the order of the accesses and of the
    // `cycles +=` sums. Generation never touches the memory system, so
    // the epoch still opens at the first reference.
    Ref batch[refBatch]; // written before read
    const auto simulate = [&](std::size_t n, bool is_code) {
        for (std::size_t j = 0; j < n; ++j) {
            const mem::AccessResult res =
                accessRef(batch[j].addr, batch[j].kind);
            cycles += stallCyclesFor(res, is_code) * k;
        }
    };

    // Code stream: references reaching L2 after trace-cache misses.
    // The stream descriptor (alignment, line count) is invariant per
    // WorkItem and hoisted out of the reference loop.
    codeCarry_ += instr * cfg_.codeL2RefsPerInstr / k;
    std::uint64_t n_code = static_cast<std::uint64_t>(codeCarry_);
    codeCarry_ -= static_cast<double>(n_code);
    if (n_code) {
        const RegionStream code = makeStream(
            item.codeBase, std::max<std::uint64_t>(item.codeBytes, stride),
            stride);
        while (n_code) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(n_code, refBatch));
            for (std::size_t j = 0; j < n; ++j)
                batch[j] = {sampleStream(code, cfg_.codeHotExponent, stride),
                            mem::AccessKind::CodeFetch};
            simulate(n, true);
            n_code -= n;
        }
    }

    // Data region streams.
    double total_weight = 0.0;
    const double wp = item.privateBytes ? item.privateWeight : 0.0f;
    const double ws = item.sharedBytes ? item.sharedWeight : 0.0f;
    const double wf = item.frameAddr ? item.frameWeight : 0.0f;
    total_weight = wp + ws + wf;

    dataCarry_ += instr * cfg_.dataL2RefsPerInstr *
                  static_cast<double>(item.dataRateScale) / k;
    std::uint64_t n_data = static_cast<std::uint64_t>(dataCarry_);
    dataCarry_ -= static_cast<double>(n_data);
    if (total_weight <= 0.0)
        n_data = 0;

    if (n_data) {
        // The private, shared and frame streams, by pick index. The
        // frame stream's exponent is 1.0: pure identity.
        const RegionStream streams[3] = {
            makeStream(item.privateBase, item.privateBytes, stride),
            makeStream(item.sharedBase, item.sharedBytes, stride),
            makeStream(item.frameAddr,
                       std::max<std::uint32_t>(item.frameBytes, lineBytes),
                       stride)};
        const double exps[3] = {cfg_.dataHotExponent, cfg_.dataHotExponent,
                                1.0};
        const double write_fractions[3] = {cfg_.privateWriteFraction, 0.10,
                                           cfg_.frameWriteFraction};
        while (n_data) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(n_data, refBatch));
            for (std::size_t j = 0; j < n; ++j) {
                // The stream is private while the pick is below wp,
                // shared while it is below wp + ws, else frame. Counting
                // the differences that are not negative picks it
                // without a branch; b <= a, so a < 0 counts 0.
                const double pick = rng_.uniform() * total_weight;
                const double a = pick - wp;
                const double b = a - ws;
                const unsigned which = (a >= 0.0) + (b >= 0.0);
                const Addr addr =
                    sampleStream(streams[which], exps[which], stride);
                const bool write = rng_.chance(write_fractions[which]);
                batch[j] = {addr, write ? mem::AccessKind::DataWrite
                                        : mem::AccessKind::DataRead};
            }
            simulate(n, false);
            n_data -= n;
        }
    }

    // Exact references: feed every sampled line of each span exactly
    // once (set sampling — per-line reuse across transactions is
    // preserved exactly).
    for (unsigned r = 0; r < item.numRefs; ++r) {
        const DataRef &ref = item.refs[r];
        Addr first = (ref.addr + stride - 1) / stride * stride;
        const Addr end = ref.addr + std::max<std::uint32_t>(ref.bytes, 1);
        for (Addr a = first; a < end; a += stride) {
            const mem::AccessResult res =
                accessRef(a, ref.write ? mem::AccessKind::DataWrite
                                       : mem::AccessKind::DataRead);
            cycles += stallCyclesFor(res, false) * k;
        }
    }

    cycles += item.extraCycles;
    cycles *= cycle_scale;

    // One batched counter write-back per WorkItem.
    ctr.instructions += instr;
    ctr.branchMispredicts += mispredicts;
    ctr.tlbMisses += tlb_misses;
    ctr.otherCycles += item.extraCycles;
    ctr.cycles += cycles;

    ExecResult out;
    out.cycles = cycles;
    out.ticks = clock_.cyclesToTicks(cycles);
    return out;
}

} // namespace odbsim::cpu

/**
 * @file
 * The CPU core timing model.
 *
 * Per the paper's own Table 3/4 methodology, the flat components of
 * CPI — base issue cost, branch mispredictions, TLB misses, and the
 * trace-cache/L1 behaviour — are charged at fixed per-event costs with
 * statistically-modeled event rates, while the W- and P-dependent
 * components (L2/L3 capacity behaviour, coherence, bus queueing) come
 * from a set-sampled tag-store simulation of the post-L1 reference
 * stream through the shared MemorySystem.
 */

#ifndef ODBSIM_CPU_CORE_HH
#define ODBSIM_CPU_CORE_HH

#include <cstdint>

#include "cpu/counters.hh"
#include "cpu/stall_costs.hh"
#include "cpu/work.hh"
#include "mem/hierarchy.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace odbsim::cpu
{

/** Tunables of the core timing model. */
struct CoreConfig
{
    double freqHz = 1.6e9;
    /** Set-sampling factor S (must match the MemorySystem's). */
    std::uint32_t samplePeriod = 16;
    /** Post-L1 data references per instruction (region streams). */
    double dataL2RefsPerInstr = 0.016;
    /** Code references reaching L2 per instruction (TC-miss rate). */
    double codeL2RefsPerInstr = 0.008;
    /** TLB misses per instruction (flat, charged statistically). */
    double tlbMissPerInstr = 0.0035;
    /** Fraction of instructions that are branches. */
    double branchesPerInstr = 0.20;
    /** Misprediction probability per branch. */
    double mispredictPerBranch = 0.02;
    /** Probability that a private-region stream reference writes. */
    double privateWriteFraction = 0.30;
    /** Probability that a frame stream reference writes. */
    double frameWriteFraction = 0.20;
    /** Concentration of code fetches (higher = hotter front). */
    double codeHotExponent = 3.0;
    /** Concentration of private/shared-region references. */
    double dataHotExponent = 1.5;
    StallCosts costs;
};

/**
 * Index of a hot-skewed pick among @p lines sampled lines, for a
 * uniform draw @p u in [0, 1): exactly
 * `min(lines - 1, uint64(std::pow(u, exp) * lines))`, but without
 * calling std::pow for the presets' exponents 1.0, 1.5 and 3.0 except
 * where the result could depend on pow's last bits (see core.cc).
 */
std::uint64_t skewedLineIndex(double u, double exp, std::uint64_t lines);

/** Result of executing one WorkItem. */
struct ExecResult
{
    double cycles = 0.0;
    Tick ticks = 0;
};

/**
 * One processor of the simulated SMP.
 */
class CpuCore
{
  public:
    /**
     * @param mem_cpu_id Index of the cache hierarchy this (logical)
     *        CPU uses; SMT siblings share one (~0 means same as id).
     */
    CpuCore(unsigned id, const CoreConfig &cfg, mem::MemorySystem &memsys,
            std::uint64_t seed = 0x0db5eedULL,
            unsigned mem_cpu_id = ~0u);

    unsigned id() const { return id_; }
    const CoreConfig &config() const { return cfg_; }
    const ClockDomain &clock() const { return clock_; }

    CpuCounters &counters() { return counters_; }
    const CpuCounters &counters() const { return counters_; }

    unsigned memCpuId() const { return memId_; }

    /**
     * Execute a work item at simulated time @p now.
     *
     * @param cycle_scale Multiplier on the consumed cycles (SMT
     *        sibling contention).
     * @return cycles consumed and the equivalent tick span.
     */
    ExecResult execute(const WorkItem &item, Tick now,
                       double cycle_scale = 1.0);

    void resetCounters() { counters_.reset(); }

  private:
    /**
     * Per-WorkItem invariants of one region stream, hoisted out of the
     * per-reference loops: the sampled-line grid alignment and line
     * count depend only on (base, bytes, stride), so computing them
     * once per item removes two 64-bit divisions per reference.
     */
    struct RegionStream
    {
        Addr alignedBase = 0;
        std::uint64_t lines = 1;
    };

    static RegionStream makeStream(Addr base, std::uint64_t bytes,
                                   std::uint64_t stride);
    /** A sampled-line address within the stream, hot-skewed by @p exp
     *  (skewedLineIndex()). */
    Addr sampleStream(const RegionStream &s, double exp,
                      std::uint64_t stride);

    /** Stall cycles of one reference: the base cost of its kind plus
     *  the serviceCycles_ entry and the memory system's extra cycles. */
    double stallCyclesFor(const mem::AccessResult &res, bool is_code) const;

    unsigned id_;
    unsigned memId_;
    CoreConfig cfg_;
    ClockDomain clock_;
    mem::MemorySystem &memsys_;
    Rng rng_;
    /** Fixed stall cycles beyond the base cost, by mem::ServicedBy: an
     *  L2 hit, an L3 hit, and an L3 miss served by memory or by a
     *  remote cache. */
    double serviceCycles_[4];
    CpuCounters counters_;

    /** Fractional-sample carries to avoid rounding bias. */
    double dataCarry_ = 0.0;
    double codeCarry_ = 0.0;
};

} // namespace odbsim::cpu

#endif // ODBSIM_CPU_CORE_HH

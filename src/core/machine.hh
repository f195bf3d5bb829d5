/**
 * @file
 * Machine presets: the Quad Xeon MP server of the main study and the
 * Quad Itanium2 server of Section 6.3's validation experiment.
 */

#ifndef ODBSIM_CORE_MACHINE_HH
#define ODBSIM_CORE_MACHINE_HH

#include <cstdint>
#include <string>

#include "os/system.hh"

namespace odbsim::core
{

/** Which physical machine to model. */
enum class MachineKind
{
    /** 4-way Intel Xeon MP, 1.6 GHz, 1 MB L3, 26 disks (Section 3.3). */
    XeonQuadMp,
    /** 4-way Itanium2, 1.5 GHz, 3 MB L3, +50% bus BW, 34 disks
     *  (Section 6.3). */
    Itanium2Quad,
    /**
     * A hypothetical 4-core chip multiprocessor with a 2 MB shared
     * on-die L3 — the design direction the paper's introduction and
     * conclusions motivate (Piranha/Power4-style). Not a measured
     * machine; used for the CMP exploration benches.
     */
    CmpQuad,
    /**
     * The study's Xeon MP with Hyper-Threading *enabled* (the paper
     * ran with it disabled, Section 3.3): two hardware threads per
     * core sharing the cache hierarchy and issue bandwidth.
     */
    XeonQuadMpHt,
};

constexpr const char *
toString(MachineKind k)
{
    switch (k) {
      case MachineKind::XeonQuadMp: return "xeon-quad-mp";
      case MachineKind::Itanium2Quad: return "itanium2-quad";
      case MachineKind::CmpQuad: return "cmp-quad";
      case MachineKind::XeonQuadMpHt: return "xeon-quad-mp-ht";
    }
    return "?";
}

/** A fully-resolved machine description. */
struct MachinePreset
{
    std::string name;
    os::SystemConfig sys;
    /**
     * Buffer-cache size expressed in warehouse-equivalents of
     * read-hot blocks (passed to DatabaseConfig); reflects each
     * machine's memory capacity.
     */
    double cacheWarehouseEquivalents = 28.7;
};

/** Most processors a preset can enable. */
constexpr unsigned maxProcessors = 8;

/**
 * Build a machine preset.
 *
 * @param kind Which machine.
 * @param processors CPUs enabled, 1..maxProcessors (1, 2, 4 in the
 *        study).
 * @param sample_period CPU-model trace sampling period.
 * @param seed Run seed.
 */
MachinePreset makeMachine(MachineKind kind, unsigned processors,
                          std::uint32_t sample_period = 16,
                          std::uint64_t seed = 0x0dbULL);

} // namespace odbsim::core

#endif // ODBSIM_CORE_MACHINE_HH

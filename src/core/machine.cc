#include "core/machine.hh"

#include "sim/logging.hh"

namespace odbsim::core
{

MachinePreset
makeMachine(MachineKind kind, unsigned processors,
            std::uint32_t sample_period, std::uint64_t seed)
{
    odbsim_assert(processors >= 1 && processors <= maxProcessors,
                  "unsupported processor count ", processors);

    MachinePreset preset;
    preset.name = toString(kind);
    os::SystemConfig &sys = preset.sys;
    sys.numCpus = processors;
    sys.seed = seed;
    sys.core.samplePeriod = sample_period;

    switch (kind) {
      case MachineKind::XeonQuadMpHt:
        // Same machine as XeonQuadMp, with HT enabled: each physical
        // processor exposes two logical CPUs sharing its caches.
        sys.threadsPerCore = 2;
        sys.numCpus = processors * 2;
        [[fallthrough]];
      case MachineKind::XeonQuadMp:
        // 1.6 GHz NetBurst Xeon MP: trace cache, 256 KB L2, 1 MB L3;
        // ServerWorks GC-HE chipset; 26 Ultra320 drives (24 data + 2
        // dedicated redo-log drives).
        sys.core.freqHz = 1.6e9;
        sys.hierarchy.l2 = {256 * KiB, 8, 64};
        sys.hierarchy.l3 = {1 * MiB, 8, 64};
        sys.bus.cpuFreqHz = 1.6e9;
        sys.bus.baseTransactionCycles = 102.0;
        sys.bus.lineOccupancyCycles = 40.0;
        sys.bus.dmaOccupancyCyclesPerKb = 160.0;
        sys.disks.dataDisks = 24;
        sys.disks.logDisks = 2;
        // 4 GB machine, ~2.8 GB database buffer cache, ~100 MB
        // warehouses: the cache covers ~28.7 warehouse-equivalents.
        preset.cacheWarehouseEquivalents = 28.7;
        break;

      case MachineKind::Itanium2Quad:
        // 1.5 GHz Itanium2: 3 MB on-die L3, ~50% more bus bandwidth,
        // 16 GB of memory, 34 drives (Section 6.3 / [22]).
        sys.core.freqHz = 1.5e9;
        sys.hierarchy.l2 = {256 * KiB, 8, 64};
        sys.hierarchy.l3 = {3 * MiB, 12, 64};
        sys.bus.cpuFreqHz = 1.5e9;
        sys.bus.baseTransactionCycles = 96.0;
        sys.bus.lineOccupancyCycles = 27.0;   // +50% bandwidth.
        sys.bus.dmaOccupancyCyclesPerKb = 107.0;
        sys.disks.dataDisks = 32;
        sys.disks.logDisks = 2;
        // 16 GB machine: a far larger buffer cache (~12 GB).
        preset.cacheWarehouseEquivalents = 120.0;
        break;

      case MachineKind::CmpQuad:
        // Hypothetical CMP: same cores and platform as the Xeon MP,
        // but the four cores share one 2 MB on-die L3; L2 misses that
        // hit it never cross the front-side bus.
        sys.core.freqHz = 1.6e9;
        sys.hierarchy.l2 = {256 * KiB, 8, 64};
        sys.hierarchy.l3 = {2 * MiB, 16, 64};
        sys.hierarchy.sharedL3 = true;
        sys.bus.cpuFreqHz = 1.6e9;
        sys.bus.baseTransactionCycles = 102.0;
        sys.bus.lineOccupancyCycles = 40.0;
        sys.bus.dmaOccupancyCyclesPerKb = 160.0;
        sys.disks.dataDisks = 24;
        sys.disks.logDisks = 2;
        preset.cacheWarehouseEquivalents = 28.7;
        break;
    }
    return preset;
}

} // namespace odbsim::core

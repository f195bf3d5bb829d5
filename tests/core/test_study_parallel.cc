/**
 * @file
 * Determinism contract of the parallel scaling-study executor: for the
 * same StudyConfig, jobs = 3, 4 and 0 (one worker per hardware thread)
 * must produce StudyResults bit-identical to jobs = 1 — every grid
 * point is an independent simulation whose RNG streams derive from the
 * per-run seed, and results are collected by grid index, not
 * completion order.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/scaling_study.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::core;

StudyConfig
smallGrid(unsigned jobs)
{
    StudyConfig cfg;
    cfg.warehouses = {10, 25, 50};
    cfg.processors = {1, 2};
    cfg.knobs.warmup = ticksFromSeconds(0.05);
    cfg.knobs.measure = ticksFromSeconds(0.2);
    cfg.jobs = jobs;
    return cfg;
}

void
expectBitIdentical(const perfmon::EventReading &a,
                   const perfmon::EventReading &b, const char *what)
{
    EXPECT_EQ(a.user, b.user) << what;
    EXPECT_EQ(a.os, b.os) << what;
}

void
expectBitIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.warehouses, b.warehouses);
    EXPECT_EQ(a.processors, b.processors);
    EXPECT_EQ(a.clients, b.clients);

    EXPECT_EQ(a.measureSeconds, b.measureSeconds);
    EXPECT_EQ(a.txnsCommitted, b.txnsCommitted);
    EXPECT_EQ(a.tps, b.tps);
    EXPECT_EQ(a.ironLawTps, b.ironLawTps);

    EXPECT_EQ(a.cpuUtil, b.cpuUtil);
    EXPECT_EQ(a.osCycleShare, b.osCycleShare);
    EXPECT_EQ(a.osInstrShare, b.osInstrShare);

    EXPECT_EQ(a.ipx, b.ipx);
    EXPECT_EQ(a.ipxUser, b.ipxUser);
    EXPECT_EQ(a.ipxOs, b.ipxOs);
    EXPECT_EQ(a.cpi, b.cpi);
    EXPECT_EQ(a.cpiUser, b.cpiUser);
    EXPECT_EQ(a.cpiOs, b.cpiOs);
    EXPECT_EQ(a.mpi, b.mpi);
    EXPECT_EQ(a.mpiUser, b.mpiUser);
    EXPECT_EQ(a.mpiOs, b.mpiOs);

    EXPECT_EQ(a.diskReadKbPerTxn, b.diskReadKbPerTxn);
    EXPECT_EQ(a.diskWriteKbPerTxn, b.diskWriteKbPerTxn);
    EXPECT_EQ(a.logKbPerTxn, b.logKbPerTxn);
    EXPECT_EQ(a.diskReadsPerTxn, b.diskReadsPerTxn);
    EXPECT_EQ(a.ctxPerTxn, b.ctxPerTxn);
    EXPECT_EQ(a.avgLatencyMs, b.avgLatencyMs);
    EXPECT_EQ(a.p95LatencyMs, b.p95LatencyMs);
    EXPECT_EQ(a.bufferHitRatio, b.bufferHitRatio);
    EXPECT_EQ(a.avgDiskUtil, b.avgDiskUtil);
    EXPECT_EQ(a.diskReadLatencyMs, b.diskReadLatencyMs);

    EXPECT_EQ(a.busUtil, b.busUtil);
    EXPECT_EQ(a.ioqCycles, b.ioqCycles);
    EXPECT_EQ(a.coherenceShareOfL3, b.coherenceShareOfL3);

    EXPECT_EQ(a.breakdown.inst, b.breakdown.inst);
    EXPECT_EQ(a.breakdown.branch, b.breakdown.branch);
    EXPECT_EQ(a.breakdown.tlb, b.breakdown.tlb);
    EXPECT_EQ(a.breakdown.tc, b.breakdown.tc);
    EXPECT_EQ(a.breakdown.l2, b.breakdown.l2);
    EXPECT_EQ(a.breakdown.l3, b.breakdown.l3);
    EXPECT_EQ(a.breakdown.other, b.breakdown.other);

    expectBitIdentical(a.counters.instructions, b.counters.instructions,
                       "instructions");
    expectBitIdentical(a.counters.cycles, b.counters.cycles, "cycles");
    expectBitIdentical(a.counters.branchMispredicts,
                       b.counters.branchMispredicts, "branchMispredicts");
    expectBitIdentical(a.counters.tlbMisses, b.counters.tlbMisses,
                       "tlbMisses");
    expectBitIdentical(a.counters.tcMisses, b.counters.tcMisses,
                       "tcMisses");
    expectBitIdentical(a.counters.l2Misses, b.counters.l2Misses,
                       "l2Misses");
    expectBitIdentical(a.counters.l3Misses, b.counters.l3Misses,
                       "l3Misses");
    expectBitIdentical(a.counters.coherenceMisses,
                       b.counters.coherenceMisses, "coherenceMisses");
    EXPECT_EQ(a.counters.busUtilization, b.counters.busUtilization);
    EXPECT_EQ(a.counters.ioqCycles, b.counters.ioqCycles);
}

/** A study and the number of onPoint calls it made. */
struct Measured
{
    StudyResult study;
    unsigned points = 0;
};

Measured
measure(unsigned jobs)
{
    Measured m;
    StudyConfig cfg = smallGrid(jobs);
    cfg.onPoint = [&](const RunResult &) { ++m.points; }; // serialized
    m.study = ScalingStudy::run(cfg);
    return m;
}

/** The jobs = 1 study every other job count is compared against. */
const Measured &
serialStudy()
{
    static const Measured serial = measure(1);
    return serial;
}

class StudyParallel : public testing::TestWithParam<unsigned>
{
};

TEST_P(StudyParallel, SerialAndParallelResultsAreBitIdentical)
{
    const Measured &serial = serialStudy();
    const Measured parallel = measure(GetParam());

    const StudyConfig cfg = smallGrid(1);
    const unsigned total = static_cast<unsigned>(cfg.warehouses.size() *
                                                 cfg.processors.size());
    EXPECT_EQ(serial.points, total);
    EXPECT_EQ(parallel.points, total);

    ASSERT_EQ(serial.study.series.size(), parallel.study.series.size());
    for (std::size_t si = 0; si < serial.study.series.size(); ++si) {
        const auto &s = serial.study.series[si];
        const auto &p = parallel.study.series[si];
        EXPECT_EQ(s.processors, p.processors);
        ASSERT_EQ(s.points.size(), p.points.size());
        for (std::size_t i = 0; i < s.points.size(); ++i) {
            SCOPED_TRACE("series " + std::to_string(s.processors) +
                         "P point " + std::to_string(i));
            expectBitIdentical(s.points[i], p.points[i]);
        }
    }
}

// 3 is an odd worker count over the 6-point grid, 4 the usual host,
// and 0 one worker per hardware thread.
INSTANTIATE_TEST_SUITE_P(Jobs, StudyParallel, testing::Values(3u, 4u, 0u),
                         [](const testing::TestParamInfo<unsigned> &info) {
                             return "jobs" + std::to_string(info.param);
                         });

} // namespace

/**
 * @file
 * Tests for the study CSV: the exact text saveStudyCsv writes, so
 * every field, its column and its precision stay pinned.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/study_io.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::core;

/** Two series of two points; every column holds a value no other
 *  column holds, and some need all 12 significant digits or an
 *  exponent. */
StudyResult
sampleStudy()
{
    StudyResult study;
    for (unsigned p : {1u, 4u}) {
        StudySeries s;
        s.processors = p;
        for (unsigned w : {10u, 800u}) {
            RunResult r;
            r.processors = p;
            r.warehouses = w;
            r.clients = w / 10 + p;
            r.measureSeconds = 1.5;
            r.txnsCommitted = 1000 + w;
            r.tps = 300.5 + w;
            r.ironLawTps = 301.25 + w;
            r.cpuUtil = 0.93;
            r.osCycleShare = 0.11;
            r.osInstrShare = 0.09;
            r.ipx = 1234567.891234567;
            r.ipxUser = 1.0e6;
            r.ipxOs = 234567.891234567;
            r.cpi = 13.0 / 3.0;
            r.cpiUser = 4.0;
            r.cpiOs = 6.5;
            r.mpi = 0.0105;
            r.mpiUser = 0.0100;
            r.mpiOs = 0.0150;
            r.diskReadKbPerTxn = 12.25;
            r.diskWriteKbPerTxn = 3.5;
            r.logKbPerTxn = 5.75;
            r.diskReadsPerTxn = 1.625;
            r.ctxPerTxn = 4.5;
            r.bufferHitRatio = 0.97;
            r.avgDiskUtil = 0.4;
            r.diskReadLatencyMs = 4.2;
            r.busUtil = 0.41;
            r.ioqCycles = 139.5;
            r.coherenceShareOfL3 = 1.25e-7;
            r.breakdown.inst = 0.5;
            r.breakdown.branch = 0.08;
            r.breakdown.tlb = 0.07;
            r.breakdown.tc = 0.16;
            r.breakdown.l2 = 0.1;
            r.breakdown.l3 = 3.1;
            r.breakdown.other = 0.24;
            // Host-side timing stays out of the file.
            r.wallSeconds = 9.75;
            r.eventsFired = 123456789;
            s.points.push_back(r);
        }
        study.series.push_back(std::move(s));
    }
    return study;
}

const char *const kSampleCsv =
    "processors,warehouses,clients,measureSeconds,txns,tps,ironLawTps,"
    "cpuUtil,osCycleShare,osInstrShare,ipx,ipxUser,ipxOs,cpi,cpiUser,"
    "cpiOs,mpi,mpiUser,mpiOs,rdKb,wrKb,logKb,readsPerTxn,ctxPerTxn,"
    "bufferHit,diskUtil,diskLatMs,busUtil,ioqCycles,cohShare,bInst,"
    "bBranch,bTlb,bTc,bL2,bL3,bOther\n"
    "1,10,2,1.5,1010,310.5,311.25,0.93,0.11,0.09,1234567.89123,1000000,"
    "234567.891235,4.33333333333,4,6.5,0.0105,0.01,0.015,12.25,3.5,5.75,"
    "1.625,4.5,0.97,0.4,4.2,0.41,139.5,1.25e-07,0.5,0.08,0.07,0.16,0.1,"
    "3.1,0.24\n"
    "1,800,81,1.5,1800,1100.5,1101.25,0.93,0.11,0.09,1234567.89123,"
    "1000000,234567.891235,4.33333333333,4,6.5,0.0105,0.01,0.015,12.25,"
    "3.5,5.75,1.625,4.5,0.97,0.4,4.2,0.41,139.5,1.25e-07,0.5,0.08,0.07,"
    "0.16,0.1,3.1,0.24\n"
    "4,10,5,1.5,1010,310.5,311.25,0.93,0.11,0.09,1234567.89123,1000000,"
    "234567.891235,4.33333333333,4,6.5,0.0105,0.01,0.015,12.25,3.5,5.75,"
    "1.625,4.5,0.97,0.4,4.2,0.41,139.5,1.25e-07,0.5,0.08,0.07,0.16,0.1,"
    "3.1,0.24\n"
    "4,800,84,1.5,1800,1100.5,1101.25,0.93,0.11,0.09,1234567.89123,"
    "1000000,234567.891235,4.33333333333,4,6.5,0.0105,0.01,0.015,12.25,"
    "3.5,5.75,1.625,4.5,0.97,0.4,4.2,0.41,139.5,1.25e-07,0.5,0.08,0.07,"
    "0.16,0.1,3.1,0.24\n";

TEST(StudyIo, RoundTripPreservesEverything)
{
    std::ostringstream buf;
    saveStudyCsv(sampleStudy(), buf);
    EXPECT_EQ(buf.str(), kSampleCsv);
}

} // namespace

/**
 * @file
 * Tests for study CSV persistence: round-trip fidelity, corruption
 * detection.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "core/study_io.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::core;

StudyResult
sampleStudy()
{
    StudyResult study;
    for (unsigned p : {1u, 4u}) {
        StudySeries s;
        s.processors = p;
        for (unsigned w : {10u, 100u, 800u}) {
            RunResult r;
            r.processors = p;
            r.warehouses = w;
            r.clients = w / 10 + p;
            r.measureSeconds = 1.5;
            r.txnsCommitted = 1000 + w;
            r.tps = 300.5 + w;
            r.ironLawTps = r.tps;
            r.cpuUtil = 0.93;
            r.osCycleShare = 0.11;
            r.osInstrShare = 0.09;
            r.ipx = 1.1e6;
            r.ipxUser = 1.0e6;
            r.ipxOs = 0.1e6;
            r.cpi = 4.25;
            r.cpiUser = 4.0;
            r.cpiOs = 6.5;
            r.mpi = 0.0105;
            r.mpiUser = 0.0100;
            r.mpiOs = 0.0150;
            r.diskReadKbPerTxn = 12.25;
            r.diskWriteKbPerTxn = 3.5;
            r.logKbPerTxn = 5.75;
            r.diskReadsPerTxn = 1.5;
            r.ctxPerTxn = 4.5;
            r.bufferHitRatio = 0.97;
            r.avgDiskUtil = 0.4;
            r.diskReadLatencyMs = 4.2;
            r.busUtil = 0.41;
            r.ioqCycles = 139.5;
            r.coherenceShareOfL3 = 0.02;
            r.breakdown.inst = 0.5;
            r.breakdown.branch = 0.08;
            r.breakdown.tlb = 0.07;
            r.breakdown.tc = 0.16;
            r.breakdown.l2 = 0.1;
            r.breakdown.l3 = 3.1;
            r.breakdown.other = 0.24;
            s.points.push_back(r);
        }
        study.series.push_back(std::move(s));
    }
    return study;
}

TEST(StudyIo, RoundTripPreservesEverything)
{
    const StudyResult in = sampleStudy();
    std::stringstream buf;
    saveStudyCsv(in, buf);
    StudyResult out;
    ASSERT_TRUE(loadStudyCsv(buf, out));

    ASSERT_EQ(out.series.size(), in.series.size());
    for (std::size_t s = 0; s < in.series.size(); ++s) {
        ASSERT_EQ(out.series[s].processors, in.series[s].processors);
        ASSERT_EQ(out.series[s].points.size(),
                  in.series[s].points.size());
        for (std::size_t i = 0; i < in.series[s].points.size(); ++i) {
            const RunResult &a = in.series[s].points[i];
            const RunResult &b = out.series[s].points[i];
            EXPECT_EQ(b.warehouses, a.warehouses);
            EXPECT_EQ(b.clients, a.clients);
            EXPECT_EQ(b.txnsCommitted, a.txnsCommitted);
            EXPECT_DOUBLE_EQ(b.tps, a.tps);
            EXPECT_DOUBLE_EQ(b.cpi, a.cpi);
            EXPECT_DOUBLE_EQ(b.mpi, a.mpi);
            EXPECT_DOUBLE_EQ(b.ipxOs, a.ipxOs);
            EXPECT_DOUBLE_EQ(b.logKbPerTxn, a.logKbPerTxn);
            EXPECT_DOUBLE_EQ(b.ioqCycles, a.ioqCycles);
            EXPECT_DOUBLE_EQ(b.breakdown.l3, a.breakdown.l3);
            EXPECT_DOUBLE_EQ(b.breakdown.other, a.breakdown.other);
        }
    }
}

TEST(StudyIo, RejectsWrongHeader)
{
    std::stringstream buf;
    buf << "not,a,study\n1,2,3\n";
    StudyResult out;
    EXPECT_FALSE(loadStudyCsv(buf, out));
}

TEST(StudyIo, RejectsMalformedRow)
{
    const StudyResult in = sampleStudy();
    std::stringstream buf;
    saveStudyCsv(in, buf);
    std::string text = buf.str();
    text += "4,garbage\n";
    std::stringstream corrupted(text);
    StudyResult out;
    EXPECT_FALSE(loadStudyCsv(corrupted, out));
}

TEST(StudyIo, RejectsEmptyStream)
{
    std::stringstream buf;
    StudyResult out;
    EXPECT_FALSE(loadStudyCsv(buf, out));
}

TEST(StudyIo, FileRoundTrip)
{
    const std::string path = "/tmp/odbsim_study_io_test.csv";
    const StudyResult in = sampleStudy();
    ASSERT_TRUE(saveStudyCsv(in, path));
    StudyResult out;
    ASSERT_TRUE(loadStudyCsv(path, out));
    EXPECT_EQ(out.series.size(), 2u);
    std::remove(path.c_str());
}

TEST(StudyIo, MissingFileFailsCleanly)
{
    StudyResult out;
    EXPECT_FALSE(loadStudyCsv("/nonexistent/odbsim.csv", out));
}

TEST(StudyIo, ProfileWritesOneRowPerPointInGridOrder)
{
    StudyResult study = sampleStudy();
    double wall = 0.25;
    std::uint64_t events = 1000;
    for (auto &s : study.series) {
        for (auto &p : s.points) {
            p.wallSeconds = wall += 0.5;
            p.eventsFired = events *= 3;
        }
    }
    std::stringstream buf;
    saveStudyProfileCsv(study, buf);
    std::string line;
    ASSERT_TRUE(std::getline(buf, line));
    EXPECT_EQ(line,
              "processors,warehouses,wallSeconds,eventsFired,eventsPerSec");
    std::size_t rows = 0;
    for (const auto &s : study.series) {
        for (const auto &p : s.points) {
            SCOPED_TRACE("row " + std::to_string(rows));
            ASSERT_TRUE(std::getline(buf, line));
            std::istringstream row(line);
            unsigned processors = 0, warehouses = 0;
            double wall_seconds = 0.0;
            std::uint64_t fired = 0;
            char c = 0;
            row >> processors >> c >> warehouses >> c >> wall_seconds >>
                c >> fired;
            ASSERT_FALSE(row.fail()) << line;
            EXPECT_EQ(processors, p.processors);
            EXPECT_EQ(warehouses, p.warehouses);
            EXPECT_NEAR(wall_seconds, p.wallSeconds, 1e-6);
            EXPECT_EQ(fired, p.eventsFired);
            ++rows;
        }
    }
    EXPECT_EQ(rows, 6u);
    EXPECT_FALSE(std::getline(buf, line));
}

} // namespace

#include "core/study_io.hh"

#include <fstream>
#include <sstream>

namespace odbsim::core
{

namespace
{

constexpr const char *profileCsvHeader =
    "processors,warehouses,wallSeconds,eventsFired,eventsPerSec";

constexpr const char *csvHeader =
    "processors,warehouses,clients,measureSeconds,txns,tps,ironLawTps,"
    "cpuUtil,osCycleShare,osInstrShare,ipx,ipxUser,ipxOs,cpi,cpiUser,"
    "cpiOs,mpi,mpiUser,mpiOs,rdKb,wrKb,logKb,readsPerTxn,ctxPerTxn,"
    "bufferHit,diskUtil,diskLatMs,busUtil,ioqCycles,cohShare,bInst,"
    "bBranch,bTlb,bTc,bL2,bL3,bOther";

} // namespace

void
saveStudyCsv(const StudyResult &study, std::ostream &out)
{
    out << csvHeader << "\n";
    out.precision(12);
    for (const auto &series : study.series) {
        for (const auto &r : series.points) {
            out << r.processors << ',' << r.warehouses << ','
                << r.clients << ',' << r.measureSeconds << ','
                << r.txnsCommitted << ',' << r.tps << ','
                << r.ironLawTps << ',' << r.cpuUtil << ','
                << r.osCycleShare << ',' << r.osInstrShare << ','
                << r.ipx << ',' << r.ipxUser << ',' << r.ipxOs << ','
                << r.cpi << ',' << r.cpiUser << ',' << r.cpiOs << ','
                << r.mpi << ',' << r.mpiUser << ',' << r.mpiOs << ','
                << r.diskReadKbPerTxn << ',' << r.diskWriteKbPerTxn
                << ',' << r.logKbPerTxn << ',' << r.diskReadsPerTxn
                << ',' << r.ctxPerTxn << ',' << r.bufferHitRatio << ','
                << r.avgDiskUtil << ',' << r.diskReadLatencyMs << ','
                << r.busUtil << ',' << r.ioqCycles << ','
                << r.coherenceShareOfL3 << ',' << r.breakdown.inst
                << ',' << r.breakdown.branch << ',' << r.breakdown.tlb
                << ',' << r.breakdown.tc << ',' << r.breakdown.l2 << ','
                << r.breakdown.l3 << ',' << r.breakdown.other << "\n";
        }
    }
}

bool
saveStudyCsv(const StudyResult &study, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    saveStudyCsv(study, out);
    return static_cast<bool>(out);
}

void
saveStudyProfileCsv(const StudyResult &study, std::ostream &out)
{
    out << profileCsvHeader << "\n";
    out.precision(6);
    for (const auto &series : study.series) {
        for (const auto &r : series.points) {
            out << r.processors << ',' << r.warehouses << ','
                << r.wallSeconds << ',' << r.eventsFired << ','
                << r.eventsPerSec() << "\n";
        }
    }
}

bool
saveStudyProfileCsv(const StudyResult &study, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    saveStudyProfileCsv(study, out);
    return static_cast<bool>(out);
}

bool
loadStudyCsv(std::istream &in, StudyResult &out)
{
    std::string line;
    if (!std::getline(in, line) || line != csvHeader)
        return false;

    out.series.clear();
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream ss(line);
        RunResult r;
        char c;
        double txns;
        ss >> r.processors >> c >> r.warehouses >> c >> r.clients >>
            c >> r.measureSeconds >> c >> txns >> c >> r.tps >> c >>
            r.ironLawTps >> c >> r.cpuUtil >> c >> r.osCycleShare >>
            c >> r.osInstrShare >> c >> r.ipx >> c >> r.ipxUser >> c >>
            r.ipxOs >> c >> r.cpi >> c >> r.cpiUser >> c >> r.cpiOs >>
            c >> r.mpi >> c >> r.mpiUser >> c >> r.mpiOs >> c >>
            r.diskReadKbPerTxn >> c >> r.diskWriteKbPerTxn >> c >>
            r.logKbPerTxn >> c >> r.diskReadsPerTxn >> c >>
            r.ctxPerTxn >> c >> r.bufferHitRatio >> c >>
            r.avgDiskUtil >> c >> r.diskReadLatencyMs >> c >>
            r.busUtil >> c >> r.ioqCycles >> c >>
            r.coherenceShareOfL3 >> c >> r.breakdown.inst >> c >>
            r.breakdown.branch >> c >> r.breakdown.tlb >> c >>
            r.breakdown.tc >> c >> r.breakdown.l2 >> c >>
            r.breakdown.l3 >> c >> r.breakdown.other;
        if (ss.fail())
            return false;
        r.txnsCommitted = static_cast<std::uint64_t>(txns);
        if (out.series.empty() ||
            out.series.back().processors != r.processors) {
            StudySeries s;
            s.processors = r.processors;
            out.series.push_back(std::move(s));
        }
        out.series.back().points.push_back(std::move(r));
    }
    return !out.series.empty();
}

bool
loadStudyCsv(const std::string &path, StudyResult &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    return loadStudyCsv(in, out);
}

} // namespace odbsim::core

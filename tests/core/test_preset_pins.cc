/**
 * @file
 * Pinned results of the machines the benchmark does not run. perfbench
 * pins only the Xeon Quad MP on one socket; the grid points below take
 * the other paths through the memory model: the Itanium2's 12-way L3,
 * the CMP's shared 16-way L3, SMT siblings sharing one cache
 * hierarchy, and a two-socket Xeon whose misses resolve against
 * per-socket directories and cross the interconnect. Each point's
 * study-CSV row, the events it fired and its remote-miss and link
 * figures must match the text below, recorded from an earlier build
 * of the simulator. A change that means to alter the simulated model
 * re-records it; any other change must leave it as it is.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiment.hh"
#include "core/study_io.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::core;

/** W=10, seed 42, 20 ms of warm-up and 40 ms measured (simulated). */
RunKnobs
pinKnobs()
{
    RunKnobs k;
    k.warmup = ticksFromMs(20.0);
    k.warmupPerWarehouseMs = 0.0;
    k.measure = ticksFromMs(40.0);
    k.seed = 42;
    return k;
}

/** The point's saveStudyCsv row, then eventsFired, remoteMissShare and
 *  linkUtil. */
std::string
pinText(const RunResult &r)
{
    StudyResult study;
    study.series.resize(1);
    study.series[0].processors = r.processors;
    study.series[0].points.push_back(r);
    std::ostringstream csv;
    saveStudyCsv(study, csv);
    const std::string text = csv.str();
    const std::size_t row = text.find('\n') + 1;
    std::ostringstream out;
    out.precision(12);
    out << text.substr(row, text.size() - row - 1) << ';' << r.eventsFired
        << ';' << r.remoteMissShare << ';' << r.linkUtil;
    return out.str();
}

struct Pin
{
    const char *label;
    MachineKind machine;
    unsigned processors;
    unsigned sockets;
    const char *expected;
};

TEST(PresetPins, ResultsMatchTheRecordedText)
{
    const Pin pins[] = {
        {"itanium2 P=4", MachineKind::Itanium2Quad, 4, 1,
         "4,10,10,0.04,45,1125,1130.3900358,0.496861998969"
         ",0.109973720352,0.0588506432778,898847.911111"
         ",845950.133333,52897.7777778,2.93408369898,2.77470475873"
         ",5.48289843969,0.00616097307378,0.00567325271287"
         ",0.0139606788775,8.53333333333,0,5.49223090278"
         ",1.06666666667,3.55555555556,0.980633802817,0.120647481173"
         ",3.8257178336,0.170604146614,103.236928412,0.232166934189"
         ",0.5,0.08,0.07,0.159999382914,0.110335017497,1.85591260478"
         ",0.157836693792;5853;0;0"},
        {"cmp P=4", MachineKind::CmpQuad, 4, 1,
         "4,10,10,0.04,44,1100,1097.54465125,0.520383735431"
         ",0.0999934023614,0.05843051037,910638.818182,857429.727273"
         ",53209.0909091,3.33223277285,3.18514088813,5.70252236901"
         ",0.00720932468286,0.00676991605037,0.0142901076371,10,0"
         ",5.51114169034,1.25,3.5,0.979739010989,0.162578597684"
         ",3.02311178635,0.250545234755,120.106112871"
         ",0.0781544256121,0.5,0.08,0.07,0.159999568734"
         ",0.0950829023422,2.29333025129,0.13382005049;6488;0;0"},
        {"xeon-ht P=2", MachineKind::XeonQuadMpHt, 2, 1,
         "4,10,10,0.04,40,1000,1009.89968471,0.870806171206"
         ",0.0855816153207,0.0490125141401,960877.05,913782.05,47095"
         ",5.74321949968,5.52237077337,10.0283368553"
         ",0.00975900090443,0.00928317644235,0.018991400361,7.8,0"
         ",5.77666015625,0.975,3.2,0.98286326312,0.110355104851"
         ",2.79552593651,0.279321988345,122.380875855,0.026660410357"
         ",0.5,0.08,0.07,0.159995495782,0.067598242668,3.12659725723"
         ",1.739028504;5600;0;0"},
        {"xeon P=4 sockets=2", MachineKind::XeonQuadMp, 4, 2,
         "4,10,10,0.04,38,950,955.037952173,0.812461612069"
         ",0.0880788112614,0.0471795830862,996807.184211"
         ",949778.236842,47028.9473684,5.46199168265,5.22753906161"
         ",10.1969051665,0.00953951053143,0.0090383425516"
         ",0.0196609031392,8.21052631579,0,5.63677014803"
         ",1.02631578947,3.10526315789,0.983600713012,0.110355104851"
         ",2.87572921695,0.151882178431,111.215988396"
         ",0.0784626284095,0.5,0.08,0.07,0.160005605265"
         ",0.0536888924277,2.94976917779"
         ",1.64852800717;5603;0.524087849805;0.131209454631"},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.label);
        OltpConfiguration cfg;
        cfg.warehouses = 10;
        cfg.processors = pin.processors;
        cfg.machine = pin.machine;
        cfg.topology.sockets = pin.sockets;
        EXPECT_EQ(pinText(ExperimentRunner::run(cfg, pinKnobs())),
                  pin.expected);
    }
}

} // namespace

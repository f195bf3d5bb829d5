/**
 * @file
 * odbsim_paper: print the paper's tables and figures, and the
 * simulator's own ablations and sweeps, from one process.
 *
 *   odbsim_paper [artifact ...] [--jobs N | -j N] [--csv-dir DIR]
 *
 * With no artifact named, every artifact prints, in paper order; named
 * artifacts also print in paper order. The simulations they need run
 * once each, on N host threads (0 = one per hardware thread; default
 * 1), and the output is the same at every N. Tables go to stdout,
 * progress to stderr; the study, islands and faults CSVs go to DIR
 * (default: the directory holding this binary).
 *
 * Exit codes: 0 on success; 2 for a bad command line; 3 when a sweep's
 * self-check fails (after everything has printed); 1 when a CSV cannot
 * be written.
 */

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/study_io.hh"
#include "paper.hh"

namespace
{

using namespace odbsim;

constexpr const char *kUsage =
    " (usage: odbsim_paper [artifact ...] [--jobs N] [--csv-dir DIR])";

/** Stop on a bad command line: one line to stderr, exit code 2. */
[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "odbsim_paper: %s\n", msg.c_str());
    std::exit(2);
}

unsigned
parseJobs(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || v < 0 ||
        v > UINT_MAX)
        usageError(std::string("invalid ") + flag + " '" + text +
                   "': expected a non-negative integer (0 = all cores)");
    return static_cast<unsigned>(v);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<paper::Artifact> &all = paper::artifacts();

    unsigned jobs = 1;
    std::string csv_dir;
    std::vector<bool> selected(all.size(), false);
    bool any = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs" || arg == "-j" || arg == "--csv-dir") {
            if (i + 1 >= argc)
                usageError("missing value for " + arg + kUsage);
            const char *value = argv[++i];
            if (arg == "--csv-dir")
                csv_dir = value;
            else
                jobs = parseJobs(arg.c_str(), value);
            continue;
        }
        if (!arg.empty() && arg[0] == '-')
            usageError("unknown option '" + arg + "'" + kUsage);
        std::size_t a = 0;
        while (a < all.size() && arg != all[a].name)
            ++a;
        if (a == all.size()) {
            std::string names;
            for (const paper::Artifact &art : all)
                names += std::string(" ") + art.name;
            usageError("unknown artifact '" + arg +
                       "'; valid names:" + names);
        }
        selected[a] = any = true;
    }
    if (!any)
        selected.assign(all.size(), true);
    // Default: the directory holding this binary, so CSVs land in the
    // build tree wherever odbsim_paper is invoked from.
    if (csv_dir.empty()) {
        const std::string self = argv[0];
        const std::size_t slash = self.rfind('/');
        csv_dir = slash != std::string::npos && slash > 0
                      ? self.substr(0, slash)
                      : ".";
    }

    paper::Plan plan;
    std::vector<paper::Printer> printers;
    for (std::size_t a = 0; a < all.size(); ++a) {
        if (selected[a])
            printers.push_back(all[a].plan(plan));
    }

    double sim_seconds = 0.0;
    paper::Report report(paper::runPlan(plan, jobs, sim_seconds),
                         csv_dir);
    for (const paper::StudyHandle &h : plan.studies()) {
        const std::string name = std::string("odbsim_study_") +
                                 core::toString(h.cfg.machine) + ".csv";
        std::ostringstream csv;
        core::saveStudyCsv(report.study(h), csv);
        report.writeCsv(name, [&](std::FILE *f) {
            std::fputs(csv.str().c_str(), f);
        });
    }
    for (const paper::Printer &print : printers)
        print(report);
    std::fflush(stdout);

    for (const std::string &what : report.failures())
        std::fprintf(stderr, "[paper] FAIL %s\n", what.c_str());
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    std::fprintf(stderr,
                 "[paper] %zu simulations: %.1f s wall, %.1f s summed "
                 "over simulations (jobs %u)\n",
                 plan.simulations().size(), wall, sim_seconds, jobs);
    return report.failures().empty() ? 0 : 3;
}

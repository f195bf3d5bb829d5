#include "bench_common.hh"

#include "core/study_io.hh"

#include <cerrno>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace odbsim::bench
{

std::vector<unsigned>
figureWarehouseGrid()
{
    return {10, 25, 35, 50, 75, 100, 150, 200, 300, 400, 600, 800};
}

namespace
{

/** Worker count for study measurement (--jobs / ODBSIM_JOBS). */
unsigned g_jobs = 1;

/** Per-point wall-time reporting (--profile / ODBSIM_PROFILE). */
bool g_profile = false;

/** CSV directory: --csv-dir > ODBSIM_CSV_DIR > dir(argv[0]) > ".". */
std::string g_csv_dir;

/** Stop the bench: @p value is not a valid setting of knob @p name. */
[[noreturn]] void
badValue(const char *name, const char *value, const std::string &expected)
{
    std::fprintf(stderr, "[bench] invalid %s '%s': expected %s\n", name,
                 value, expected.c_str());
    std::exit(2);
}

/** Parse @p text as a whole decimal number in [@p lo, @p hi]. */
bool
parseWhole(const char *text, unsigned lo, unsigned hi, unsigned &out)
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || v < lo ||
        v > hi)
        return false;
    out = static_cast<unsigned>(v);
    return true;
}

unsigned
parseJobs(const char *name, const char *text)
{
    unsigned v = 0;
    if (!parseWhole(text, 0, UINT_MAX, v))
        badValue(name, text, "a non-negative integer (0 = all cores)");
    return v;
}

std::string
cachePath(core::MachineKind machine)
{
    std::string path = csvDir();
    path += "/odbsim_study_";
    path += core::toString(machine);
    path += ".csv";
    return path;
}

/** `<cache>.csv` → `<cache>_profile.csv` (the wall-time sidecar). */
std::string
profilePath(const std::string &study_path)
{
    std::string path = study_path;
    const std::string suffix = ".csv";
    path.replace(path.size() - suffix.size(), suffix.size(),
                 "_profile.csv");
    return path;
}

} // namespace

void
parseArgs(int argc, char **argv)
{
    if (const char *env = std::getenv("ODBSIM_JOBS"); env && *env)
        g_jobs = parseJobs("ODBSIM_JOBS", env);
    if (const char *env = std::getenv("ODBSIM_PROFILE"))
        g_profile = *env && std::strcmp(env, "0") != 0;
    if (const char *env = std::getenv("ODBSIM_CSV_DIR"))
        g_csv_dir = env;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const bool is_jobs = std::strcmp(arg, "--jobs") == 0 ||
                             std::strcmp(arg, "-j") == 0;
        const bool takes_value =
            is_jobs || std::strcmp(arg, "--csv-dir") == 0;
        if (takes_value && i + 1 >= argc) {
            std::fprintf(stderr, "[bench] missing value for %s\n", arg);
            std::exit(2);
        }
        if (is_jobs)
            g_jobs = parseJobs(arg, argv[++i]);
        else if (std::strcmp(arg, "--profile") == 0)
            g_profile = true;
        else if (std::strcmp(arg, "--csv-dir") == 0)
            g_csv_dir = argv[++i];
    }
    // No explicit directory anywhere: default to the directory holding
    // the bench binary (the build tree), so caches land in one
    // predictable place no matter where the bench is invoked from.
    if (g_csv_dir.empty() && argc > 0 && argv[0]) {
        const std::string self = argv[0];
        const std::size_t slash = self.rfind('/');
        if (slash != std::string::npos && slash > 0)
            g_csv_dir = self.substr(0, slash);
    }
}

unsigned
studyJobs()
{
    return g_jobs;
}

bool
profileEnabled()
{
    return g_profile;
}

const std::string &
csvDir()
{
    static const std::string dot = ".";
    return g_csv_dir.empty() ? dot : g_csv_dir;
}

void
saveStudy(const core::StudyResult &study, const std::string &path)
{
    core::saveStudyCsv(study, path);
}

bool
loadStudy(const std::string &path, core::StudyResult &out)
{
    return core::loadStudyCsv(path, out);
}

core::StudyResult
sharedStudy(core::MachineKind machine)
{
    const std::string path = cachePath(machine);
    const bool no_cache = std::getenv("ODBSIM_NO_CACHE") != nullptr;
    core::StudyResult study;
    if (!no_cache && loadStudy(path, study)) {
        std::fprintf(stderr, "[bench] loaded cached study from %s\n",
                     path.c_str());
        if (g_profile)
            std::fprintf(stderr, "[bench] --profile: study came from "
                                 "the cache; no points were measured\n");
        return study;
    }

    std::fprintf(stderr,
                 "[bench] measuring full %s characterization study "
                 "(jobs=%u)...\n",
                 core::toString(machine), g_jobs);
    core::StudyConfig cfg;
    cfg.warehouses = figureWarehouseGrid();
    cfg.machine = machine;
    cfg.jobs = g_jobs;
    cfg.onPoint = [](const core::RunResult &r) {
        if (g_profile) {
            std::fprintf(stderr,
                         "[bench]   W=%u P=%u done (tps %.0f) "
                         "wall %.3fs  %" PRIu64 " events  %.2fM ev/s\n",
                         r.warehouses, r.processors, r.tps,
                         r.wallSeconds, r.eventsFired,
                         r.eventsPerSec() / 1e6);
        } else {
            std::fprintf(stderr, "[bench]   W=%u P=%u done (tps %.0f)\n",
                         r.warehouses, r.processors, r.tps);
        }
    };
    study = core::ScalingStudy::run(cfg);
    if (g_profile) {
        double wall = 0.0;
        std::uint64_t events = 0;
        for (const auto &s : study.series) {
            for (const auto &p : s.points) {
                wall += p.wallSeconds;
                events += p.eventsFired;
            }
        }
        std::fprintf(stderr,
                     "[bench] study total: %.3f CPU-seconds, %" PRIu64
                     " events (%.2fM ev/s)\n",
                     wall, events,
                     wall > 0.0 ? static_cast<double>(events) / wall / 1e6
                                : 0.0);
        // Wall time is host-dependent, so the profile is a sidecar —
        // never part of the golden study CSV.
        const std::string profile_path = profilePath(path);
        if (core::saveStudyProfileCsv(study, profile_path))
            std::fprintf(stderr, "[bench] wrote per-point profile to "
                                 "%s\n",
                         profile_path.c_str());
    }
    if (!no_cache)
        saveStudy(study, path);
    return study;
}

void
banner(const char *artifact, const char *caption)
{
    std::printf("\n================================================"
                "=============================\n");
    std::printf("%s — %s\n", artifact, caption);
    std::printf("Hankins et al., \"Scaling and Characterizing Database "
                "Workloads\", MICRO 2003\n");
    std::printf("=================================================="
                "===========================\n\n");
}

void
printMetricByW(const core::StudyResult &study, const char *metric,
               const std::function<double(const core::RunResult &)> &get,
               int decimals)
{
    std::printf("%-14s", "warehouses");
    for (const auto &s : study.series)
        std::printf("  %8uP", s.processors);
    std::printf("\n");
    const std::size_t rows = study.series.front().points.size();
    for (std::size_t i = 0; i < rows; ++i) {
        std::printf("%-14u",
                    study.series.front().points[i].warehouses);
        for (const auto &s : study.series)
            std::printf("  %9.*f", decimals, get(s.points[i]));
        std::printf("\n");
    }
    std::printf("(metric: %s)\n", metric);
}

void
paperNote(const char *note)
{
    std::printf("\npaper: %s\n", note);
}

} // namespace odbsim::bench

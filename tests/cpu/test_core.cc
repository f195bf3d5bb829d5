/**
 * @file
 * Tests for the CPU core timing model: the statistical Table 3
 * components, stream sampling, exact-reference set sampling, counter
 * attribution and determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "cpu/core.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::cpu;

constexpr std::uint32_t S = 16;

mem::HierarchyConfig
smallHier()
{
    mem::HierarchyConfig h;
    h.l2 = {16 * KiB, 4, 64};
    h.l3 = {64 * KiB, 8, 64};
    return h;
}

mem::BusConfig
quietBus()
{
    mem::BusConfig b;
    b.windowTicks = tickPerSec;
    return b;
}

CoreConfig
baseCfg()
{
    CoreConfig c;
    c.samplePeriod = S;
    return c;
}

struct Rig
{
    mem::MemorySystem ms;
    CpuCore core;

    explicit Rig(const CoreConfig &cfg = baseCfg())
        : ms(1, smallHier(), quietBus(), cfg.samplePeriod),
          core(0, cfg, ms, 1234)
    {}
};

WorkItem
pureCompute(std::uint64_t instr)
{
    WorkItem wi;
    wi.instructions = instr;
    wi.codeBase = 0x1000'0000;
    wi.codeBytes = 64; // One line: negligible code misses after warm.
    return wi;
}

TEST(CpuCore, BaseCpiFloor)
{
    // With no memory streams at all the cycle count reduces to the
    // statistical components: 0.5 + branch + TLB per instruction.
    CoreConfig cfg = baseCfg();
    cfg.codeL2RefsPerInstr = 0.0;
    cfg.dataL2RefsPerInstr = 0.0;
    Rig rig(cfg);
    const auto res = rig.core.execute(pureCompute(1000000), 0);
    const double expect =
        1e6 * (0.5 + 0.20 * 0.02 * 20.0 + 0.0035 * 20.0);
    EXPECT_NEAR(res.cycles, expect, 1.0);
}

TEST(CpuCore, CountersAccumulatePerMode)
{
    Rig rig;
    WorkItem wi = pureCompute(50000);
    wi.mode = mem::ExecMode::Os;
    rig.core.execute(wi, 0);
    const auto &os = rig.core.counters()[mem::ExecMode::Os];
    const auto &user = rig.core.counters()[mem::ExecMode::User];
    EXPECT_DOUBLE_EQ(os.instructions, 50000.0);
    EXPECT_DOUBLE_EQ(user.instructions, 0.0);
    EXPECT_GT(os.cycles, 0.0);
    EXPECT_NEAR(os.branchMispredicts, 50000 * 0.004, 1e-9);
    EXPECT_NEAR(os.tlbMisses, 50000 * 0.0035, 1e-9);
}

TEST(CpuCore, CyclesToTicksUsesClock)
{
    Rig rig;
    const auto res = rig.core.execute(pureCompute(16000), 0);
    // 1.6 GHz -> 625 ps per cycle.
    EXPECT_NEAR(static_cast<double>(res.ticks), res.cycles * 625.0, 1.0);
}

TEST(CpuCore, ExtraCyclesLandInOther)
{
    CoreConfig cfg = baseCfg();
    cfg.codeL2RefsPerInstr = 0.0;
    cfg.dataL2RefsPerInstr = 0.0;
    Rig rig(cfg);
    WorkItem wi = pureCompute(1000);
    wi.extraCycles = 777.0;
    const auto res = rig.core.execute(wi, 0);
    const auto &ctr = rig.core.counters()[mem::ExecMode::User];
    EXPECT_DOUBLE_EQ(ctr.otherCycles, 777.0);
    EXPECT_GT(res.cycles, 777.0);
}

TEST(CpuCore, ExactRefsTouchSampledLinesOnce)
{
    CoreConfig cfg = baseCfg();
    cfg.codeL2RefsPerInstr = 0.0;
    cfg.dataL2RefsPerInstr = 0.0;
    Rig rig(cfg);
    WorkItem wi = pureCompute(100);
    // A span covering exactly 2 sampled lines (2 * 16 * 64 bytes).
    wi.addRef(0, 2 * S * 64, false);
    rig.core.execute(wi, 0);
    const auto &mc = rig.ms.cpu(0).counters(mem::ExecMode::User);
    EXPECT_EQ(mc.dataReads, 2 * S);
}

TEST(CpuCore, ExactRefOutsideSampledGridIsSkipped)
{
    CoreConfig cfg = baseCfg();
    cfg.codeL2RefsPerInstr = 0.0;
    cfg.dataL2RefsPerInstr = 0.0;
    Rig rig(cfg);
    WorkItem wi = pureCompute(100);
    // 64 bytes at offset 64: contains no line whose index is a
    // multiple of 16 -> never sampled.
    wi.addRef(64, 64, false);
    rig.core.execute(wi, 0);
    EXPECT_EQ(rig.ms.cpu(0).counters(mem::ExecMode::User).dataReads, 0u);
}

TEST(CpuCore, ExactRefReuseHitsCache)
{
    CoreConfig cfg = baseCfg();
    cfg.codeL2RefsPerInstr = 0.0;
    cfg.dataL2RefsPerInstr = 0.0;
    Rig rig(cfg);
    WorkItem wi = pureCompute(100);
    wi.addRef(0, 64, false);
    const auto first = rig.core.execute(wi, 0);
    const auto second = rig.core.execute(wi, 0);
    // The second execution hits in L2: far fewer stall cycles.
    EXPECT_LT(second.cycles, first.cycles);
    const auto &mc = rig.ms.cpu(0).counters(mem::ExecMode::User);
    EXPECT_EQ(mc.dataReads, 2 * S);
    EXPECT_EQ(mc.l3Misses, S); // Only the first touch missed.
}

TEST(CpuCore, CodeStreamGeneratesFetches)
{
    CoreConfig cfg = baseCfg();
    cfg.dataL2RefsPerInstr = 0.0;
    cfg.codeL2RefsPerInstr = 0.008;
    Rig rig(cfg);
    WorkItem wi = pureCompute(1000000);
    wi.codeBytes = 1536 * KiB;
    rig.core.execute(wi, 0);
    const auto &mc = rig.ms.cpu(0).counters(mem::ExecMode::User);
    // Expected fetches ~ instr * rate (scaled estimate).
    EXPECT_NEAR(static_cast<double>(mc.codeFetches), 8000.0, 16.0);
}

TEST(CpuCore, DataStreamRespectsRateScale)
{
    CoreConfig cfg = baseCfg();
    cfg.codeL2RefsPerInstr = 0.0;
    cfg.dataL2RefsPerInstr = 0.01;
    Rig rig(cfg);
    WorkItem wi = pureCompute(1000000);
    wi.privateBase = 0x4'0000'0000;
    wi.privateBytes = 64 * KiB;
    wi.dataRateScale = 2.0f;
    rig.core.execute(wi, 0);
    const auto &mc = rig.ms.cpu(0).counters(mem::ExecMode::User);
    const double refs =
        static_cast<double>(mc.dataReads + mc.dataWrites);
    EXPECT_NEAR(refs, 20000.0, 32.0);
}

TEST(CpuCore, MemoryStallsRaiseCpi)
{
    CoreConfig cfg = baseCfg();
    cfg.codeL2RefsPerInstr = 0.0;
    cfg.dataL2RefsPerInstr = 0.02;
    Rig rig(cfg);
    WorkItem wi = pureCompute(500000);
    // A private region far larger than the scaled L3: mostly misses.
    wi.privateBase = 0x4'0000'0000;
    wi.privateBytes = 16 * MiB;
    const auto res = rig.core.execute(wi, 0);
    const double cpi = res.cycles / 500000.0;
    EXPECT_GT(cpi, 2.0); // L3 misses at ~300 cycles dominate.
}

TEST(CpuCore, DeterministicAcrossIdenticalRuns)
{
    auto run = [] {
        Rig rig;
        WorkItem wi = pureCompute(200000);
        wi.privateBase = 0x4'0000'0000;
        wi.privateBytes = 64 * KiB;
        wi.codeBytes = 256 * KiB;
        double total = 0.0;
        for (int i = 0; i < 10; ++i)
            total += rig.core.execute(wi, i * 1000).cycles;
        return total;
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

TEST(CpuCore, MismatchedSampleFactorPanics)
{
    mem::MemorySystem ms(1, smallHier(), quietBus(), 8);
    CoreConfig cfg = baseCfg(); // samplePeriod 16 != 8.
    EXPECT_DEATH({ CpuCore core(0, cfg, ms, 1); }, "must match");
}

/** The index sampleStream used to take: std::pow, truncate, clamp. */
std::uint64_t
powLineIndex(double u, double exp, std::uint64_t lines)
{
    const auto idx = static_cast<std::uint64_t>(
        std::pow(u, exp) * static_cast<double>(lines));
    return std::min(lines - 1, idx);
}

/**
 * Draws u on uniform()'s 2^-53 grid nearest (k / lines)^(1 / exp),
 * and their +-4 neighbours: pow(u, exp) * lines lands within a few
 * ulps of the integer k, inside the margin where the guard must fall
 * back to pow.
 */
std::vector<double>
nearIntegerInputs(double exp, std::uint64_t lines)
{
    constexpr double ulp = 0x1p-53;
    std::vector<double> us;
    const std::uint64_t step = std::max<std::uint64_t>(1, lines / 4096);
    for (std::uint64_t k = 1; k < lines; k += step) {
        const double root = std::pow(static_cast<double>(k) /
                                         static_cast<double>(lines),
                                     1.0 / exp);
        const double m = std::round(root / ulp);
        for (int d = -4; d <= 4; ++d)
            us.push_back(std::min((m + d) * ulp, 1.0 - ulp));
    }
    return us;
}

TEST(CpuCore, SkewedLineIndexEqualsThePowIndex)
{
    std::vector<double> draws = {0.0, 1.0 - 0x1p-53};
    Rng rng(99);
    for (int i = 0; i < 1'000'000; ++i)
        draws.push_back(rng.uniform());
    for (const double exp : {1.0, 1.5, 3.0, 2.5}) {
        for (const std::uint64_t lines :
             {1ull, 8ull, 64ull, 256ull, 1536ull, 2048ull,
              (1ull << 20) + 7}) {
            SCOPED_TRACE(testing::Message()
                         << "exp " << exp << " lines " << lines);
            for (const double u : draws) {
                ASSERT_EQ(skewedLineIndex(u, exp, lines),
                          powLineIndex(u, exp, lines))
                    << "u = " << std::hexfloat << u;
            }
            std::uint64_t in_margin = 0;
            for (const double u : nearIntegerInputs(exp, lines)) {
                ASSERT_EQ(skewedLineIndex(u, exp, lines),
                          powLineIndex(u, exp, lines))
                    << "u = " << std::hexfloat << u;
                const double x =
                    std::pow(u, exp) * static_cast<double>(lines);
                in_margin += std::abs(x - std::round(x)) <= x * 0x1p-40;
            }
            if (lines > 1) {
                EXPECT_GT(in_margin, 0u);
            }
        }
    }
}

/** FNV-1a over 64-bit words: one recorded value per sequence. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
};

/** What the batching test observed on one machine. */
struct BatchRun
{
    std::uint64_t execDigest;   ///< Every ExecResult, in order.
    std::uint64_t cpuDigest;    ///< Each core's per-mode CpuCounters.
    std::uint64_t memDigest;    ///< Each hierarchy's per-mode MemCounters.
    std::set<std::uint64_t> codeCounts; ///< Per-item code references.
    std::set<std::uint64_t> dataCounts; ///< Per-item stream data refs.
};

/**
 * Runs a fixed list of work items on @p p cores sharing one memory
 * system, the cores interleaved item by item. Code and data streams
 * generate 1 reference per 1024 instructions at dataRateScale 1, so an
 * item's (instructions, scale) fix its stream counts exactly; 512
 * instructions leave a half-reference code carry for the next item.
 * With @p zero_weights, each item gives one or two of its three data
 * streams (private, shared, frame) a weight of zero, so the pick runs
 * with empty ranges at either end and in the middle.
 */
BatchRun
runBatchMix(unsigned p, bool zero_weights = false)
{
    struct Spec
    {
        std::uint64_t instr;
        float scale;
    };
    // Resulting (code, data) stream counts, per item.
    const Spec specs[] = {
        {0, 1.0f},                 // (0, 0)
        {1024, 1.0f},              // (1, 1)
        {63 * 1024, 1.0f},         // (63, 63)
        {64 * 1024, 1.0f},         // (64, 64)
        {65 * 1024, 1.0f},         // (65, 65)
        {200 * 1024, 1.0f},        // (200, 200)
        {64 * 1024, 0.0f},         // (64, 0)
        {64 * 1024, 1.0f / 64},    // (64, 1)
        {64 * 1024, 63.0f / 64},   // (64, 63)
        {64 * 1024, 65.0f / 64},   // (64, 65)
        {64 * 1024, 200.0f / 64},  // (64, 200)
        {512, 400.0f},             // (0, 200)
        {512, 126.0f},             // (1, 63)
        {512, 128.0f},             // (0, 64)
        {512, 130.0f},             // (1, 65)
        {512, 2.0f},               // (0, 1)
        {512, 0.0f},               // (1, 0)
        {1024, 200.0f},            // (1, 200)
        {200 * 1024, 0.5f},        // (200, 100)
        {65 * 1024, 0.0f},         // (65, 0)
        // No references at all (i % 4 == 0 adds no exact refs), after
        // a bus window has passed: the lazy epoch leaves the bus
        // clock alone until the next item's first reference.
        {0, 1.0f},                 // (0, 0)
        {1024, 1.0f},              // (1, 1)
    };
    CoreConfig cfg = baseCfg();
    cfg.codeL2RefsPerInstr = S / 1024.0;
    cfg.dataL2RefsPerInstr = S / 1024.0;
    mem::BusConfig bus;
    bus.windowTicks = 20 * tickPerUs; // Queue waits move during the run.
    mem::MemorySystem ms(p, smallHier(), bus, S);
    std::vector<std::unique_ptr<CpuCore>> cores;
    for (unsigned c = 0; c < p; ++c)
        cores.push_back(std::make_unique<CpuCore>(c, cfg, ms, 1234));

    const Addr stride = 64 * S;
    BatchRun out{};
    Digest exec;
    unsigned i = 0;
    for (const Spec &spec : specs) {
        for (unsigned c = 0; c < p; ++c) {
            WorkItem wi;
            wi.instructions = spec.instr;
            wi.dataRateScale = spec.scale;
            wi.mode = i % 3 == 2 ? mem::ExecMode::Os : mem::ExecMode::User;
            wi.codeBase = 0x1000'0000;
            wi.codeBytes = 128 * KiB;
            wi.privateBase = 0x4'0000'0000 + Addr{c} * 0x100'0000;
            wi.privateBytes = 256 * KiB;
            wi.sharedBase = 0x8'0000'0000;
            wi.sharedBytes = 64 * KiB;
            wi.sharedWeight = 0.5f;
            wi.frameAddr = 0x9'0000'0000 + Addr{i % 3} * 8 * KiB;
            wi.frameBytes = 8 * KiB;
            wi.frameWeight = 0.25f;
            if (zero_weights) {
                constexpr float weights[6][3] = {
                    {0.0f, 0.5f, 0.25f}, {1.0f, 0.0f, 0.25f},
                    {1.0f, 0.5f, 0.0f},  {0.0f, 0.0f, 0.25f},
                    {0.0f, 0.5f, 0.0f},  {1.0f, 0.0f, 0.0f},
                };
                const float *w = weights[(i + c) % 6];
                wi.privateWeight = w[0];
                wi.sharedWeight = w[1];
                wi.frameWeight = w[2];
            }
            // Exact references into a region every core shares, some
            // of them writes: 0 to 3 refs of 1 to 3 sampled lines.
            std::uint64_t exact_lines = 0;
            for (unsigned r = 0; r < i % 4; ++r) {
                wi.addRef(0xa'0000'0000 + ((i * 7 + r * 3) % 32) * stride,
                          (r + 1) * static_cast<std::uint32_t>(stride),
                          (i + r + c) % 2 == 1);
                exact_lines += r + 1;
            }
            const mem::MemCounters before = ms.cpu(c).totalCounters();
            const Tick now = (Tick{i} * 37 + c) * tickPerUs;
            const ExecResult res = cores[c]->execute(wi, now);
            exec.add(res.cycles);
            exec.add(std::uint64_t{res.ticks});
            const mem::MemCounters after = ms.cpu(c).totalCounters();
            out.codeCounts.insert((after.codeFetches - before.codeFetches) /
                                  S);
            out.dataCounts.insert((after.dataReads + after.dataWrites -
                                   before.dataReads - before.dataWrites) /
                                      S -
                                  exact_lines);
        }
        ++i;
    }
    out.execDigest = exec.h;

    Digest cpu;
    Digest memd;
    for (unsigned c = 0; c < p; ++c) {
        for (const auto m : {mem::ExecMode::User, mem::ExecMode::Os}) {
            const ModeCpuCounters &cc = cores[c]->counters()[m];
            for (const double v : {cc.instructions, cc.cycles,
                                   cc.branchMispredicts, cc.tlbMisses,
                                   cc.otherCycles})
                cpu.add(v);
            const mem::MemCounters &mc = ms.cpu(c).counters(m);
            for (const std::uint64_t v :
                 {mc.codeFetches, mc.dataReads, mc.dataWrites,
                  mc.l2Misses, mc.l3Misses, mc.coherenceMisses})
                memd.add(v);
        }
    }
    out.cpuDigest = cpu.h;
    out.memDigest = memd.h;
    return out;
}

TEST(CpuCore, BatchedGenerationKeepsDrawAndAccessOrder)
{
    // Region-stream references are generated in batches before they
    // are simulated. The digests below were recorded by running this
    // body against the per-reference generator the batches replaced;
    // any reordered draw, access or cycle sum changes them. The
    // zero-weight digests were recorded against the pick that tested
    // the private and then the shared difference in turn.
    struct Expected
    {
        unsigned p;
        bool zeroWeights;
        std::uint64_t exec, cpu, mem;
    };
    for (const Expected &e :
         {Expected{1, false, 0xd1e4099e20ed3828, 0xe9e3428b3bef1b39,
                   0xef4ff8b113c5223a},
          Expected{4, false, 0x2cdce95f26a3c99a, 0xda28a0fef113119d,
                   0xa4d248f8546ae3c4},
          Expected{1, true, 0xe449108e1086cbc6, 0xdaa53399857fd3f2,
                   0x9e8e94ee0287134d},
          Expected{4, true, 0x9af32b63e32203af, 0xde2515287997d5c7,
                   0x1c6c47421b82b3bf}}) {
        SCOPED_TRACE(testing::Message() << "P=" << e.p << " zero weights "
                                        << e.zeroWeights);
        const BatchRun run = runBatchMix(e.p, e.zeroWeights);
        // The items cover empty, single, just-below, exactly-one,
        // just-above and several-batch streams of both kinds.
        for (const std::uint64_t n : {0u, 1u, 63u, 64u, 65u, 200u}) {
            EXPECT_TRUE(run.codeCounts.count(n)) << "code count " << n;
            EXPECT_TRUE(run.dataCounts.count(n)) << "data count " << n;
        }
        EXPECT_EQ(run.execDigest, e.exec) << std::hex << run.execDigest;
        EXPECT_EQ(run.cpuDigest, e.cpu) << std::hex << run.cpuDigest;
        EXPECT_EQ(run.memDigest, e.mem) << std::hex << run.memDigest;
    }
}

/** Property: cycles scale linearly with instruction count. */
class CoreLinearityProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CoreLinearityProperty, CyclesScaleWithInstructions)
{
    CoreConfig cfg = baseCfg();
    cfg.codeL2RefsPerInstr = 0.0;
    cfg.dataL2RefsPerInstr = 0.0;
    Rig rig(cfg);
    const std::uint64_t n = static_cast<std::uint64_t>(GetParam());
    const auto res = rig.core.execute(pureCompute(n), 0);
    const double per_instr = res.cycles / static_cast<double>(n);
    EXPECT_NEAR(per_instr, 0.5 + 0.08 + 0.07, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CoreLinearityProperty,
                         ::testing::Values(1000, 10000, 100000, 1000000));

} // namespace

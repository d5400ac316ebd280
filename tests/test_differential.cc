/** Differential harness for the scheduling kernel: every paper
 *  configuration (plus the +HS extension points) x every workload x
 *  every core runs in a four-way mode matrix — per-cycle reference,
 *  fast-forward with and without the predecoded image, and
 *  fast-forward with superblock execution; episode traces, cycle
 *  counts, status and all semantic counters must be byte-identical
 *  across all four. This is the contract that makes the accelerated
 *  paths trustworthy for the paper's latency/jitter numbers. A golden
 *  pins the block counters of the full engine over the same matrix. */

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "rtosunit/config.hh"
#include "sweep/sweep.hh"

namespace rtu {
namespace {

/** paperConfigs() + the three +HS composition points — the same
 *  matrix the lint gate walks (see analyze/linter.cc). */
std::vector<RtosUnitConfig>
matrixConfigs()
{
    std::vector<RtosUnitConfig> units = RtosUnitConfig::paperConfigs();
    for (const char *name : {"ST", "SDLOT", "SPLIT"}) {
        RtosUnitConfig u = RtosUnitConfig::fromName(name);
        u.hwsync = true;
        units.push_back(u);
    }
    return units;
}

/** Every core on every matrix configuration x workload, 3 iterations
 *  each: 15 configurations x 7 workloads x 3 cores = 315 points. */
template <typename Fn>
void
forEachMatrixPoint(Fn &&fn)
{
    const std::array<const char *, 7> workloads = {
        "yield_pingpong", "round_robin",   "mutex_workload",
        "delay_wake",     "sem_pingpong",  "priority_preempt",
        "ext_interrupt"};
    const std::array<CoreKind, 3> cores = {
        CoreKind::kCv32e40p, CoreKind::kCva6, CoreKind::kNax};
    for (const RtosUnitConfig &unit : matrixConfigs()) {
        for (const char *w : workloads) {
            for (CoreKind core : cores) {
                SweepPoint p;
                p.core = core;
                p.unit = unit;
                p.workload = w;
                p.iterations = 3;
                p.reseed();
                fn(p);
            }
        }
    }
}

TEST(Differential, FastForwardMatchesReferenceAcrossTheMatrix)
{
    // The three accelerated engines; each is compared against the
    // per-cycle reference.
    const std::array<EngineMode, 3> modes = {
        EngineMode::kFull, EngineMode::kNoBlock, EngineMode::kNoPredecode};

    size_t idx = 0;
    forEachMatrixPoint([&](const SweepPoint &p) {
        ++idx;
        const SweepResult ref =
            runSweepPoint(p, true, EngineMode::kReference);
        const std::string key = p.key();

        // The reference mode never skips and never block-executes.
        EXPECT_EQ(ref.run.throughput.cyclesSkipped, 0u) << key;
        EXPECT_EQ(ref.run.throughput.cyclesBlockExecuted, 0u) << key;

        for (EngineMode m : modes) {
            const SweepResult ff = runSweepPoint(p, true, m);
            const std::string mkey =
                key + " [" + engineModeName(m) + "]";

            // Every reference cycle is accounted exactly once:
            // ticked, bulk-skipped, or block-executed.
            EXPECT_EQ(ff.run.throughput.cyclesTicked +
                          ff.run.throughput.cyclesSkipped +
                          ff.run.throughput.cyclesBlockExecuted,
                      ref.run.throughput.cyclesTicked)
                << mkey;
            if (m == EngineMode::kNoPredecode) {
                // No predecoded image => no block runs.
                EXPECT_EQ(ff.run.throughput.cyclesBlockExecuted, 0u)
                    << mkey;
            }

            EXPECT_EQ(ff.run.ok, ref.run.ok) << mkey;
            EXPECT_EQ(ff.run.status, ref.run.status) << mkey;
            EXPECT_EQ(ff.run.exitCode, ref.run.exitCode) << mkey;
            EXPECT_EQ(ff.run.cycles, ref.run.cycles) << mkey;

            const CoreStats &a = ff.run.coreStats;
            const CoreStats &b = ref.run.coreStats;
            EXPECT_EQ(a.instret, b.instret) << mkey;
            EXPECT_EQ(a.traps, b.traps) << mkey;
            EXPECT_EQ(a.mrets, b.mrets) << mkey;
            EXPECT_EQ(a.wfiCycles, b.wfiCycles) << mkey;
            EXPECT_EQ(a.memOps, b.memOps) << mkey;
            EXPECT_EQ(a.stallCycles, b.stallCycles) << mkey;
            EXPECT_EQ(a.branchMispredicts, b.branchMispredicts)
                << mkey;
            EXPECT_EQ(a.cacheMisses, b.cacheMisses) << mkey;
            // The front end total is invariant; only the
            // predecoded/slow-path split moves with the knobs.
            EXPECT_EQ(a.fetchPredecoded + a.fetchSlowPath,
                      b.fetchPredecoded + b.fetchSlowPath)
                << mkey;

            EXPECT_TRUE(ff.run.switchLatency.samples() ==
                        ref.run.switchLatency.samples())
                << mkey << ": switch-latency samples differ";
            EXPECT_TRUE(ff.run.episodeLatency.samples() ==
                        ref.run.episodeLatency.samples())
                << mkey << ": episode-latency samples differ";
            EXPECT_TRUE(ff.trace == ref.trace)
                << mkey << ": episode trace JSONL differs ("
                << ff.trace.size() << " vs " << ref.trace.size()
                << " bytes)";
        }
    });
    EXPECT_EQ(idx, 315u);  // 15 configurations x 7 workloads x 3 cores
}

/** The block fast path's counters at kFull, folded per core x point
 *  into one FNV-1a digest. The differential above checks only what
 *  every engine shares; this pins how much of each run the block path
 *  took, where it gave up, and the stall cycles it accounted. */
TEST(BlockCounterGolden, FullEngineAcrossTheMatrix)
{
    std::ostringstream folded;
    size_t points = 0;
    forEachMatrixPoint([&](const SweepPoint &p) {
        const SweepResult r = runSweepPoint(p, false, EngineMode::kFull);
        const CoreStats &s = r.run.coreStats;
        folded << p.key() << ' ' << s.blocksExecuted << ' '
               << s.blockFallbacks << ' ' << s.fetchPredecoded << ' '
               << s.stallCycles << ' '
               << r.run.throughput.cyclesBlockExecuted << '\n';
        ++points;
    });
    EXPECT_EQ(points, 315u);
    EXPECT_EQ(fnv1a(folded.str()), 0x26b0b699101e9e9bull)
        << "block counters moved; the folded lines were:\n"
        << folded.str();
}

} // namespace
} // namespace rtu

/** Differential harness for the scheduling kernel: every paper
 *  configuration (plus the +HS extension points) x every workload runs
 *  in a four-way mode matrix — per-cycle reference, fast-forward with
 *  and without the predecoded image, and fast-forward with superblock
 *  execution; episode traces, cycle counts, status and all semantic
 *  counters must be byte-identical across all four. This is the
 *  contract that makes the accelerated paths trustworthy for the
 *  paper's latency/jitter numbers. */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

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

TEST(Differential, FastForwardMatchesReferenceAcrossTheMatrix)
{
    const std::vector<RtosUnitConfig> units = matrixConfigs();
    const std::array<const char *, 7> workloads = {
        "yield_pingpong", "round_robin",   "mutex_workload",
        "delay_wake",     "sem_pingpong",  "priority_preempt",
        "ext_interrupt"};
    const std::array<CoreKind, 3> cores = {
        CoreKind::kCv32e40p, CoreKind::kCva6, CoreKind::kNax};

    // The three accelerated engines; each is compared against the
    // per-cycle reference.
    const std::array<EngineMode, 3> modes = {
        EngineMode::kFull, EngineMode::kNoBlock, EngineMode::kNoPredecode};

    size_t idx = 0;
    for (const RtosUnitConfig &unit : units) {
        for (const char *w : workloads) {
            SweepPoint p;
            // Round-robin the cores over the matrix: each core model
            // still sees every configuration and every workload.
            p.core = cores[idx % cores.size()];
            p.unit = unit;
            p.workload = w;
            p.iterations = 3;
            p.reseed();
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
                    // No image => no block index => no block runs.
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
        }
    }
    EXPECT_EQ(idx, 105u);  // 15 configurations x 7 workloads
}

} // namespace
} // namespace rtu

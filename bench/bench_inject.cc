/**
 * Fault-injection campaign driver.
 *
 * Default mode: run a deterministic campaign over the requested
 * (core x config x workload) grid — one golden reference plus
 * --faults injected runs per point — classify every outcome and
 * stream one JSONL record per injected run to --out. Identical
 * --seed and grid produce byte-identical output at any --threads.
 * Exits non-zero when any *clean* run fires an oracle (an oracle
 * soundness bug), or when any injected run escapes as
 * silent-corruption with --strict.
 *
 * --selftest mode: a seeded-defect matrix with hand-picked,
 * guaranteed-detectable faults. Asserts that every context/list
 * defect is caught by the intended oracle, that clean runs across
 * the full paper configuration matrix never fire, and that nothing
 * classifies as silent-corruption. This is the CI smoke gate.
 *
 * Usage: bench_inject [--cores cv32e40p,cva6,nax]
 *                     [--configs vanilla,SLT,...] [--workloads ...]
 *                     [--iterations N] [--timer-period CYCLES]
 *                     [--faults N] [--campaign-size N] [--seed S]
 *                     [--threads N] [--out campaign.jsonl]
 *                     [--strict] [--selftest]
 *                     [--engine full|no-block|no-predecode|reference]
 *
 * Every engine mode is exact, so --engine must not change a single
 * outcome classification; ctest runs the selftest at full and
 * no-block.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/argparse.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "inject/campaign.hh"
#include "inject/fault.hh"
#include "kernel/layout.hh"
#include "sweep/sweep.hh"

using namespace rtu;

namespace {

void
printSummary(const CampaignResult &res)
{
    std::printf("campaign: %zu points, %zu injected runs\n",
                res.goldens.size(), res.faults.size());
    for (unsigned o = 0; o < kNumFaultOutcomes; ++o) {
        const auto outcome = static_cast<FaultOutcome>(o);
        std::printf("  %-18s %u\n", faultOutcomeName(outcome),
                    res.countOf(outcome));
    }
    std::printf("  detection coverage %.4f\n", res.detectionCoverage());
    std::printf("  clean-run oracle firings %u\n", res.cleanOracleHits());
}

/**
 * The seeded-defect matrix: hand-picked faults each oracle is
 * guaranteed to catch, across representative configurations of every
 * context mechanism. Returns the number of failed expectations.
 */
unsigned
runSelftest(const SweepRunner &runner, unsigned iterations,
            Word timer_period, EngineMode engine)
{
    unsigned failures = 0;
    const auto expect = [&](bool ok, const std::string &what) {
        if (!ok) {
            ++failures;
            std::fprintf(stderr, "selftest FAIL: %s\n", what.c_str());
        }
    };

    // Clean matrix: the full paper configuration set on three
    // workloads must never fire an oracle.
    {
        SweepSpec spec;
        spec.cores = {CoreKind::kCv32e40p};
        spec.units = RtosUnitConfig::paperConfigs();
        spec.workloads = {"yield_pingpong", "round_robin",
                          "ext_interrupt"};
        spec.iterations = iterations;
        spec.timerPeriods = {timer_period};
        CampaignSpec cs;
        cs.points = spec.points();
        cs.faultsPerPoint = 1;
        cs.seed = 42;
        cs.engine = engine;
        const CampaignResult res = runCampaign(cs, runner);
        expect(res.cleanOracleHits() == 0,
               csprintf("clean matrix fired %u oracle hits (first: %s)",
                        res.cleanOracleHits(),
                        [&] {
                            for (const GoldenRecord &g : res.goldens)
                                if (g.oracleHits)
                                    return g.point.key() + ": " +
                                           g.oracleDetail;
                            return std::string("none");
                        }()
                            .c_str()));
        expect(res.countOf(FaultOutcome::kSilentCorruption) == 0,
               "seeded campaign produced silent corruption");
    }

    // Hand-picked defects with a guaranteed detection path.
    struct Fixture
    {
        const char *config;
        FaultSpec fault;
        const char *oracle;  ///< expected oracle name
    };
    FaultSpec ctxFlip;
    ctxFlip.kind = FaultKind::kCtxFlip;
    ctxFlip.episode = 2;
    ctxFlip.word = 4;  // x5: compared at every resume regardless of use
    ctxFlip.bitMask = 0xFF0;
    FaultSpec tcbFlip;
    tcbFlip.kind = FaultKind::kTcbField;
    tcbFlip.episode = 2;
    tcbFlip.tcbField = kernel::kTcbId;  // breaks table<->TCB mapping
    tcbFlip.bitMask = 0x7;
    tcbFlip.taskSel = 1;
    FaultSpec fsmAbort;
    fsmAbort.kind = FaultKind::kFsmAbort;
    fsmAbort.episode = 3;
    fsmAbort.cycles = 2;  // kill the store drain near its start
    const std::vector<Fixture> fixtures = {
        {"vanilla", ctxFlip, "context"}, {"vanilla", tcbFlip, "list"},
        {"S", ctxFlip, "context"},       {"S", tcbFlip, "list"},
        {"SDLOT", ctxFlip, "context"},   {"T", tcbFlip, "list"},
        {"CV32RT", ctxFlip, "context"},  {"S", fsmAbort, "context"},
    };
    for (const Fixture &fx : fixtures) {
        SweepPoint pt;
        pt.core = CoreKind::kCv32e40p;
        pt.unit = RtosUnitConfig::fromName(fx.config);
        pt.workload = "yield_pingpong";
        pt.iterations = iterations;
        pt.timerPeriodCycles = timer_period;
        pt.reseed();
        GoldenRecord golden;
        const FaultRunRecord rec =
            runSingleFault(pt, fx.fault, &golden, engine);
        const std::string label =
            csprintf("%s/%s", fx.config, fx.fault.describe().c_str());
        expect(golden.oracleHits == 0,
               csprintf("%s: clean run fired: %s", label.c_str(),
                        golden.oracleDetail.c_str()));
        expect(rec.fired, label + ": fault never fired");
        expect(rec.outcome == FaultOutcome::kDetectedOracle,
               csprintf("%s: classified %s, expected detected-oracle "
                        "(%s)",
                        label.c_str(), faultOutcomeName(rec.outcome),
                        rec.oracleDetail.c_str()));
        expect(rec.oracleName == fx.oracle,
               csprintf("%s: %s oracle fired (%s), expected %s",
                        label.c_str(), rec.oracleName.c_str(),
                        rec.oracleDetail.c_str(), fx.oracle));
    }
    return failures;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);

    std::string cores_arg = "cv32e40p";
    std::string configs_arg = "vanilla,S,SLT,SDLOT,T,CV32RT";
    std::string workloads_arg = "yield_pingpong,round_robin,ext_interrupt";
    unsigned iterations = 5;
    unsigned timer_period = 1000;
    unsigned faults = 8;
    unsigned campaign_size = 0;
    std::uint64_t seed = 1;
    unsigned threads = 1;
    std::string out_path = "BENCH_inject_campaign.jsonl";
    bool strict = false;
    bool selftest = false;
    std::string engine_name = "full";

    ArgParser parser("Fault-injection campaign with kernel-invariant "
                     "oracles");
    parser.addString("--cores", &cores_arg,
                     "comma list: cv32e40p,cva6,nax");
    parser.addString("--configs", &configs_arg,
                     "comma list of RTOSUnit configurations");
    parser.addString("--workloads", &workloads_arg,
                     "comma list of workloads");
    parser.addUnsigned("--iterations", &iterations,
                       "workload iterations per run");
    parser.addUnsigned("--timer-period", &timer_period,
                       "preemption timer period in cycles");
    parser.addUnsigned("--faults", &faults,
                       "injected faults per grid point");
    parser.addUnsigned("--campaign-size", &campaign_size,
                       "total fault budget (overrides --faults)");
    parser.addU64("--seed", &seed, "campaign seed (plans derive from it)");
    parser.addUnsigned("--threads", &threads, "worker threads");
    parser.addString("--out", &out_path, "outcome JSONL path");
    parser.addFlag("--strict", &strict,
                   "exit non-zero on any silent-corruption outcome");
    parser.addFlag("--selftest", &selftest,
                   "run the seeded-defect matrix and exit");
    parser.addString("--engine", &engine_name,
                     "full, no-block, no-predecode or reference "
                     "(classification must not change)");
    parser.parse(argc, argv);
    const EngineMode engine = engineModeFromName(engine_name);

    const SweepRunner runner(threads);

    if (selftest) {
        const unsigned failures =
            runSelftest(runner, iterations, timer_period, engine);
        if (failures != 0) {
            std::fprintf(stderr, "selftest: %u failures\n", failures);
            return 1;
        }
        std::printf("selftest: all oracles detected their seeded "
                    "defects; clean matrix silent\n");
        return 0;
    }

    SweepSpec spec;
    parseGridFlag(cores_arg, &spec.cores);
    parseGridFlag(configs_arg, &spec.units);
    parseGridFlag(workloads_arg, &spec.workloads);
    spec.iterations = iterations;
    spec.timerPeriods = {timer_period};

    CampaignSpec cs;
    cs.points = spec.points();
    cs.seed = seed;
    cs.engine = engine;
    cs.faultsPerPoint = faults;
    if (campaign_size != 0) {
        cs.faultsPerPoint = std::max<unsigned>(
            1, (campaign_size + static_cast<unsigned>(cs.points.size()) -
                1) /
                   static_cast<unsigned>(cs.points.size()));
    }

    const CampaignResult res = runCampaign(cs, runner);

    std::ofstream out = openFlagFile(out_path, "--out");
    writeSchemaHeader(out, "inject", kCampaignSchema);
    writeCampaignJsonl(out, cs, res);
    printSummary(res);

    if (res.cleanOracleHits() != 0) {
        std::fprintf(stderr,
                     "FAIL: clean runs fired %u oracle hits — oracle "
                     "soundness bug\n",
                     res.cleanOracleHits());
        return 1;
    }
    if (strict && res.countOf(FaultOutcome::kSilentCorruption) != 0) {
        std::fprintf(stderr, "FAIL: %u silent-corruption escapes\n",
                     res.countOf(FaultOutcome::kSilentCorruption));
        return 1;
    }
    return 0;
}

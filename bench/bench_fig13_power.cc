/**
 * Figure 13 reproduction: average power of each core x configuration
 * running `mutex_workload` at 500 MHz. As in the paper, the dynamic
 * component derives from the switching activity of an *actual*
 * workload execution (our analytical analogue of their gate-level
 * waveform power flow), and static power tracks area.
 *
 * The workload grid runs through the SweepRunner: --threads N shards
 * the independent simulations with identical results at any N, and
 * --out emits the per-point JSONL the other figure benches share.
 *
 * Usage: bench_fig13_power [--threads N] [--iterations N]
 *                          [--out power.jsonl]
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "asic/asic.hh"
#include "common/argparse.hh"
#include "common/logging.hh"
#include "sweep/sweep.hh"

using namespace rtu;

int
main(int argc, char **argv)
{
    unsigned iterations = 20;
    unsigned threads = 1;
    std::string out_path;
    ArgParser parser("Figure 13: average power on mutex_workload "
                     "(22 nm model)");
    parser.addUnsigned("--iterations", &iterations,
                       "workload iterations per run");
    parser.addUnsigned("--threads", &threads, "worker threads");
    parser.addString("--out", &out_path, "JSONL output path");
    parser.parse(argc, argv);
    setQuiet(true);
    constexpr double kFreqMhz = 500.0;

    SweepSpec spec;
    spec.cores = {CoreKind::kCv32e40p, CoreKind::kCva6, CoreKind::kNax};
    spec.units = RtosUnitConfig::paperConfigs();
    spec.workloads = {"mutex_workload"};
    spec.iterations = iterations;

    const SweepRunner runner(threads);
    const auto results = runner.run(spec);

    std::printf("Figure 13: average power on mutex_workload @ "
                "%.0f MHz (22 nm model, %u threads)\n", kFreqMhz,
                runner.threads());
    for (CoreKind core : spec.cores) {
        std::printf("\n=== %s ===\n", coreKindName(core));
        std::printf("%-9s %10s %10s %10s %9s\n", "config",
                    "static[mW]", "dyn[mW]", "total[mW]", "vs base");
        double base_total = 0.0;
        for (const RtosUnitConfig &cfg : spec.units) {
            const SweepResult *row = nullptr;
            for (const SweepResult &r : results) {
                if (r.point.core == core && r.point.unit == cfg)
                    row = &r;
            }
            if (!row || !row->run.ok) {
                std::printf("%-9s   RUN FAILED\n", cfg.name().c_str());
                continue;
            }
            const PowerResult p = AsicModel::power(
                core, cfg, row->run.activity, kFreqMhz);
            if (cfg.isVanilla())
                base_total = p.totalMw();
            std::printf("%-9s %10.2f %10.2f %10.2f %+8.1f%%\n",
                        cfg.name().c_str(), p.staticMw, p.dynamicMw,
                        p.totalMw(),
                        100.0 * (p.totalMw() / base_total - 1.0));
        }
    }
    std::printf("\npaper anchors: strong area-power correlation; "
                "relative increases up to +72%% (CV32E40P), +33%% "
                "(CVA6), +13%% (NaxRiscv, CV32RT highest there)\n");

    if (!out_path.empty()) {
        std::ofstream os = openFlagFile(out_path, "--out");
        writeResultsHeaderJsonl(os, "fig13_power");
        writeResultsJsonl(os, results);
        std::printf("results: %s (%zu points)\n", out_path.c_str(),
                    results.size());
    }
    return 0;
}

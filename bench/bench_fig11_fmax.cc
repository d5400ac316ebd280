/**
 * Figure 11 reproduction: achievable ASIC frequency of each core
 * under every RTOSUnit configuration (22 nm critical-path model).
 *
 * Usage: bench_fig11_fmax [--out fmax.jsonl]
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "asic/asic.hh"
#include "common/json.hh"
#include "common/argparse.hh"
#include "common/logging.hh"

using namespace rtu;

int
main(int argc, char **argv)
{
    std::string out_path;
    ArgParser parser("Figure 11: achievable ASIC f_max per core and "
                     "RTOSUnit configuration");
    parser.addString("--out", &out_path, "JSONL output path");
    parser.parse(argc, argv);

    std::ofstream os;
    if (!out_path.empty()) {
        os = openFlagFile(out_path, "--out");
        writeSchemaHeader(os, "fig11_fmax", 1);
    }

    std::printf("Figure 11: ASIC f_max under RTOSUnit "
                "configurations (GHz)\n\n");
    std::printf("%-9s", "config");
    for (CoreKind core : {CoreKind::kCv32e40p, CoreKind::kCva6,
                          CoreKind::kNax})
        std::printf(" %14s", coreKindName(core));
    std::printf("\n");

    for (const RtosUnitConfig &cfg : RtosUnitConfig::paperConfigs()) {
        std::printf("%-9s", cfg.name().c_str());
        for (CoreKind core : {CoreKind::kCv32e40p, CoreKind::kCva6,
                              CoreKind::kNax}) {
            const double base =
                AsicModel::fmaxGHz(core, RtosUnitConfig::vanilla());
            const double f = AsicModel::fmaxGHz(core, cfg);
            std::printf("  %5.2f (%+4.0f%%)", f,
                        100.0 * (f / base - 1.0));
            if (os.is_open()) {
                std::string line;
                JsonWriter(line).beginObject()
                    .str("core", coreKindName(core))
                    .str("config", cfg.name())
                    .fixed("fmax_ghz", f, "%.6f")
                    .fixed("delta_pct", 100.0 * (f / base - 1.0), "%.3f")
                    .endObject();
                os << line << '\n';
            }
        }
        std::printf("\n");
    }
    std::printf("\npaper anchors: CV32E40P ~-15%% on all RTOSUnit "
                "configs (CV32RT unaffected); CVA6 ~-8%%; NaxRiscv "
                "stable, SPLIT -4%%\n");
    if (os.is_open())
        std::printf("results: %s\n", out_path.c_str());
    return 0;
}

/**
 * Figure 10 reproduction: normalized ASIC area of each core under
 * every RTOSUnit configuration, with absolute areas (the paper prints
 * them above the bars) and the per-structure breakdown the analytical
 * model accounts.
 *
 * Usage: bench_fig10_area [--breakdown] [--out area.jsonl]
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
    bool breakdown = false;
    std::string out_path;
    ArgParser parser("Figure 10: normalized ASIC area per core and "
                     "RTOSUnit configuration");
    parser.addFlag("--breakdown", &breakdown,
                   "print the per-structure area breakdown");
    parser.addString("--out", &out_path, "JSONL output path");
    parser.parse(argc, argv);

    std::ofstream os;
    if (!out_path.empty()) {
        os = openFlagFile(out_path, "--out");
        writeSchemaHeader(os, "fig10_area", 1);
    }

    std::printf("Figure 10: normalized ASIC area w.r.t. each core's "
                "baseline (22 nm model)\n");
    for (CoreKind core : {CoreKind::kCv32e40p, CoreKind::kCva6,
                          CoreKind::kNax}) {
        std::printf("\n=== %s ===\n", coreKindName(core));
        std::printf("%-9s %10s %12s %10s\n", "config", "norm",
                    "area[mm2]", "kGE");
        for (const RtosUnitConfig &cfg : RtosUnitConfig::paperConfigs()) {
            const AreaResult a = AsicModel::area(core, cfg);
            std::printf("%-9s %9.3fx %12.4f %10.1f\n",
                        cfg.name().c_str(), a.normalized, a.areaMm2,
                        a.totalGE / 1000.0);
            if (breakdown) {
                for (const auto &[name, ge] : a.breakdownGE) {
                    if (name != "core")
                        std::printf("    %-28s %8.1f kGE\n",
                                    name.c_str(), ge / 1000.0);
                }
            }
            if (os.is_open()) {
                std::string line;
                JsonWriter(line).beginObject()
                    .str("core", coreKindName(core))
                    .str("config", cfg.name())
                    .fixed("norm", a.normalized, "%.6f")
                    .fixed("area_mm2", a.areaMm2, "%.6f")
                    .fixed("total_ge", a.totalGE, "%.1f").endObject();
                os << line << '\n';
            }
        }
    }
    std::printf("\npaper anchors: CV32E40P S +21.9%%, CV32RT +21.2%%, "
                "T ~0%%, ST +33%%, SPLIT +44%%; CVA6 S +3-5%%; "
                "NaxRiscv S ~15%%, CV32RT +19%%\n");
    if (os.is_open())
        std::printf("results: %s\n", out_path.c_str());
    return 0;
}

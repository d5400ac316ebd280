/**
 * rtu_lint: static context-integrity lint gate over the generated
 * kernel matrix.
 *
 * Runs the analysis passes (src/analyze) — trap-path context
 * integrity vs. the RTOSUnit configuration, callee-saved ABI, stack
 * discipline, CFG/WCET soundness and, with --absint, the
 * abstract-interpretation family (inferred loop bounds, worst-case
 * stack usage, infeasible branches) — over every generated kernel
 * image:
 * all twelve paper configurations (plus the +HS extension points)
 * crossed with the standard workload suite.
 *
 * Usage:
 *   rtu_lint [--configs S,SDLOT,...] [--workloads yield_pingpong,...]
 *            [--out diags.jsonl] [--warn-as-error] [--no-hwsync]
 *            [--absint] [--pedantic-bounds] [--quiet]
 *            (--flag=value also accepted)
 *
 * Exit status is non-zero when any error diagnostic (or, with
 * --warn-as-error, any diagnostic at all) is produced, so CI can use
 * the binary directly as a gate. Diagnostics go to stdout as text and
 * optionally to --out as JSONL, one object per diagnostic with the
 * configuration and workload attached.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analyze/linter.hh"
#include "common/argparse.hh"
#include "common/json.hh"
#include "common/logging.hh"

using namespace rtu;

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::string configs_arg;
    std::string workloads_arg;
    std::string outPath;
    bool warnAsError = false;
    bool noHwsync = false;
    bool absint = false;
    bool pedanticBounds = false;
    bool quiet = false;

    ArgParser parser("Static context-integrity lint gate over the "
                     "generated kernel matrix");
    parser.addString("--configs", &configs_arg,
                     "comma list of configurations (default: all)");
    parser.addString("--workloads", &workloads_arg,
                     "comma list of workloads (default: all)");
    parser.addString("--out", &outPath, "diagnostic JSONL path");
    parser.addFlag("--warn-as-error", &warnAsError,
                   "any diagnostic fails the gate");
    parser.addFlag("--no-hwsync", &noHwsync,
                   "skip the +HS extension points");
    parser.addFlag("--absint", &absint,
                   "run the abstract-interpretation pass family "
                   "(inferred loop bounds, worst-case stack usage)");
    parser.addFlag("--pedantic-bounds", &pedanticBounds,
                   "with --absint: warn on annotations looser than "
                   "the inferred bound");
    parser.addFlag("--quiet", &quiet, "suppress text diagnostics");
    parser.parse(argc, argv);

    const std::vector<std::string> configFilter = splitList(configs_arg);
    const std::vector<std::string> workloadFilter =
        splitList(workloads_arg);
    const bool includeHwsync = !noHwsync;

    std::ofstream jsonl;
    if (!outPath.empty()) {
        jsonl.open(outPath);
        if (!jsonl) {
            std::fprintf(stderr, "rtu_lint: cannot open %s\n",
                         outPath.c_str());
            return 2;
        }
        writeSchemaHeader(jsonl, "rtu_lint", kDiagSchema);
    }

    unsigned points = 0;
    unsigned dirtyPoints = 0;
    unsigned errors = 0;
    unsigned warnings = 0;
    forEachGeneratedProgram(
        [&](const LintPoint &point) {
            const std::string cfgName = point.unit.name();
            if (!configFilter.empty() &&
                std::count(configFilter.begin(), configFilter.end(),
                           cfgName) == 0)
                return;
            if (!workloadFilter.empty() &&
                std::count(workloadFilter.begin(), workloadFilter.end(),
                           point.workload) == 0)
                return;
            ++points;
            LintOptions lintOptions;
            lintOptions.absint = absint;
            lintOptions.absintPedanticBounds = pedanticBounds;
            const LintResult result =
                lintProgram(point.program, point.unit, lintOptions);
            errors += result.errors();
            warnings += result.warnings();
            if (!result.clean())
                ++dirtyPoints;
            for (const Diagnostic &d : result.diags) {
                if (!quiet) {
                    std::printf("[%s x %s] %s\n", cfgName.c_str(),
                                point.workload.c_str(),
                                diagToString(d).c_str());
                }
                if (jsonl.is_open()) {
                    std::string context;
                    JsonWriter(context)
                        .str("config", cfgName)
                        .str("workload", point.workload);
                    jsonl << diagToJson(d, context) << '\n';
                }
            }
        },
        includeHwsync);

    if (!quiet) {
        std::printf("rtu_lint: %u program points, %u with findings, "
                    "%u errors, %u warnings\n",
                    points, dirtyPoints, errors, warnings);
    }
    if (points == 0) {
        std::fprintf(stderr, "rtu_lint: no program points matched "
                             "the filters\n");
        return 2;
    }
    return errors > 0 || (warnAsError && warnings > 0) ? 1 : 0;
}

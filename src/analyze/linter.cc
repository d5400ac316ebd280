#include "linter.hh"

#include <utility>

#include "analyze/absint/engine.hh"
#include "analyze/absint/loopbound.hh"
#include "analyze/absint/wcsu.hh"
#include "common/logging.hh"
#include "kernel/kernel.hh"
#include "workloads/workloads.hh"

namespace rtu {

LintResult
lintProgram(const Program &program, const RtosUnitConfig &unit,
            const LintOptions &options)
{
    LintResult result;
    const Cfg cfg(program);
    // A transfer out of text leaves the CFG open, and every pass
    // assumes a closed one: report the transfers and run no pass.
    for (Addr pc : cfg.outOfTextTransfers()) {
        result.diags.push_back(diagAt(
            cfg, Severity::kError, "cfg-target-outside-text", pc,
            csprintf("control target 0x%08x lies outside text",
                     pc + static_cast<Word>(cfg.insnAt(pc).imm))));
    }
    if (!result.diags.empty())
        return result;
    checkContextIntegrity(cfg, unit, options, result.diags);
    checkCalleeSaved(cfg, options, result.diags);
    checkStackDiscipline(cfg, options, result.diags);
    checkCfgSoundness(cfg, options, result.diags);
    if (options.absint)
        checkAbsint(program, options, result.diags);
    return result;
}

void
checkAbsint(const Program &program, const LintOptions &options,
            std::vector<Diagnostic> &out)
{
    AbsintEngine engine(program);
    engine.run();

    LoopBoundOptions lbo;
    lbo.pedantic = options.absintPedanticBounds;
    LoopBoundResult bounds = inferLoopBounds(engine, lbo);
    out.insert(out.end(), bounds.diags.begin(), bounds.diags.end());

    WcsuAnalyzer wcsu(engine.cfg());
    wcsu.run();
    out.insert(out.end(), wcsu.diags().begin(), wcsu.diags().end());
    wcsu.checkOverflow(out);
}

void
forEachGeneratedProgram(
    const std::function<void(const LintPoint &)> &fn,
    bool include_hwsync)
{
    std::vector<RtosUnitConfig> units = RtosUnitConfig::paperConfigs();
    if (include_hwsync) {
        // The hardware-synchronization extension points (Section 7):
        // +HS composes on top of any (T) configuration.
        for (const char *name : {"ST", "SDLOT", "SPLIT"}) {
            RtosUnitConfig u = RtosUnitConfig::fromName(name);
            u.hwsync = true;
            units.push_back(u);
        }
    }
    for (const RtosUnitConfig &unit : units) {
        // Build exactly as the sweep harness does (src/sweep): the
        // iteration count shapes loop bodies, not kernel structure,
        // so the paper's 20 iterations stand in for all counts.
        for (const auto &workload : standardSuite(20)) {
            const WorkloadInfo winfo = workload->info();
            KernelParams kp;
            kp.unit = unit;
            kp.usesExternalIrq = winfo.usesExternalIrq;
            KernelBuilder kb(kp);
            workload->addTasks(kb);
            LintPoint point{unit, winfo.name, kb.build()};
            fn(point);
        }
    }
}

} // namespace rtu

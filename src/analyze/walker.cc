#include "walker.hh"

#include "asm/disasm.hh"

namespace rtu {

void
PathWalker::report(Severity severity, const std::string &code, Addr pc,
                   const std::string &message)
{
    if (!reported_.insert(code + "@" + std::to_string(pc)).second)
        return;
    Diagnostic d;
    d.severity = severity;
    d.code = code;
    d.pc = pc;
    d.hasPc = true;
    d.function = cfg_.program().functionAt(pc);
    d.insn = cfg_.contains(pc) ? disassemble(cfg_.insnAt(pc).raw)
                               : std::string();
    d.message = message;
    out_.push_back(std::move(d));
}

bool
PathWalker::outOfBudget(Addr pc)
{
    if (states_ < kWalkStateBudget)
        return false;
    if (!exhausted_) {
        exhausted_ = true;
        report(Severity::kWarning, "lint-budget-exceeded", pc,
               pass_ + " exploration exceeded the state budget; "
                       "results are partial");
    }
    return true;
}

} // namespace rtu

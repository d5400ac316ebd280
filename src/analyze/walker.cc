#include "walker.hh"


namespace rtu {

void
PathWalker::report(Severity severity, const std::string &code, Addr pc,
                   const std::string &message)
{
    if (!reported_.insert(code + "@" + std::to_string(pc)).second)
        return;
    out_.push_back(diagAt(cfg_, severity, code, pc, message));
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

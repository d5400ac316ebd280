/**
 * @file
 * Worst-case stack usage: call-graph-composed symbolic sp tracking.
 */

#include <algorithm>

#include "analyze/absint/wcsu.hh"
#include "common/logging.hh"

namespace rtu {

/**
 * One function's walk over the SP lattice. It differs from the stack
 * pass's policy in three documented ways: the memo key keeps the
 * unknown-mode value (offsets applied after a frame switch are charged
 * as depth), jumps out of the function charge their target like a
 * call, and SWITCH_RF makes sp unknown (it now belongs to the other
 * register bank).
 */
class WcsuAnalyzer::FunctionPolicy
{
  public:
    using State = SpValue;

    FunctionPolicy(WcsuAnalyzer &wcsu, Addr begin, Addr end)
        : wcsu_(wcsu), begin_(begin), end_(end)
    {
    }

    std::uint64_t key(const SpValue &sp) const { return sp.key(); }

    bool
    inRange(Addr pc) const
    {
        return pc >= begin_ && pc < end_ && wcsu_.cfg_.contains(pc);
    }

    Addr
    step(Addr pc, const DecodedInsn &d, SpValue &sp)
    {
        switch (d.op) {
          case Op::kJal: {
            const Addr target = pc + static_cast<Word>(d.imm);
            if (d.rd == RA) {
                // Call: charge the callee below the current sp, then
                // continue balanced (pass 3 verifies the callee
                // preserves sp).
                wcsu_.touch(sp, wcsu_.depthOf(target), depth);
                return pc + 4;
            }
            if (inRange(target))
                return target;
            // Tail jump out of the function: charge the target like a
            // call and stop this path.
            if (wcsu_.cfg_.contains(target))
                wcsu_.touch(sp, wcsu_.depthOf(target), depth);
            return kPathEnd;
          }
          case Op::kJalr:
          case Op::kMret:
          case Op::kInvalid:
            return kPathEnd;
          case Op::kSwitchRf:
            sp = {SpValue::kUnknown, 0};
            return pc + 4;
          default:
            break;
        }
        if (writesRd(d.op) && d.rd == SP) {
            sp.write(pc, d);
            wcsu_.touch(sp, 0, depth);
        }
        return pc + 4;
    }

    unsigned depth = 0;  ///< entry-relative worst depth so far

  private:
    WcsuAnalyzer &wcsu_;
    Addr begin_;
    Addr end_;
};

WcsuAnalyzer::WcsuAnalyzer(const Cfg &cfg)
    : cfg_(cfg), program_(cfg.program()),
      walker_(cfg, diags_, "stack-usage")
{
    for (const auto &[name, addr] : program_.symbols) {
        const bool task_stack =
            name.rfind("k_stack_", 0) == 0 &&
            name.size() >= 4 && name.substr(name.size() - 4) != "_top";
        if (!task_stack && name != "k_isr_stack")
            continue;
        auto top = program_.symbols.find(name + "_top");
        if (top == program_.symbols.end() || top->second <= addr)
            continue;
        regions_.push_back({name, addr, top->second});
    }
}

void
WcsuAnalyzer::run()
{
    for (const auto &[name, range] : program_.functions)
        if (range.second > range.first && cfg_.contains(range.first))
            depthOf(range.first);
}

unsigned
WcsuAnalyzer::entryDepth(const std::string &fn) const
{
    auto it = program_.functions.find(fn);
    if (it == program_.functions.end())
        return 0;
    auto sit = summaries_.find(it->second.first);
    return sit != summaries_.end() ? sit->second.depth : 0;
}

unsigned
WcsuAnalyzer::isrAddOn() const
{
    return entryDepth("k_isr") + unknownExtra_;
}

unsigned
WcsuAnalyzer::depthOf(Addr entry)
{
    auto it = summaries_.find(entry);
    if (it != summaries_.end() && it->second.done)
        return it->second.depth;
    if (!inProgress_.insert(entry).second) {
        // Recursion: the depth is unbounded. Report once per cycle
        // entry and continue with 0 so the rest of the program still
        // gets analyzed (the error already fails the gate).
        Diagnostic d;
        d.severity = Severity::kError;
        d.code = "wcsu-recursion";
        d.pc = entry;
        d.hasPc = true;
        d.function = program_.functionAt(entry);
        d.message = "recursive call cycle: worst-case stack usage "
                    "is unbounded";
        diags_.push_back(std::move(d));
        return 0;
    }

    Addr end = 0;
    const std::string name = program_.functionAt(entry);
    auto fit = program_.functions.find(name);
    if (fit != program_.functions.end()) {
        end = fit->second.second;
    } else {
        const BasicBlock *bb = cfg_.blockContaining(entry);
        end = bb ? bb->end : entry;
    }

    FunctionPolicy policy(*this, entry, end);
    walker_.walk(policy, entry, SpValue{});
    inProgress_.erase(entry);
    summaries_[entry] = {policy.depth, true};
    return policy.depth;
}

void
WcsuAnalyzer::touch(const SpValue &st, std::int64_t extra,
                    unsigned &depth)
{
    switch (st.mode) {
      case SpValue::kEntryRel: {
        const std::int64_t cur = -st.value + extra;
        if (cur > 0)
            depth = std::max(depth, static_cast<unsigned>(cur));
        return;
      }
      case SpValue::kAbsolute:
        for (const StackRegion &r : regions_) {
            if (st.value < static_cast<std::int64_t>(r.base) ||
                st.value > static_cast<std::int64_t>(r.top))
                continue;
            const std::int64_t used =
                static_cast<std::int64_t>(r.top) - st.value + extra;
            if (used > 0) {
                unsigned &u = regionUsage_[r.name];
                u = std::max(u, static_cast<unsigned>(used));
            }
            return;
        }
        return;
      case SpValue::kUnknown: {
        const std::int64_t cur = -st.value + extra;
        if (cur > 0)
            unknownExtra_ =
                std::max(unknownExtra_, static_cast<unsigned>(cur));
        return;
      }
    }
}

void
WcsuAnalyzer::checkOverflow(std::vector<Diagnostic> &out) const
{
    if (!converged()) {
        Diagnostic d;
        d.severity = Severity::kWarning;
        d.code = "wcsu-unanalyzable";
        d.message = "stack-usage walk exhausted its state budget; "
                    "overflow checking skipped";
        out.push_back(std::move(d));
        return;
    }

    // Worst task depth vs the smallest task-stack capacity. Every
    // task must additionally absorb the ISR add-on.
    unsigned worst = 0;
    std::string worstFn;
    for (const auto &[name, range] : program_.functions) {
        if (name.rfind("k_task_", 0) != 0)
            continue;
        const unsigned dep = entryDepth(name);
        if (dep >= worst) {
            worst = dep;
            worstFn = name;
        }
    }
    unsigned minCap = 0;
    std::string minRegion;
    for (const StackRegion &r : regions_) {
        if (r.name == "k_isr_stack")
            continue;
        if (minRegion.empty() || r.capacity() < minCap) {
            minCap = r.capacity();
            minRegion = r.name;
        }
    }
    if (!worstFn.empty() && !minRegion.empty() &&
        worst + isrAddOn() > minCap) {
        Diagnostic d;
        d.severity = Severity::kError;
        d.code = "stack-overflow-risk";
        d.function = worstFn;
        d.message = csprintf(
            "worst-case stack usage %u bytes (task depth %u + isr "
            "add-on %u) exceeds the %u-byte capacity of %s",
            worst + isrAddOn(), worst, isrAddOn(), minCap,
            minRegion.c_str());
        out.push_back(std::move(d));
    }

    for (const StackRegion &r : regions_) {
        auto it = regionUsage_.find(r.name);
        if (it == regionUsage_.end() || it->second <= r.capacity())
            continue;
        Diagnostic d;
        d.severity = Severity::kError;
        d.code = "stack-overflow-risk";
        d.message = csprintf(
            "rebased stack usage %u bytes exceeds the %u-byte "
            "capacity of %s", it->second, r.capacity(),
            r.name.c_str());
        out.push_back(std::move(d));
    }
}

} // namespace rtu

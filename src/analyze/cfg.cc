#include "cfg.hh"

#include <algorithm>

#include "asm/decode.hh"
#include "common/logging.hh"

namespace rtu {

namespace {

/** Classify a control-transfer instruction; kFallThrough if plain. */
TermKind
termKindOf(const DecodedInsn &d)
{
    switch (d.op) {
      case Op::kJal:
        return d.rd == RA ? TermKind::kCall : TermKind::kJump;
      case Op::kJalr:
        return isReturn(d) ? TermKind::kReturn : TermKind::kIndirect;
      case Op::kMret:
        return TermKind::kTrapReturn;
      default:
        if (classOf(d.op) == InsnClass::kBranch)
            return TermKind::kBranch;
        return TermKind::kFallThrough;
    }
}

} // namespace

Cfg::Cfg(const Program &program) : program_(program)
{
    const Addr base = program_.textBase;
    const size_t words = program_.text.size();
    insns_.reserve(words);
    for (size_t i = 0; i < words; ++i)
        insns_.push_back(decode(program_.text[i]));

    // Leaders: text start, function starts, text labels, control-flow
    // targets and every post-control address.
    std::set<Addr> leaders;
    if (words > 0)
        leaders.insert(base);
    for (const auto &[name, range] : program_.functions) {
        if (contains(range.first))
            leaders.insert(range.first);
    }
    for (const auto &[name, addr] : program_.symbols) {
        if (contains(addr))
            leaders.insert(addr);
    }
    for (size_t i = 0; i < words; ++i) {
        const Addr pc = base + 4 * static_cast<Addr>(i);
        const DecodedInsn &d = insns_[i];
        const TermKind term = termKindOf(d);
        if (term == TermKind::kFallThrough)
            continue;
        if (term == TermKind::kBranch || term == TermKind::kJump ||
            term == TermKind::kCall) {
            const Addr target = pc + static_cast<Word>(d.imm);
            if (contains(target))
                leaders.insert(target);
            else
                outOfText_.push_back(pc);
        }
        if (contains(pc + 4))
            leaders.insert(pc + 4);
    }

    // Cut blocks between consecutive leaders and classify terminators.
    for (auto it = leaders.begin(); it != leaders.end(); ++it) {
        BasicBlock bb;
        bb.begin = *it;
        const auto next = std::next(it);
        bb.end = next != leaders.end() ? *next : program_.textEnd();
        rtu_assert(bb.end > bb.begin, "empty basic block at 0x%08x",
                   bb.begin);

        const DecodedInsn &last = insnAt(bb.termPc());
        bb.term = termKindOf(last);
        // A direct transfer out of text has no static successor.
        if (std::binary_search(outOfText_.begin(), outOfText_.end(),
                               bb.termPc())) {
            bb.term = TermKind::kIndirect;
        }
        const bool atTextEnd = bb.end >= program_.textEnd();
        switch (bb.term) {
          case TermKind::kFallThrough:
            if (atTextEnd)
                bb.term = TermKind::kFallOffText;
            else
                bb.succs.push_back(bb.end);
            break;
          case TermKind::kBranch:
            bb.takenTarget = bb.termPc() + static_cast<Word>(last.imm);
            bb.succs.push_back(bb.takenTarget);
            if (atTextEnd)
                bb.term = TermKind::kFallOffText;  // false edge exits
            else
                bb.succs.push_back(bb.end);
            break;
          case TermKind::kJump:
            bb.takenTarget = bb.termPc() + static_cast<Word>(last.imm);
            bb.succs.push_back(bb.takenTarget);
            break;
          case TermKind::kCall:
            bb.takenTarget = bb.termPc() + static_cast<Word>(last.imm);
            if (atTextEnd)
                bb.term = TermKind::kFallOffText;  // nowhere to return
            else
                bb.succs.push_back(bb.end);
            break;
          case TermKind::kReturn:
          case TermKind::kIndirect:
          case TermKind::kTrapReturn:
          case TermKind::kFallOffText:
            break;
        }
        blocks_.emplace(bb.begin, std::move(bb));
    }
}

bool
Cfg::contains(Addr pc) const
{
    return pc >= program_.textBase && pc < program_.textEnd() &&
           (pc - program_.textBase) % 4 == 0;
}

const DecodedInsn &
Cfg::insnAt(Addr pc) const
{
    rtu_assert(contains(pc), "CFG lookup outside text at 0x%08x", pc);
    return insns_[(pc - program_.textBase) / 4];
}

const BasicBlock &
Cfg::blockAt(Addr leader) const
{
    const auto it = blocks_.find(leader);
    rtu_assert(it != blocks_.end(), "no basic block starts at 0x%08x",
               leader);
    return it->second;
}

const BasicBlock *
Cfg::blockContaining(Addr pc) const
{
    if (!contains(pc))
        return nullptr;
    auto it = blocks_.upper_bound(pc);
    rtu_assert(it != blocks_.begin(), "block map misses 0x%08x", pc);
    --it;
    return &it->second;
}

bool
Cfg::hasLoopBound(Addr pc) const
{
    return program_.loopBounds.count(pc) > 0;
}

unsigned
Cfg::loopBound(Addr pc) const
{
    const auto it = program_.loopBounds.find(pc);
    rtu_assert(it != program_.loopBounds.end(),
               "no loop bound at 0x%08x", pc);
    return it->second;
}

std::set<Addr>
Cfg::reachableFrom(Addr entry, bool follow_calls) const
{
    std::set<Addr> seen;
    std::vector<Addr> work;
    const BasicBlock *start = blockContaining(entry);
    if (start == nullptr)
        return seen;
    work.push_back(start->begin);
    while (!work.empty()) {
        const Addr leader = work.back();
        work.pop_back();
        if (!seen.insert(leader).second)
            continue;
        const BasicBlock &bb = blockAt(leader);
        for (Addr succ : bb.succs)
            work.push_back(succ);
        if (follow_calls && bb.term == TermKind::kCall)
            work.push_back(bb.takenTarget);
    }
    return seen;
}

bool
Cfg::isClosedLoop(Addr leader) const
{
    if (blocks_.count(leader) == 0)
        return false;
    for (Addr addr : reachableFrom(leader, /*follow_calls=*/false)) {
        switch (blockAt(addr).term) {
          case TermKind::kReturn:
          case TermKind::kTrapReturn:
          case TermKind::kIndirect:
          case TermKind::kFallOffText:
            return false;
          default:
            break;
        }
    }
    return true;
}

} // namespace rtu

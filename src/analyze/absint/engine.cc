#include "engine.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace rtu {

namespace {

// Caller-saved registers under the kernel convention verified by lint
// pass 2: t0-t2, t3-t6, a0-a7. ra is handled explicitly at calls.
constexpr unsigned kCallerSaved[] = {5, 6, 7, 10, 11, 12, 13, 14,
                                     15, 16, 17, 28, 29, 30, 31};

constexpr unsigned kSpReg = 2;
constexpr unsigned kRaReg = 1;
constexpr unsigned kA0Reg = 10;

/** Outer (memory / entry-state) fixpoint round cap. */
constexpr unsigned kMaxOuterRounds = 24;
/** Round at which memory/entry joins switch to widening. */
constexpr unsigned kWidenRound = 4;
/** Loop-head visits before register widening kicks in. */
constexpr unsigned kWideningDelay = 2;
/** Descending (narrowing) sweeps after the widened fixpoint. */
constexpr unsigned kNarrowSweeps = 2;
/** Block-transfer budget per function fixpoint (safety valve). */
constexpr unsigned kBlockVisitBudget = 20'000;

/** Exact predicate on two concrete words. */
bool
concretePred(Op op, std::int64_t x, std::int64_t y)
{
    const auto a = static_cast<std::uint32_t>(x);
    const auto b = static_cast<std::uint32_t>(y);
    const auto sa = static_cast<std::int32_t>(a);
    const auto sb = static_cast<std::int32_t>(b);
    switch (op) {
      case Op::kBeq: return a == b;
      case Op::kBne: return a != b;
      case Op::kBlt: return sa < sb;
      case Op::kBge: return sa >= sb;
      case Op::kBltu: return a < b;
      case Op::kBgeu: return a >= b;
      default:
        panic("not a branch predicate: %s", opName(op));
    }
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

const RegState *
liveOrNull(const RegState &st)
{
    return st.live ? &st : nullptr;
}

/**
 * Initial memo capacity of an image's value pool: eight slots per text
 * word, rounded down to a power of two. A generated image ends with
 * about one pool entry and at most ~1.2 memo entries per text word, so
 * the tables start at a load of a quarter or less and rarely grow;
 * larger tables cost more to zero and to keep in cache than the
 * shorter probes save.
 */
size_t
poolCapacity(const Program &program)
{
    return std::bit_floor(std::max<size_t>(8 * program.text.size(), 256));
}

} // namespace

// ---- decisions -------------------------------------------------------------

std::optional<bool>
absDecide(Op op, const AbsVal &a, const AbsVal &b)
{
    if (a.isBottom() || b.isBottom())
        return std::nullopt;
    if (a.hasSet && b.hasSet &&
        a.consts.size() * b.consts.size() <= 4 * AbsVal::kMaxConsts) {
        bool sawTrue = false, sawFalse = false;
        for (std::int64_t x : a.consts) {
            for (std::int64_t y : b.consts) {
                (concretePred(op, x, y) ? sawTrue : sawFalse) = true;
                if (sawTrue && sawFalse)
                    return std::nullopt;
            }
        }
        return sawTrue;
    }
    return Interval::decide(op, a.iv, b.iv);
}

// ---- engine ----------------------------------------------------------------

AbsintEngine::AbsintEngine(const Program &program)
    : program_(program), cfg_(program), pool_(poolCapacity(program))
{
    dataBase_ = program.dataBase;
    dataEnd_ = program.dataBase +
               static_cast<Addr>(program.data.size()) * 4;
    buildStackRanges();
    buildDataObjects();
    buildRegions();
    buildLayouts();
    const size_t n = regions_.size();
    entryStates_.resize(n);
    returnValues_.assign(n, ValuePool::kBottom);
    entryStamps_.resize(n);
    returnStamps_.resize(n);
    deps_.resize(n);
    calleeMarks_.resize(n);
    cells_.assign(program.data.size(), kInitial);
    cellStamps_.resize(program.data.size());
    cellMarks_.resize(program.data.size());

    // Root code (boot, trap entry, task bodies) runs with sp inside
    // some generated stack region; see the header's assumption list.
    root_.pool = &pool_;
    root_.live = true;
    root_.v[0] = zero_;
    if (!stackWindow_.isBottom())
        root_.v[kSpReg] = intern(AbsVal::fromInterval(stackWindow_));
}

void
AbsintEngine::buildDataObjects()
{
    std::vector<Addr> starts;
    for (const auto &[name, addr] : program_.symbols)
        if (addr >= dataBase_ && addr < dataEnd_)
            starts.push_back(addr);
    std::sort(starts.begin(), starts.end());
    starts.erase(std::unique(starts.begin(), starts.end()),
                 starts.end());
    for (size_t i = 0; i < starts.size(); ++i) {
        const Addr begin = starts[i];
        const Addr end =
            i + 1 < starts.size() ? starts[i + 1] : dataEnd_;
        dataObjects_.emplace_back(begin, end);
        // One-word objects are scalars: the generators only ever
        // address them through a direct `la` (assumption list).
        if (end - begin <= 4)
            scalarCells_.insert(begin);
    }
    // Kernel-invariant clamp: the ready-priority index scalar stays a
    // valid k_ready_lists index (idle keeps priority 0 occupied, and
    // the runtime oracles check every list access in range), so the
    // select scan's abstract underflow cannot accumulate in the cell
    // and diverge the whole priority domain. List heads are 32-byte
    // nodes, the same generator layout contract that names them.
    const auto prio = program_.symbols.find("k_top_ready_prio");
    if (prio != program_.symbols.end()) {
        std::int64_t maxPrio = 31;
        const auto lists = program_.symbols.find("k_ready_lists");
        if (lists != program_.symbols.end()) {
            const Interval ext = objectExtent(lists->second);
            if (!ext.isBottom())
                maxPrio = (ext.hi + 1 - ext.lo) / 32 - 1;
        }
        invariantCells_[prio->second] = Interval::range(0, maxPrio);
    }
}

Interval
AbsintEngine::objectExtent(Addr a) const
{
    auto it = std::upper_bound(
        dataObjects_.begin(), dataObjects_.end(), a,
        [](Addr v, const std::pair<Addr, Addr> &o) {
            return v < o.first;
        });
    if (it == dataObjects_.begin())
        return Interval::bottom();
    --it;
    if (a >= it->second)
        return Interval::bottom();
    return Interval::range(it->first,
                           static_cast<std::int64_t>(it->second) - 1);
}

void
AbsintEngine::buildStackRanges()
{
    // Stack regions by the generator's naming contract: an array
    // symbol "X" paired with a top-marker symbol "X_top" immediately
    // after it, for X in {k_stack_<i>, k_isr_stack}. Programs without
    // these symbols (unit fixtures) simply have no stack window.
    for (const auto &[name, addr] : program_.symbols) {
        if (name != "k_isr_stack" && !(startsWith(name, "k_stack_") &&
                                       name.find("_top") == std::string::npos))
            continue;
        const auto top = program_.symbols.find(name + "_top");
        if (top == program_.symbols.end() || top->second <= addr)
            continue;
        stackRanges_.emplace_back(addr, top->second);
    }
    std::sort(stackRanges_.begin(), stackRanges_.end());
    for (const auto &[lo, hi] : stackRanges_)
        stackWindow_ = Interval::join(stackWindow_,
                                      Interval::range(lo, hi));
}

void
AbsintEngine::buildRegions()
{
    const Addr textEnd =
        program_.textBase + static_cast<Addr>(program_.text.size()) * 4;
    std::vector<Region> fns;
    for (const auto &[name, range] : program_.functions)
        fns.push_back({name, range.first, range.second, false});
    std::sort(fns.begin(), fns.end(),
              [](const Region &a, const Region &b) {
                  return a.begin < b.begin;
              });
    // Synthesize gap regions so fixture code outside any fnBegin()
    // still gets analyzed (rooted at the gap start).
    Addr cursor = program_.textBase;
    for (const Region &f : fns) {
        if (f.begin > cursor)
            regions_.push_back({"", cursor, f.begin, false});
        regions_.push_back(f);
        cursor = std::max(cursor, f.end);
    }
    if (cursor < textEnd)
        regions_.push_back({"", cursor, textEnd, false});

    for (const auto &[leader, bb] : cfg_.blocks())
        if (bb.term == TermKind::kCall)
            callTargets_.insert(bb.takenTarget);
    // A named region that is never called and is not a generator
    // entry point is dead code: skip it instead of analyzing it from
    // an unconstrained entry, which would poison the shared memory
    // with stores no execution performs. Nameless gap regions (unit
    // fixtures without fnBegin) always stay live.
    const auto entryPoint = [](const std::string &name) {
        return name == "_start" || name == "k_isr" ||
               name == "k_fatal_sync" || startsWith(name, "k_task_");
    };
    // Cross-region jumps (trap dispatch, shared tails) keep their
    // target live even without a call site.
    std::set<Addr> jumpEntries;
    for (const auto &[leader, bb] : cfg_.blocks()) {
        if (bb.term != TermKind::kJump && bb.term != TermKind::kBranch)
            continue;
        const Region *src = regionContaining(leader);
        const Region *dst = regionContaining(bb.takenTarget);
        if (src && dst && src != dst)
            jumpEntries.insert(dst->begin);
    }
    for (Region &r : regions_) {
        r.root = !callTargets_.count(r.begin);
        if (r.root && !r.name.empty() && !entryPoint(r.name) &&
            !jumpEntries.count(r.begin))
            r.analyzed = false;
    }
}

void
AbsintEngine::buildLayouts()
{
    layouts_.resize(regions_.size());
    states_.resize(regions_.size());
    for (size_t r = 0; r < regions_.size(); ++r) {
        const Region &region = regions_[r];
        RegionLayout &layout = layouts_[r];
        std::vector<Addr> leaders;
        for (auto it = cfg_.blocks().lower_bound(region.begin);
             it != cfg_.blocks().end() && it->first < region.end; ++it) {
            leaders.push_back(it->first);
            layout.blocks.push_back(&it->second);
        }
        const auto indexOf = [&](Addr a) {
            const auto it =
                std::lower_bound(leaders.begin(), leaders.end(), a);
            rtu_assert(it != leaders.end() && *it == a,
                       "successor 0x%08x is not a block leader", a);
            return static_cast<unsigned>(it - leaders.begin());
        };
        const size_t n = leaders.size();
        layout.head.assign(n, false);
        layout.inEdges.resize(n);
        layout.edgeBegin.push_back(0);
        for (size_t b = 0; b < n; ++b) {
            const BasicBlock &bb = *layout.blocks[b];
            for (Addr s : bb.succs) {
                if (s <= bb.begin && s >= region.begin)
                    layout.head[indexOf(s)] = true;
                const auto first =
                    layout.edgeAddr.begin() + layout.edgeBegin[b];
                if (std::find(first, layout.edgeAddr.end(), s) !=
                    layout.edgeAddr.end())
                    continue;  // both branch edges reach one block
                const bool inside = s >= region.begin && s < region.end &&
                                    cfg_.blockContaining(s);
                const unsigned to =
                    inside ? indexOf(s) : RegionLayout::kOutside;
                if (inside)
                    layout.inEdges[to].push_back(
                        static_cast<unsigned>(layout.edgeAddr.size()));
                layout.edgeAddr.push_back(s);
                layout.edgeTo.push_back(to);
            }
            layout.edgeBegin.push_back(
                static_cast<unsigned>(layout.edgeAddr.size()));
            blockRefs_[bb.begin] = {static_cast<unsigned>(r),
                                    static_cast<unsigned>(b)};
        }
        RegionStates &states = states_[r];
        states.in.resize(n);
        states.term.resize(n);
        states.edges.resize(layout.edgeAddr.size());
        states.verdicts.resize(n);
    }
}

const AbsintEngine::Region *
AbsintEngine::regionContaining(Addr pc) const
{
    for (const Region &r : regions_)
        if (pc >= r.begin && pc < r.end)
            return &r;
    return nullptr;
}

bool
AbsintEngine::inData(Addr a) const
{
    return a >= dataBase_ && a < dataEnd_;
}

bool
AbsintEngine::inStack(Addr a) const
{
    for (const auto &[lo, hi] : stackRanges_) {
        if (a < lo)
            return false;
        if (a < hi)
            return true;
    }
    return false;
}

void
AbsintEngine::logRead(LogMark &mark, std::vector<std::uint32_t> ReadLog::*ids,
                      std::uint32_t id) const
{
    if (mark.analysis != analysisSerial_) {
        mark.analysis = analysisSerial_;
        (regionLog_->*ids).push_back(id);
    }
    if (mark.transfer != transferSerial_) {
        mark.transfer = transferSerial_;
        (blockLog_->*ids).push_back(id);
    }
}

ValId
AbsintEngine::cellId(Addr addr) const
{
    const Addr a = addr & ~Addr{3};
    if (!inData(a) || inStack(a))
        return ValuePool::kTop;
    for (const auto &[lo, hi] : havocRanges_)
        if (a >= lo && a <= hi)
            return ValuePool::kTop;
    const Addr word = (a - dataBase_) / 4;
    if (blockLog_)
        logRead(cellMarks_[word], &ReadLog::cells, word);
    if (cells_[word] != kInitial)
        return cells_[word];
    return pool_.constant(static_cast<std::int32_t>(program_.data[word]));
}

void
AbsintEngine::joinCell(Addr cell, ValId value)
{
    ValId v = value;
    // Kernel-invariant clamp (assumption list): values outside the
    // documented invariant cannot be committed to the cell at runtime.
    const auto inv = invariantCells_.find(cell);
    if (inv != invariantCells_.end()) {
        v = pool_.refined(v, inv->second);
        if (val(v).isBottom())
            return;
    }
    const ValId cur = cellId(cell);
    ValId next = pool_.join(cur, v);
    if (round_ >= kWidenRound)
        next = pool_.widen(cur, next);
    if (next != cur) {
        const Addr word = (cell - dataBase_) / 4;
        cells_[word] = next;
        cellStamps_[word] = stamp();
        changed_ = true;
    }
}

ValId
AbsintEngine::loadWord(const AbsVal &addr) const
{
    if (addr.isBottom())
        return ValuePool::kBottom;
    if (addr.hasSet) {
        const bool computed = addr.consts.size() > 1;
        ValId acc = ValuePool::kBottom;
        for (std::int64_t c : addr.consts) {
            if (c == 0)
                continue;  // null is never dereferenced (assumption)
            const Addr a = static_cast<Addr>(c);
            if (computed &&
                (!inData(a) || (a & 3) || scalarCells_.count(a))) {
                // Computed pointer sets only address multi-word data
                // objects (assumption list): a scalar, misaligned, or
                // out-of-image member is an index-underflow artifact
                // of the abstraction and cannot be the runtime
                // address -- drop it instead of degrading to top.
                continue;
            }
            if (!inData(a) || inStack(a) || (a & 3)) {
                acc = pool_.join(acc, ValuePool::kTop);
                continue;
            }
            acc = pool_.join(acc, cellId(a));
        }
        return val(acc).isBottom() ? ValuePool::kTop : acc;
    }
    const Interval &iv = addr.iv;
    const Interval data = Interval::range(dataBase_,
                                          static_cast<std::int64_t>(dataEnd_) - 1);
    const Interval m = Interval::meet(iv, data);
    if (m.isBottom())
        return ValuePool::kTop;  // device / csr-mapped read
    if (!(iv.lo >= data.lo && iv.hi <= data.hi))
        return ValuePool::kTop;  // partially outside the data image
    for (const auto &[lo, hi] : stackRanges_)
        if (!(iv.hi < static_cast<std::int64_t>(lo) ||
              iv.lo >= static_cast<std::int64_t>(hi)))
            return ValuePool::kTop;  // may read the stack
    const Addr first = static_cast<Addr>(m.lo) & ~Addr{3};
    const Addr last = static_cast<Addr>(m.hi) & ~Addr{3};
    // A word-multiple congruence on the address skips the cells the
    // access provably cannot touch (e.g. one struct field per array
    // element instead of every word of the array).
    const Addr step = addr.stride > 4 && addr.stride % 4 == 0
                          ? static_cast<Addr>(addr.stride)
                          : 4;
    if ((last - first) / step + 1 > 64)
        return ValuePool::kTop;
    ValId acc = ValuePool::kBottom;
    for (Addr a = first; a <= last; a += step)
        acc = pool_.join(acc, cellId(a));
    return val(acc).isBottom() ? ValuePool::kTop : acc;
}

ValId
AbsintEngine::loadSized(const AbsVal &addr, Op op) const
{
    switch (op) {
      case Op::kLw:
        return loadWord(addr);
      case Op::kLb:
        return intern(AbsVal::fromInterval(Interval::range(-128, 127)));
      case Op::kLbu:
        return intern(AbsVal::fromInterval(Interval::range(0, 255)));
      case Op::kLh:
        return intern(AbsVal::fromInterval(Interval::range(-32768, 32767)));
      case Op::kLhu:
        return intern(AbsVal::fromInterval(Interval::range(0, 65535)));
      default:
        return ValuePool::kTop;
    }
}

void
AbsintEngine::storeWord(const AbsVal &addr, ValId value)
{
    if (addr.isBottom() || val(value).isBottom())
        return;  // unreachable store
    if (addr.hasSet) {
        const bool computed = addr.consts.size() > 1;
        for (std::int64_t c : addr.consts) {
            if (c == 0)
                continue;
            const Addr a = static_cast<Addr>(c);
            if (!inData(a) || inStack(a))
                continue;  // device write or stack summary
            if (computed && scalarCells_.count(a))
                continue;  // underflow artifact (assumption list)
            joinCell(a, value);
        }
        return;
    }
    const Interval &iv = addr.iv;
    // A non-singleton interval address that may point into a stack
    // region is a stack pointer by the engine's environment
    // assumptions; kernel data cells are addressed exactly.
    for (const auto &[lo, hi] : stackRanges_)
        if (!(iv.hi < static_cast<std::int64_t>(lo) ||
              iv.lo >= static_cast<std::int64_t>(hi)))
            return;
    const Interval data = Interval::range(dataBase_,
                                          static_cast<std::int64_t>(dataEnd_) - 1);
    const Interval m = Interval::meet(iv, data);
    if (m.isBottom())
        return;
    std::int64_t lo = m.lo;
    Addr step = 4;
    if (addr.stride > 4 && addr.stride % 4 == 0) {
        // Re-align the clipped bound to the address congruence so the
        // stride walk below starts on a reachable cell.
        step = static_cast<Addr>(addr.stride);
        const std::int64_t off = (iv.lo - lo) % addr.stride;
        lo += (off + addr.stride) % addr.stride;
        if (lo > m.hi)
            return;
    }
    const Addr first = static_cast<Addr>(lo) & ~Addr{3};
    const Addr last = static_cast<Addr>(m.hi) & ~Addr{3};
    if ((last - first) / step + 1 <= 64) {
        for (Addr a = first; a <= last; a += step)
            joinCell(a, value);
        return;
    }
    // Wide unresolved store: havoc the whole range once.
    for (const auto &[lo, hi] : havocRanges_)
        if (first >= lo && last <= hi)
            return;
    havocRanges_.emplace_back(first, last);
    havocStamp_ = stamp();
    changed_ = true;
}

bool
AbsintEngine::joinState(RegState &st, const RegState &o, bool widen)
{
    if (!o.live)
        return false;
    if (!st.live) {
        st = o;
        return true;
    }
    bool changed = false;
    for (unsigned i = 0; i < RegState::kNumSlots; ++i) {
        if (st.v[i] == o.v[i])
            continue;  // join and widen are idempotent
        ValId next = pool_.join(st.v[i], o.v[i]);
        if (widen)
            next = pool_.widen(st.v[i], next);
        if (next != st.v[i]) {
            st.v[i] = next;
            changed = true;
        }
    }
    return changed;
}

ValId
AbsintEngine::address(const RegState &st, const DecodedInsn &d)
{
    return pool_.eval(Op::kAdd, operand(st, d.rs1), pool_.constant(d.imm));
}

void
AbsintEngine::applyInsn(Addr pc, const DecodedInsn &d, RegState &st)
{
    const auto setRd = [&](ValId v) {
        if (d.rd != 0)
            st.v[d.rd] = v;
    };
    constexpr unsigned kMscratch = RegState::kMscratchSlot;
    switch (d.op) {
      case Op::kLui:
        setRd(pool_.constant(static_cast<std::int32_t>(
            static_cast<Word>(d.imm) << 12)));
        return;
      case Op::kAuipc:
        setRd(pool_.constant(static_cast<std::int32_t>(
            pc + (static_cast<Word>(d.imm) << 12))));
        return;
      case Op::kLb: case Op::kLh: case Op::kLw:
      case Op::kLbu: case Op::kLhu: {
        setRd(loadSized(val(address(st, d)), d.op));
        return;
      }
      case Op::kSb: case Op::kSh: case Op::kSw: {
        // Sub-word stores degrade the containing cell.
        storeWord(val(address(st, d)),
                  d.op == Op::kSw ? operand(st, d.rs2) : ValuePool::kTop);
        return;
      }
      case Op::kAddi: case Op::kSlti: case Op::kSltiu:
      case Op::kXori: case Op::kOri: case Op::kAndi:
      case Op::kSlli: case Op::kSrli: case Op::kSrai:
        setRd(pool_.eval(d.op, operand(st, d.rs1), pool_.constant(d.imm)));
        return;
      case Op::kAdd: case Op::kSub: case Op::kSll: case Op::kSlt:
      case Op::kSltu: case Op::kXor: case Op::kSrl: case Op::kSra:
      case Op::kOr: case Op::kAnd:
      case Op::kMul: case Op::kMulh: case Op::kMulhsu: case Op::kMulhu:
      case Op::kDiv: case Op::kDivu: case Op::kRem: case Op::kRemu: {
        const AbsVal &a = val(operand(st, d.rs1));
        const AbsVal &b = val(operand(st, d.rs2));
        ValId r = pool_.eval(d.op, operand(st, d.rs1), operand(st, d.rs2));
        // Indexed addressing stays inside the addressed object
        // (assumption list): when exactly one operand of an `add` is
        // a data-symbol base, clamp the result to that symbol's
        // extent -- interval results are met with the extent, set
        // results have their underflowed members filtered -- so a
        // diverged index cannot alias the neighbouring objects.
        if (d.op == Op::kAdd && !val(r).isBottom()) {
            const AbsVal *base = nullptr;
            if (a.isConst() && !b.isConst() &&
                inData(static_cast<Addr>(a.constValue())))
                base = &a;
            else if (b.isConst() && !a.isConst() &&
                     inData(static_cast<Addr>(b.constValue())))
                base = &b;
            if (base) {
                const Interval ext =
                    objectExtent(static_cast<Addr>(base->constValue()));
                const ValId clamped = ext.isBottom()
                                          ? ValuePool::kBottom
                                          : pool_.refined(r, ext);
                if (!val(clamped).isBottom())
                    r = clamped;
            }
        }
        setRd(r);
        return;
      }
      case Op::kCsrrw: {
        const ValId old =
            d.csr == csr::kMscratch ? st.v[kMscratch] : ValuePool::kTop;
        if (d.csr == csr::kMscratch)
            st.v[kMscratch] = operand(st, d.rs1);
        setRd(old);
        return;
      }
      case Op::kCsrrs: case Op::kCsrrc: {
        const ValId old =
            d.csr == csr::kMscratch ? st.v[kMscratch] : ValuePool::kTop;
        if (d.csr == csr::kMscratch && d.rs1 != 0)
            st.v[kMscratch] = ValuePool::kTop;
        setRd(old);
        return;
      }
      case Op::kCsrrwi: case Op::kCsrrsi: case Op::kCsrrci:
        if (d.csr == csr::kMscratch)
            st.v[kMscratch] = ValuePool::kTop;
        setRd(ValuePool::kTop);
        return;
      case Op::kGetHwSched:
        // Only ids previously inserted into the hardware lists can
        // come back out (assumption list in the header).
        regionLog_->hwListIds = blockLog_->hwListIds = true;
        setRd(hwListIds_);
        return;
      case Op::kSetContextId:
      case Op::kAddReady: {
        regionLog_->hwListIds = blockLog_->hwListIds = true;
        const ValId next = pool_.join(hwListIds_, operand(st, d.rs1));
        if (next != hwListIds_) {
            hwListIds_ = round_ >= kWidenRound
                             ? pool_.widen(hwListIds_, next)
                             : next;
            hwListIdsStamp_ = stamp();
            changed_ = true;
        }
        return;
      }
      case Op::kSemTake: case Op::kSemGive:
        setRd(intern(AbsVal::fromInterval(Interval::range(0, 1))));
        return;
      case Op::kSwitchRf: {
        // The hardware swaps in another task's register file.
        const ValId mscratch = st.v[kMscratch];
        st = root_;
        st.v[kMscratch] = mscratch;
        return;
      }
      case Op::kAddDelay: case Op::kRmTask:
      case Op::kFence: case Op::kEcall: case Op::kEbreak:
      case Op::kWfi: case Op::kMret:
        return;
      default:
        // jal/jalr are block terminators, handled by transferBlock.
        return;
    }
}

void
AbsintEngine::recordCallEntry(Addr target, const RegState &st)
{
    const Region *r = regionContaining(target);
    if (!r || r->begin != target)
        return;  // call into a region interior: no model
    const size_t idx = r - regions_.data();
    if (joinState(entryStates_[idx], st, round_ >= kWidenRound)) {
        entryStamps_[idx] = stamp();
        changed_ = true;
    }
}

void
AbsintEngine::transfer(unsigned region, unsigned block, const RegState &in)
{
    const RegionLayout &layout = layouts_[region];
    const BasicBlock &bb = *layout.blocks[block];
    RegionStates &states = states_[region];
    FnState &f = fn_;
    ++stats_.blockTransfers;
    ++transferSerial_;
    f.transferred[block] = true;
    f.emitted[block] = 0;
    blockLog_ = &f.logs[block];
    blockLog_->restart(seq_);
    RegState &st = f.st;
    st = in;
    const bool bodyIncludesLast = bb.term == TermKind::kFallThrough ||
                                  bb.term == TermKind::kFallOffText;
    const Addr bodyEnd = bodyIncludesLast ? bb.end : bb.termPc();
    for (Addr pc = bb.begin; pc < bodyEnd; pc += 4)
        applyInsn(pc, cfg_.insnAt(pc), st);
    states.term[block] = st;

    // Queue an out-edge state when the successor is inside the
    // region; otherwise it enters another region.
    f.numOuts = 0;
    const auto emit = [&](Addr target, const RegState &out) {
        unsigned e = layout.edgeBegin[block];
        const unsigned last = layout.edgeBegin[block + 1];
        while (e < last && layout.edgeAddr[e] != target)
            ++e;
        rtu_assert(e < last, "edge to 0x%08x is not a CFG successor",
                   target);
        if (layout.edgeTo[e] == RegionLayout::kOutside) {
            recordCallEntry(target, out);
            return;
        }
        f.outs[f.numOuts++] = {e, out};
        f.emitted[block] |= 1u << (e - layout.edgeBegin[block]);
    };

    switch (bb.term) {
      case TermKind::kFallThrough:
        emit(bb.end, st);
        break;
      case TermKind::kBranch: {
        const Addr tpc = bb.termPc();
        const DecodedInsn &d = cfg_.insnAt(tpc);
        std::optional<bool> dec;
        if (d.rs1 != d.rs2)
            dec = absDecide(d.op, val(operand(st, d.rs1)),
                            val(operand(st, d.rs2)));
        if (dec.value_or(true)) {  // taken edge not refuted
            RegState &ts = f.taken;
            ts = st;
            if (d.rs1 != d.rs2) {
                ValId a = operand(ts, d.rs1), b = operand(ts, d.rs2);
                pool_.refineBranch(d.op, true, a, b);
                if (val(a).isBottom() || val(b).isBottom()) {
                    dec = false;
                } else {
                    if (d.rs1 != 0)
                        ts.v[d.rs1] = a;
                    if (d.rs2 != 0)
                        ts.v[d.rs2] = b;
                }
            }
            if (dec.value_or(true))
                emit(bb.takenTarget, ts);
        }
        if (!dec.value_or(false)) {  // fall-through not refuted
            if (d.rs1 != d.rs2) {
                ValId a = operand(st, d.rs1), b = operand(st, d.rs2);
                pool_.refineBranch(d.op, false, a, b);
                if (val(a).isBottom() || val(b).isBottom()) {
                    dec = true;
                } else {
                    if (d.rs1 != 0)
                        st.v[d.rs1] = a;
                    if (d.rs2 != 0)
                        st.v[d.rs2] = b;
                }
            }
            if (!dec.value_or(false))
                emit(bb.end, st);
        }
        // Overwrite, never accumulate: early worklist visits see
        // pre-fixpoint states (a loop's first iterate can "refute"
        // its own exit); only the verdict of the final visit — the
        // converged input — is a fact.
        states.verdicts[block] = !dec   ? Verdict::kOpen
                                 : *dec ? Verdict::kFallRefuted
                                        : Verdict::kTakenRefuted;
        break;
      }
      case TermKind::kJump:
        emit(bb.takenTarget, st);
        break;
      case TermKind::kCall: {
        // The callee entry and the continuation both see ra = the
        // return address; the continuation then loses the
        // caller-saved registers.
        const Addr tpc = bb.termPc();
        st.v[kRaReg] = pool_.constant(tpc + 4);
        recordCallEntry(bb.takenTarget, st);

        for (unsigned r : kCallerSaved)
            st.v[r] = ValuePool::kTop;
        st.v[RegState::kMscratchSlot] = ValuePool::kTop;
        const Region *cr = regionContaining(bb.takenTarget);
        // No recorded `ret` yet means the callee (so far) never
        // returns; the continuation stays unreachable until a
        // later round proves otherwise.
        if (cr) {
            const auto callee =
                static_cast<std::uint32_t>(cr - regions_.data());
            logRead(calleeMarks_[callee], &ReadLog::callees, callee);
            st.v[kA0Reg] = returnValues_[callee];
        } else {
            st.v[kA0Reg] = ValuePool::kBottom;
        }
        if (!val(st.v[kA0Reg]).isBottom())
            emit(bb.end, st);
        break;
      }
      case TermKind::kReturn: {
        // The summary starts from bottom (a default AbsVal is top,
        // which would pin the monotone summary there forever).
        ValId &rv = returnValues_[region];
        const ValId next = pool_.join(rv, operand(st, kA0Reg));
        if (next != rv) {
            rv = round_ >= kWidenRound ? pool_.widen(rv, next) : next;
            returnStamps_[region] = stamp();
            changed_ = true;
        }
        break;
      }
      case TermKind::kTrapReturn:
      case TermKind::kIndirect:
      case TermKind::kFallOffText:
        break;
    }
    blockLog_ = nullptr;
}

void
AbsintEngine::analyzeRegion(unsigned region)
{
    RegionDeps &deps = deps_[region];
    deps.analyzed = true;
    deps.reads.restart(seq_);
    if (!entryStates_[region].live)
        return;
    ++stats_.regionAnalyses;
    ++analysisSerial_;
    regionLog_ = &deps.reads;
    // A copy: a recursive call may widen the live entry mid-analysis.
    const RegState entry = entryStates_[region];
    const RegionLayout &layout = layouts_[region];
    RegionStates &states = states_[region];
    const unsigned n = static_cast<unsigned>(layout.blocks.size());
    rtu_assert(n > 0 && layout.blocks[0]->begin == regions_[region].begin,
               "no basic block starts at 0x%08x", regions_[region].begin);

    FnState &f = fn_;
    if (f.visits.size() < n) {
        f.visits.resize(n);
        f.queued.resize(n);
        f.work.resize(n);
        f.transferred.resize(n);
        f.logs.resize(n);
        f.emitted.resize(n);
    }
    for (unsigned b = 0; b < n; ++b) {
        states.in[b].live = false;
        states.term[b].live = false;
        states.verdicts[b] = Verdict::kOpen;
        f.visits[b] = 0;
        f.queued[b] = false;
        f.transferred[b] = false;
    }
    for (RegState &e : states.edges)
        e.live = false;

    // Phase 1: ascending worklist iteration with widening at heads.
    states.in[0] = entry;
    f.work[0] = 0;
    f.queued[0] = true;
    unsigned front = 0, queued = 1;
    unsigned budget = kBlockVisitBudget;
    while (queued > 0) {
        if (budget-- == 0) {
            converged_ = false;
            break;
        }
        const unsigned b = f.work[front];
        front = (front + 1) % n;
        --queued;
        f.queued[b] = false;
        transfer(region, b, states.in[b]);
        for (unsigned k = 0; k < f.numOuts; ++k) {
            const auto &[e, os] = f.outs[k];
            const unsigned succ = layout.edgeTo[e];
            const bool widen = layout.head[succ] &&
                               ++f.visits[succ] > kWideningDelay;
            if (joinState(states.in[succ], os, widen) && !f.queued[succ]) {
                f.queued[succ] = true;
                f.work[(front + queued++) % n] = succ;
            }
            states.edges[e] = os;
        }
    }

    // Phase 2: bounded descending sweeps (narrowing) recomputing each
    // reachable block's entry from its predecessor edges. A block
    // whose recomputed entry is the input of its last transfer, with
    // nothing that transfer read stamped since, is clean: the transfer
    // would recompute the term state, verdict and edges it left, and
    // joining its global writes again changes nothing. A block still
    // queued when the budget ran out has no such transfer.
    for (unsigned sweep = 0; sweep < kNarrowSweeps; ++sweep) {
        for (unsigned b = 0; b < n; ++b) {
            RegState &newIn = f.narrowed;
            newIn.live = false;
            if (b == 0)
                newIn = entry;
            for (unsigned e : layout.inEdges[b])
                joinState(newIn, states.edges[e], false);
            if (!newIn.live)
                continue;
            const bool clean = f.transferred[b] && !f.queued[b] &&
                               newIn.v == states.in[b].v &&
                               !stale(f.logs[b]);
            // Drop stale edges from this block: all before a transfer
            // re-emits, the ones its last transfer left out on a skip.
            const unsigned keep = clean ? f.emitted[b] : 0;
            for (unsigned e = layout.edgeBegin[b];
                 e < layout.edgeBegin[b + 1]; ++e)
                if (!(keep >> (e - layout.edgeBegin[b]) & 1))
                    states.edges[e].live = false;
            if (clean) {
                ++stats_.sweepSkips;
                continue;
            }
            states.in[b] = newIn;
            transfer(region, b, states.in[b]);
            for (unsigned k = 0; k < f.numOuts; ++k)
                states.edges[f.outs[k].first] = f.outs[k].second;
        }
    }
    regionLog_ = nullptr;
}

bool
AbsintEngine::stale(const ReadLog &log) const
{
    const auto newer = [&](std::uint64_t stamp) {
        return stamp > log.start;
    };
    if (newer(havocStamp_) || (log.hwListIds && newer(hwListIdsStamp_)))
        return true;
    for (std::uint32_t c : log.callees)
        if (newer(returnStamps_[c]))
            return true;
    for (std::uint32_t c : log.cells)
        if (newer(cellStamps_[c]))
            return true;
    return false;
}

bool
AbsintEngine::needsAnalysis(unsigned region) const
{
    const RegionDeps &deps = deps_[region];
    return !deps.analyzed || entryStamps_[region] > deps.reads.start ||
           stale(deps.reads);
}

void
AbsintEngine::run()
{
    converged_ = true;
    for (size_t i = 0; i < regions_.size(); ++i) {
        if (regions_[i].root && regions_[i].analyzed) {
            entryStates_[i] = root_;
            entryStamps_[i] = stamp();
        }
    }

    // Round-robin to the global fixpoint. A region is re-analyzed only
    // when an input it read last time has been written since that
    // analysis started: with identical inputs it would recompute the
    // same effects, and joining those again changes nothing.
    unsigned round = 0;
    for (; round < kMaxOuterRounds; ++round) {
        round_ = round;
        changed_ = false;
        for (unsigned i = 0; i < regions_.size(); ++i)
            if (regions_[i].analyzed && needsAnalysis(i))
                analyzeRegion(i);
        if (!changed_)
            break;
    }
    stats_.rounds = std::min(round + 1, kMaxOuterRounds);

    // The states and verdicts queried after run() are each region's
    // last analysis. At a fixpoint that analysis already saw the
    // converged inputs: the last round wrote nothing, so a region
    // analyzed in it read final values throughout, and a region it
    // skipped had no input written since its last analysis started.
    // Re-running either would reproduce the same states, so only the
    // round-capped run needs a recording pass over the final inputs.
    if (round == kMaxOuterRounds) {
        converged_ = false;
        for (unsigned i = 0; i < regions_.size(); ++i)
            if (regions_[i].analyzed)
                analyzeRegion(i);
    }
    // Branch infeasibility is only trusted from a converged run.
    if (!converged_)
        return;
    for (unsigned r = 0; r < regions_.size(); ++r) {
        const RegionLayout &layout = layouts_[r];
        for (size_t b = 0; b < layout.blocks.size(); ++b) {
            const Verdict v = states_[r].verdicts[b];
            if (v == Verdict::kFallRefuted)
                infeasibleFall_.insert(layout.blocks[b]->termPc());
            else if (v == Verdict::kTakenRefuted)
                infeasibleTaken_.insert(layout.blocks[b]->termPc());
        }
    }
}

const AbsintEngine::BlockRef *
AbsintEngine::blockRef(Addr leader) const
{
    const auto it = blockRefs_.find(leader);
    return it != blockRefs_.end() ? &it->second : nullptr;
}

const RegState *
AbsintEngine::blockEntry(Addr leader) const
{
    const BlockRef *ref = blockRef(leader);
    return ref ? liveOrNull(states_[ref->region].in[ref->block]) : nullptr;
}

const RegState *
AbsintEngine::termState(Addr leader) const
{
    const BlockRef *ref = blockRef(leader);
    return ref ? liveOrNull(states_[ref->region].term[ref->block]) : nullptr;
}

const RegState *
AbsintEngine::edgeState(Addr from, Addr to) const
{
    const BlockRef *ref = blockRef(from);
    if (!ref)
        return nullptr;
    const RegionLayout &layout = layouts_[ref->region];
    for (unsigned e = layout.edgeBegin[ref->block];
         e < layout.edgeBegin[ref->block + 1]; ++e)
        if (layout.edgeAddr[e] == to)
            return liveOrNull(states_[ref->region].edges[e]);
    return nullptr;
}

} // namespace rtu

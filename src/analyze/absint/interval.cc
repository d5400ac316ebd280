#include "interval.hh"

#include <algorithm>
#include <cstdint>

#include "common/logging.hh"

namespace rtu {

namespace {

using U32 = std::uint32_t;
using I64 = std::int64_t;

I64
wrap32(U32 v)
{
    return static_cast<std::int32_t>(v);
}

/**
 * Exact RV32 evaluation for the ops the set-pointwise path handles;
 * nullopt for ops with no single-word concrete model here.
 */
std::optional<I64>
concreteEval(Op op, I64 x, I64 y)
{
    const U32 a = static_cast<U32>(x);
    const U32 b = static_cast<U32>(y);
    switch (op) {
      case Op::kAdd: case Op::kAddi: return wrap32(a + b);
      case Op::kSub: return wrap32(a - b);
      case Op::kAnd: case Op::kAndi: return wrap32(a & b);
      case Op::kOr: case Op::kOri: return wrap32(a | b);
      case Op::kXor: case Op::kXori: return wrap32(a ^ b);
      case Op::kSll: case Op::kSlli: return wrap32(a << (b & 31));
      case Op::kSrl: case Op::kSrli: return wrap32(a >> (b & 31));
      case Op::kDivu:
        return b == 0 ? wrap32(UINT32_MAX) : wrap32(a / b);
      default:
        return std::nullopt;
    }
}

/** Unsigned image of a signed interval when it does not straddle the
 *  sign boundary; nullopt when it does. */
std::optional<std::pair<std::uint64_t, std::uint64_t>>
toUnsigned(const Interval &a)
{
    if (a.lo >= 0)
        return std::pair{static_cast<std::uint64_t>(a.lo),
                         static_cast<std::uint64_t>(a.hi)};
    if (a.hi < 0)
        return std::pair{static_cast<std::uint64_t>(a.lo + (1LL << 32)),
                         static_cast<std::uint64_t>(a.hi + (1LL << 32))};
    return std::nullopt;
}

/** Smallest all-ones mask covering @p v (v >= 0). */
I64
maskAbove(I64 v)
{
    I64 m = 0;
    while (m < v)
        m = (m << 1) | 1;
    return m;
}

I64
gcd64(I64 a, I64 b)
{
    a = a < 0 ? -a : a;
    b = b < 0 ? -b : b;
    while (b != 0) {
        const I64 t = a % b;
        a = b;
        b = t;
    }
    return a;
}

/** Euclidean (always non-negative) remainder. */
I64
posMod(I64 a, I64 m)
{
    const I64 r = a % m;
    return r < 0 ? r + m : r;
}

Op
negatePredicate(Op op)
{
    switch (op) {
      case Op::kBeq: return Op::kBne;
      case Op::kBne: return Op::kBeq;
      case Op::kBlt: return Op::kBge;
      case Op::kBge: return Op::kBlt;
      case Op::kBltu: return Op::kBgeu;
      case Op::kBgeu: return Op::kBltu;
      default:
        panic("not a branch predicate: %s", opName(op));
    }
}

/** The AbsVal of @p n arbitrary values, sorted and deduplicated in
 *  place. */
AbsVal
setOf(I64 *values, size_t n)
{
    std::sort(values, values + n);
    const size_t unique = std::unique(values, values + n) - values;
    return AbsVal::fromSorted(values, unique);
}

/**
 * AbsVal::join with the operands' value gaps supplied by @p gapA and
 * @p gapB, which are called only when the set union overflows.
 */
template <typename GapA, typename GapB>
AbsVal
joinWithGaps(const AbsVal &a, const AbsVal &b, GapA gapA, GapB gapB)
{
    if (a.isBottom())
        return b;
    if (b.isBottom())
        return a;
    if (a.hasSet && b.hasSet) {
        I64 u[2 * AbsVal::kMaxConsts];
        const size_t n =
            std::set_union(a.consts.begin(), a.consts.end(),
                           b.consts.begin(), b.consts.end(), u) - u;
        if (n <= AbsVal::kMaxConsts)
            return AbsVal::fromSorted(u, n);
    }
    // The joined congruence must hold for both operands' values and
    // make their anchors congruent to each other.
    const I64 g = gcd64(gcd64(gapA(), gapB()), a.iv.lo - b.iv.lo);
    return AbsVal::strided(Interval::join(a.iv, b.iv), g, a.iv.lo);
}

/** AbsVal::widen with supplied value gaps, as joinWithGaps. */
template <typename GapA, typename GapB>
AbsVal
widenWithGaps(const AbsVal &prev, const AbsVal &next, GapA gapPrev,
              GapB gapNext)
{
    if (prev.isBottom())
        return next;
    if (next.isBottom())
        return prev;
    // Sets grow monotonically up to kMaxConsts, so unioning here still
    // terminates; past the cap the interval ladder takes over.
    if (prev.hasSet && next.hasSet) {
        AbsVal u = joinWithGaps(prev, next, gapPrev, gapNext);
        if (u.hasSet)
            return u;
    }
    // Strides only shrink under gcd, so this terminates alongside the
    // interval ladder; the inward re-alignment in strided() keeps the
    // result exact for the surviving congruence.
    const I64 g = gcd64(gcd64(gapPrev(), gapNext()), prev.iv.lo - next.iv.lo);
    return AbsVal::strided(Interval::widen(prev.iv, next.iv), g, prev.iv.lo);
}

} // namespace

// ---- Interval --------------------------------------------------------------

Interval
Interval::range(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        return bottom();
    if (lo < kMin || hi > kMax)
        return top();
    return {lo, hi};
}

Interval
Interval::join(const Interval &a, const Interval &b)
{
    if (a.isBottom())
        return b;
    if (b.isBottom())
        return a;
    return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval
Interval::meet(const Interval &a, const Interval &b)
{
    const Interval m{std::max(a.lo, b.lo), std::min(a.hi, b.hi)};
    return m.lo > m.hi ? bottom() : m;
}

Interval
Interval::widen(const Interval &prev, const Interval &next)
{
    if (prev.isBottom())
        return next;
    if (next.isBottom())
        return prev;
    Interval w = prev;
    if (next.lo < prev.lo) {
        w.lo = kMin;
        for (I64 t : {1, 0, -1})
            if (t <= next.lo && t < prev.lo) { w.lo = t; break; }
    }
    if (next.hi > prev.hi) {
        w.hi = kMax;
        for (I64 t : {-1, 0, 1})
            if (t >= next.hi && t > prev.hi) { w.hi = t; break; }
    }
    return w;
}

Interval
Interval::add(const Interval &a, const Interval &b)
{
    if (a.isBottom() || b.isBottom())
        return bottom();
    return range(a.lo + b.lo, a.hi + b.hi);
}

Interval
Interval::sub(const Interval &a, const Interval &b)
{
    if (a.isBottom() || b.isBottom())
        return bottom();
    return range(a.lo - b.hi, a.hi - b.lo);
}

Interval
Interval::shiftLeft(const Interval &a, unsigned k)
{
    if (a.isBottom())
        return bottom();
    const I64 f = I64{1} << (k & 31);
    return range(a.lo * f, a.hi * f);
}

Interval
Interval::shiftRightLogical(const Interval &a, unsigned k)
{
    if (a.isBottom())
        return bottom();
    k &= 31;
    if (k == 0)
        return a;
    if (a.lo >= 0)
        return range(a.lo >> k, a.hi >> k);
    // A negative word shifts to a large non-negative value; all that
    // survives is the output width.
    return range(0, (I64{1} << (32 - k)) - 1);
}

Interval
Interval::bitAnd(const Interval &a, const Interval &b)
{
    if (a.isBottom() || b.isBottom())
        return bottom();
    // Masking with a non-negative value bounds the result by the mask
    // (and by the other operand when it is non-negative too).
    if (a.lo >= 0 && b.lo >= 0)
        return range(0, std::min(a.hi, b.hi));
    if (b.lo >= 0)
        return range(0, b.hi);
    if (a.lo >= 0)
        return range(0, a.hi);
    return top();
}

Interval
Interval::bitOr(const Interval &a, const Interval &b)
{
    if (a.isBottom() || b.isBottom())
        return bottom();
    if (a.lo >= 0 && b.lo >= 0)
        return range(std::max(a.lo, b.lo), maskAbove(std::max(a.hi, b.hi)));
    return top();
}

Interval
Interval::bitXor(const Interval &a, const Interval &b)
{
    if (a.isBottom() || b.isBottom())
        return bottom();
    if (a.lo >= 0 && b.lo >= 0)
        return range(0, maskAbove(std::max(a.hi, b.hi)));
    return top();
}

std::optional<bool>
Interval::decide(Op op, const Interval &a, const Interval &b)
{
    if (a.isBottom() || b.isBottom())
        return std::nullopt;
    switch (op) {
      case Op::kBeq:
        if (a.isConst() && b.isConst() && a.lo == b.lo)
            return true;
        if (meet(a, b).isBottom())
            return false;
        return std::nullopt;
      case Op::kBne: {
        const auto eq = decide(Op::kBeq, a, b);
        return eq ? std::optional<bool>(!*eq) : std::nullopt;
      }
      case Op::kBlt:
        if (a.hi < b.lo)
            return true;
        if (a.lo >= b.hi)
            return false;
        return std::nullopt;
      case Op::kBge: {
        const auto lt = decide(Op::kBlt, a, b);
        return lt ? std::optional<bool>(!*lt) : std::nullopt;
      }
      case Op::kBltu: {
        const auto ua = toUnsigned(a), ub = toUnsigned(b);
        if (!ua || !ub)
            return std::nullopt;
        if (ua->second < ub->first)
            return true;
        if (ua->first >= ub->second)
            return false;
        return std::nullopt;
      }
      case Op::kBgeu: {
        const auto lt = decide(Op::kBltu, a, b);
        return lt ? std::optional<bool>(!*lt) : std::nullopt;
      }
      default:
        panic("not a branch predicate: %s", opName(op));
    }
}

std::string
Interval::str() const
{
    if (isBottom())
        return "[bot]";
    const auto bound = [](I64 v) {
        if (v <= kMin)
            return std::string("-inf");
        if (v >= kMax)
            return std::string("+inf");
        return std::to_string(v);
    };
    std::string s = "[";
    s += bound(lo);
    s += ',';
    s += bound(hi);
    s += ']';
    return s;
}

// ---- ConstSet --------------------------------------------------------------

void
ConstSet::assign(const std::int64_t *values, size_t n)
{
    rtu_assert(n <= kCapacity, "value set of %zu exceeds %zu", n, kCapacity);
    std::copy(values, values + n, members_.begin());
    size_ = static_cast<std::uint32_t>(n);
}

bool
ConstSet::operator==(const ConstSet &o) const
{
    return size_ == o.size_ && std::equal(begin(), end(), o.begin());
}

// ---- AbsVal ----------------------------------------------------------------

AbsVal
AbsVal::bottom()
{
    AbsVal v;
    v.iv = Interval::bottom();
    return v;
}

AbsVal
AbsVal::constant(std::int64_t c)
{
    AbsVal v;
    v.iv = Interval::constant(c);
    v.hasSet = true;
    v.consts.assign(&c, 1);
    return v;
}

AbsVal
AbsVal::fromInterval(const Interval &iv)
{
    AbsVal v;
    v.iv = iv;
    if (iv.isConst()) {
        v.hasSet = true;
        v.consts.assign(&iv.lo, 1);
    }
    return v;
}

AbsVal
AbsVal::fromSet(std::vector<std::int64_t> values)
{
    return setOf(values.data(), values.size());
}

AbsVal
AbsVal::fromSorted(const std::int64_t *values, size_t n)
{
    if (n == 0)
        return bottom();
    AbsVal v;
    v.iv = {values[0], values[n - 1]};
    if (n <= kMaxConsts) {
        v.hasSet = true;
        v.consts.assign(values, n);
    }
    return v;
}

AbsVal
AbsVal::strided(const Interval &iv, std::int64_t stride,
                std::int64_t anchor)
{
    if (iv.isBottom())
        return bottom();
    if (stride <= 1)
        return fromInterval(iv);
    const I64 lo = iv.lo + posMod(anchor - iv.lo, stride);
    const I64 hi = iv.hi - posMod(iv.hi - anchor, stride);
    if (lo > hi)
        return bottom();
    const I64 count = (hi - lo) / stride + 1;
    if (count <= static_cast<I64>(kMaxConsts)) {
        // Few enough congruent values to enumerate exactly: reduce to
        // the value set, which downstream pointer reasoning prefers.
        I64 values[kMaxConsts];
        size_t n = 0;
        for (I64 v = lo; v <= hi; v += stride)
            values[n++] = v;
        return fromSorted(values, n);
    }
    AbsVal v;
    v.iv = {lo, hi};
    v.stride = stride;
    return v;
}

std::int64_t
AbsVal::valueGap() const
{
    if (isConst())
        return 0;
    if (hasSet) {
        I64 g = 0;
        for (size_t i = 1; i < consts.size(); ++i)
            g = gcd64(g, consts[i] - consts[0]);
        return g;
    }
    return stride;
}

bool
AbsVal::operator==(const AbsVal &o) const
{
    return iv == o.iv && hasSet == o.hasSet && consts == o.consts &&
           stride == o.stride;
}

AbsVal
AbsVal::join(const AbsVal &a, const AbsVal &b)
{
    return joinWithGaps(a, b, [&] { return a.valueGap(); },
                        [&] { return b.valueGap(); });
}

AbsVal
AbsVal::widen(const AbsVal &prev, const AbsVal &next)
{
    return widenWithGaps(prev, next, [&] { return prev.valueGap(); },
                         [&] { return next.valueGap(); });
}

AbsVal
AbsVal::refined(const Interval &bounds) const
{
    const Interval m = Interval::meet(iv, bounds);
    if (m.isBottom())
        return bottom();
    if (hasSet) {
        I64 kept[kMaxConsts];
        const size_t n =
            std::copy_if(consts.begin(), consts.end(), kept,
                         [&](I64 c) { return m.contains(c); }) - kept;
        return fromSorted(kept, n);
    }
    return strided(m, stride, iv.lo);
}

AbsVal
AbsVal::without(std::int64_t v) const
{
    if (isBottom())
        return *this;
    if (hasSet) {
        I64 kept[kMaxConsts];
        const size_t n =
            std::remove_copy(consts.begin(), consts.end(), kept, v) - kept;
        return fromSorted(kept, n);
    }
    AbsVal out = *this;
    const I64 step = out.stride > 1 ? out.stride : 1;
    if (out.iv.lo == v)
        out.iv.lo += step;
    if (out.iv.hi == v)
        out.iv.hi -= step;
    if (out.iv.isBottom())
        return bottom();
    return strided(out.iv, out.stride, out.iv.lo);
}

std::string
AbsVal::str() const
{
    if (hasSet) {
        std::string s = "{";
        for (size_t i = 0; i < consts.size(); ++i) {
            if (i)
                s += ',';
            s += std::to_string(consts[i]);
        }
        return s + "}";
    }
    if (stride > 1)
        return iv.str() + "/" + std::to_string(stride);
    return iv.str();
}

// ---- op-level transfer -----------------------------------------------------

AbsVal
absEval(Op op, const AbsVal &a, const AbsVal &b)
{
    if (a.isBottom() || b.isBottom())
        return AbsVal::bottom();

    // Exact set-pointwise evaluation when both operand sets are small.
    if (a.hasSet && b.hasSet &&
        a.consts.size() * b.consts.size() <= 4 * AbsVal::kMaxConsts) {
        I64 results[4 * AbsVal::kMaxConsts];
        size_t n = 0;
        bool exact = true;
        for (std::int64_t x : a.consts) {
            for (std::int64_t y : b.consts) {
                const auto r = concreteEval(op, x, y);
                if (!r) {
                    exact = false;
                    break;
                }
                results[n++] = *r;
            }
            if (!exact)
                break;
        }
        if (exact)
            return setOf(results, n);
    }

    const Interval &x = a.iv;
    const Interval &y = b.iv;
    // Congruence propagation: exact only while the 64-bit bound
    // arithmetic stays inside the 32-bit word (no wraparound), so the
    // anchor value is the concrete image of the operand anchors.
    const auto inWord = [](I64 v) {
        return v >= Interval::kMin && v <= Interval::kMax;
    };
    // A power-of-two congruence divides the word modulus 2^32, so it
    // survives wraparound: ((u + v) mod 2^32) == u + v  (mod g) for
    // any g | 2^32. Only the anchor-exactness argument above needs
    // the no-overflow guard; for these strides we keep the congruence
    // even when the interval bounds degrade.
    const auto pow2 = [](I64 g) { return g > 0 && (g & (g - 1)) == 0; };
    switch (op) {
      case Op::kAdd: case Op::kAddi: {
        const I64 g = gcd64(a.valueGap(), b.valueGap());
        if (g > 1 && inWord(x.lo + y.lo) && inWord(x.hi + y.hi))
            return AbsVal::strided(Interval::add(x, y), g, x.lo + y.lo);
        if (g > 1 && pow2(g))
            return AbsVal::strided(Interval::add(x, y), g,
                                   posMod(x.lo + y.lo, g));
        return AbsVal::fromInterval(Interval::add(x, y));
      }
      case Op::kSub: {
        const I64 g = gcd64(a.valueGap(), b.valueGap());
        if (g > 1 && inWord(x.lo - y.hi) && inWord(x.hi - y.lo))
            return AbsVal::strided(Interval::sub(x, y), g, x.lo - y.hi);
        if (g > 1 && pow2(g))
            return AbsVal::strided(Interval::sub(x, y), g,
                                   posMod(x.lo - y.lo, g));
        return AbsVal::fromInterval(Interval::sub(x, y));
      }
      case Op::kAnd: case Op::kAndi:
        return AbsVal::fromInterval(Interval::bitAnd(x, y));
      case Op::kOr: case Op::kOri:
        return AbsVal::fromInterval(Interval::bitOr(x, y));
      case Op::kXor: case Op::kXori:
        return AbsVal::fromInterval(Interval::bitXor(x, y));
      case Op::kSll: case Op::kSlli:
        if (y.isConst() && y.lo >= 0 && y.lo <= 31) {
            const unsigned k = static_cast<unsigned>(y.lo);
            const Interval s = Interval::shiftLeft(x, k);
            if (inWord(x.lo << k) && inWord(x.hi << k)) {
                const I64 g = std::max<I64>(a.valueGap(), 1) << k;
                return AbsVal::strided(s, g, x.lo << k);
            }
            // Bounds wrapped: magnitude information is gone, but a
            // left shift by k still zeroes the low k bits modulo the
            // word size, so the power-of-two congruence survives.
            return AbsVal::strided(s, I64{1} << k, 0);
        }
        return AbsVal::top();
      case Op::kSrl: case Op::kSrli:
        if (y.isConst() && y.lo >= 0 && y.lo <= 31)
            return AbsVal::fromInterval(
                Interval::shiftRightLogical(x, static_cast<unsigned>(y.lo)));
        return AbsVal::top();
      default:
        return AbsVal::top();
    }
}

void
refineByBranch(Op op, bool taken, AbsVal &a, AbsVal &b)
{
    const Op p = taken ? op : negatePredicate(op);
    switch (p) {
      case Op::kBeq: {
        const Interval m = Interval::meet(a.iv, b.iv);
        AbsVal ra = a.refined(m), rb = b.refined(m);
        if (a.hasSet && b.hasSet) {
            I64 both[AbsVal::kMaxConsts];
            const size_t n =
                std::set_intersection(a.consts.begin(), a.consts.end(),
                                      b.consts.begin(), b.consts.end(),
                                      both) - both;
            ra = rb = AbsVal::fromSorted(both, n);
        }
        a = ra;
        b = rb;
        return;
      }
      case Op::kBne:
        if (b.isConst()) {
            a = a.without(b.constValue());
        } else if (a.isConst()) {
            b = b.without(a.constValue());
        }
        return;
      case Op::kBlt: {
        const AbsVal ra = a.refined(Interval::range(Interval::kMin,
                                                    b.iv.hi - 1));
        const AbsVal rb = b.refined(Interval::range(a.iv.lo + 1,
                                                    Interval::kMax));
        a = ra;
        b = rb;
        return;
      }
      case Op::kBge: {
        const AbsVal ra = a.refined(Interval::range(b.iv.lo, Interval::kMax));
        const AbsVal rb = b.refined(Interval::range(Interval::kMin, a.iv.hi));
        a = ra;
        b = rb;
        return;
      }
      case Op::kBltu:
        // Refine only in the quadrant where unsigned order matches
        // signed order.
        if (a.iv.lo >= 0 && b.iv.lo >= 0) {
            const AbsVal ra = a.refined(Interval::range(Interval::kMin,
                                                        b.iv.hi - 1));
            const AbsVal rb = b.refined(Interval::range(a.iv.lo + 1,
                                                        Interval::kMax));
            a = ra;
            b = rb;
        }
        return;
      case Op::kBgeu:
        if (b.iv.lo >= 0) {
            // a >=u b with b non-negative: either a is negative (huge
            // unsigned) or a >= b.lo; only the non-negative side of a
            // can be tightened.
            if (a.iv.lo >= 0)
                a = a.refined(Interval::range(b.iv.lo, Interval::kMax));
            if (a.iv.lo >= 0 && a.iv.hi <= Interval::kMax)
                b = b.refined(Interval::range(Interval::kMin, a.iv.hi));
        }
        return;
      default:
        panic("not a branch predicate: %s", opName(p));
    }
}

// ---- ValuePool -------------------------------------------------------------

namespace {

/** Word-at-a-time hash of a value's canonical fields. */
std::uint64_t
hashOf(const AbsVal &v)
{
    std::uint64_t h = 0;
    const auto add = [&](std::uint64_t w) {
        h = (((h << 5) | (h >> 59)) ^ w) * 0x9e3779b97f4a7c15ull;
    };
    add(static_cast<std::uint64_t>(v.iv.lo));
    add(static_cast<std::uint64_t>(v.iv.hi));
    add(static_cast<std::uint64_t>(v.stride) << 1 | v.hasSet);
    for (I64 c : v.consts)
        add(static_cast<std::uint64_t>(c));
    h ^= h >> 31;
    return h;
}

/** Slot of @p hash in a power-of-two table of @p size slots. */
size_t
slotOf(std::uint64_t hash, size_t size)
{
    return static_cast<size_t>(hash) & (size - 1);
}

std::uint64_t
pairKey(ValId a, ValId b)
{
    return std::uint64_t{a} << 32 | b;
}

std::uint64_t
memoHash(std::uint64_t key, std::uint32_t tag)
{
    key = (key ^ tag) * 0x9e3779b97f4a7c15ull;
    return key ^ key >> 29;
}

} // namespace

ValuePool::ValuePool(size_t capacity)
    : index_(2 * capacity, kNone), constants_(capacity), joins_(capacity),
      widens_(capacity), evals_(capacity), branches_(capacity)
{
    intern(AbsVal::top());
    intern(AbsVal::bottom());
}

ValId
ValuePool::intern(const AbsVal &v)
{
    const std::uint64_t hash = hashOf(v);
    size_t slot = slotOf(hash, index_.size());
    for (; index_[slot] != kNone; slot = slotOf(slot + 1, index_.size())) {
        const Entry &e = entry(index_[slot]);
        if (e.hash == hash && e.val == v)
            return index_[slot];
    }
    const auto id = static_cast<ValId>(size_);
    if ((size_ & ((1u << kChunkBits) - 1)) == 0)
        chunks_.push_back(std::make_unique<Entry[]>(1u << kChunkBits));
    Entry &e = chunks_.back()[id & ((1u << kChunkBits) - 1)];
    e.val = v;
    e.hash = hash;
    e.gap = v.valueGap();
    index_[slot] = id;
    if (++size_ * 2 > index_.size())
        grow();
    return id;
}

void
ValuePool::grow()
{
    std::vector<ValId> bigger(index_.size() * 2, kNone);
    for (ValId id = 0; id < size_; ++id) {
        size_t slot = slotOf(entry(id).hash, bigger.size());
        while (bigger[slot] != kNone)
            slot = slotOf(slot + 1, bigger.size());
        bigger[slot] = id;
    }
    index_ = std::move(bigger);
}

ValId
ValuePool::constant(std::int64_t c)
{
    const auto key = static_cast<std::uint64_t>(c);
    ValId r = constants_.find(key);
    if (r == kNone) {
        r = intern(AbsVal::constant(c));
        constants_.insert(key, 0, r);
    }
    return r;
}

ValId
ValuePool::join(ValId a, ValId b)
{
    ValId r = joins_.find(pairKey(a, b));
    if (r == kNone) {
        r = intern(joinWithGaps((*this)[a], (*this)[b],
                                [&] { return gap(a); },
                                [&] { return gap(b); }));
        joins_.insert(pairKey(a, b), 0, r);
    }
    return r;
}

ValId
ValuePool::widen(ValId prev, ValId next)
{
    ValId r = widens_.find(pairKey(prev, next));
    if (r == kNone) {
        r = intern(widenWithGaps((*this)[prev], (*this)[next],
                                 [&] { return gap(prev); },
                                 [&] { return gap(next); }));
        widens_.insert(pairKey(prev, next), 0, r);
    }
    return r;
}

ValId
ValuePool::eval(Op op, ValId a, ValId b)
{
    const auto tag = static_cast<std::uint32_t>(op);
    ValId r = evals_.find(pairKey(a, b), tag);
    if (r == kNone) {
        r = intern(absEval(op, (*this)[a], (*this)[b]));
        evals_.insert(pairKey(a, b), tag, r);
    }
    return r;
}

void
ValuePool::refineBranch(Op op, bool taken, ValId &a, ValId &b)
{
    const std::uint64_t key = pairKey(a, b);
    const auto tag = static_cast<std::uint32_t>(op) << 2 | taken << 1;
    ValId ra = branches_.find(key, tag);
    ValId rb;
    if (ra == kNone) {
        AbsVal va = (*this)[a], vb = (*this)[b];
        refineByBranch(op, taken, va, vb);
        ra = intern(va);
        rb = intern(vb);
        branches_.insert(key, tag, ra);
        branches_.insert(key, tag | 1, rb);
    } else {
        rb = branches_.find(key, tag | 1);
    }
    a = ra;
    b = rb;
}

ValId
ValuePool::Memo::find(std::uint64_t key, std::uint32_t tag) const
{
    for (size_t slot = slotOf(memoHash(key, tag), slots_.size());;
         slot = slotOf(slot + 1, slots_.size())) {
        const Slot &s = slots_[slot];
        if (s.result == kNone)
            return kNone;
        if (s.key == key && s.tag == tag)
            return s.result;
    }
}

void
ValuePool::Memo::insert(std::uint64_t key, std::uint32_t tag, ValId result)
{
    if ((used_ + 1) * 2 > slots_.size()) {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        used_ = 0;
        for (const Slot &s : old)
            if (s.result != kNone)
                insert(s.key, s.tag, s.result);
    }
    size_t slot = slotOf(memoHash(key, tag), slots_.size());
    while (slots_[slot].result != kNone)
        slot = slotOf(slot + 1, slots_.size());
    slots_[slot] = {key, tag, result};
    ++used_;
}

} // namespace rtu

/**
 * @file
 * Interval / value-set abstract domain for RV32 words.
 *
 * The domain element (AbsVal) is a signed 32-bit interval tracked in
 * 64-bit arithmetic (so transfer functions never overflow the host
 * type) plus an optional small exact value set. The set member is what
 * keeps pointer analysis useful: joining two distinct TCB addresses as
 * an interval would span every stack array allocated between them,
 * while the set keeps them as two exact cells. Every set member is
 * contained in the interval; when a set would grow past kMaxConsts the
 * value degrades to its interval hull, which is always sound.
 *
 * Interval values additionally carry a congruence (stride): every
 * concrete value is congruent to the interval's low bound modulo the
 * stride (stride 1 = no information). This is a reduced product with
 * Granger's arithmetical congruence domain, and it is what keeps a
 * scaled array index useful after the value set degrades: the address
 * `base + (i << 5)` stays "multiple-of-32 offsets into the array"
 * instead of smearing over every word of it, so an abstract store
 * through it touches one struct field per element instead of all of
 * them. Strides propagate through add/sub (gcd), constant left shifts
 * (scaling), join and widening (gcd with the anchor distance), and
 * refinement (bounds re-aligned inward); every other transfer
 * conservatively drops to stride 1.
 *
 * Widening jumps interval bounds to a small threshold ladder
 * (-1/0/1/min/max) so diverging loop iterates stabilize in a handful
 * of steps; narrowing is performed by the solver as a bounded number
 * of plain descending re-iterations after the widened fixpoint.
 */

#ifndef RTU_ANALYZE_ABSINT_INTERVAL_HH
#define RTU_ANALYZE_ABSINT_INTERVAL_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "asm/insn.hh"

namespace rtu {

/** Signed 32-bit interval; empty (bottom) iff lo > hi. */
struct Interval
{
    static constexpr std::int64_t kMin = INT32_MIN;
    static constexpr std::int64_t kMax = INT32_MAX;

    std::int64_t lo = kMin;
    std::int64_t hi = kMax;

    static Interval top() { return {kMin, kMax}; }
    static Interval bottom() { return {kMax, kMin}; }
    static Interval constant(std::int64_t v) { return {v, v}; }
    /** [lo, hi] clipped to the 32-bit range; empty input stays empty. */
    static Interval range(std::int64_t lo, std::int64_t hi);

    bool isBottom() const { return lo > hi; }
    bool isTop() const { return lo <= kMin && hi >= kMax; }
    bool isConst() const { return lo == hi; }
    bool contains(std::int64_t v) const { return lo <= v && v <= hi; }

    bool operator==(const Interval &o) const = default;

    static Interval join(const Interval &a, const Interval &b);
    static Interval meet(const Interval &a, const Interval &b);
    /** Classic threshold widening of @p next against @p prev. */
    static Interval widen(const Interval &prev, const Interval &next);

    // Transfer functions. All model RV32 semantics: any result bound
    // escaping the 32-bit range means the concrete op may wrap, so the
    // result degrades to top rather than a wrong tight range.
    static Interval add(const Interval &a, const Interval &b);
    static Interval sub(const Interval &a, const Interval &b);
    static Interval shiftLeft(const Interval &a, unsigned k);
    static Interval shiftRightLogical(const Interval &a, unsigned k);
    static Interval bitAnd(const Interval &a, const Interval &b);
    static Interval bitOr(const Interval &a, const Interval &b);
    static Interval bitXor(const Interval &a, const Interval &b);

    /**
     * Three-way comparison under the branch predicate @p op (one of
     * kBeq/kBne/kBlt/kBge/kBltu/kBgeu): returns true/false when every
     * pair in a x b decides the predicate the same way, nullopt when
     * undecided. Bottom operands return nullopt.
     */
    static std::optional<bool> decide(Op op, const Interval &a,
                                      const Interval &b);

    std::string str() const;
};

/**
 * Sorted, duplicate-free set of at most kCapacity words, stored inline.
 * Only the first size() slots are meaningful. The engine keeps every
 * distinct value once in a ValuePool and register slots hold ids, so
 * the width of a set no longer multiplies into the working set.
 */
class ConstSet
{
  public:
    static constexpr size_t kCapacity = 32;

    /** Replace the contents with the @p n (<= kCapacity) sorted,
     *  unique values at @p values. */
    void assign(const std::int64_t *values, size_t n);

    size_t size() const { return size_; }
    const std::int64_t *data() const { return members_.data(); }
    const std::int64_t *begin() const { return data(); }
    const std::int64_t *end() const { return data() + size_; }
    std::int64_t operator[](size_t i) const { return members_[i]; }
    std::int64_t front() const { return members_[0]; }
    std::int64_t back() const { return members_[size_ - 1]; }

    bool operator==(const ConstSet &o) const;

  private:
    std::uint32_t size_ = 0;
    std::array<std::int64_t, kCapacity> members_{};
};

/**
 * Abstract RV32 word: interval plus optional exact value set, plus a
 * congruence stride on the interval.
 * Invariants: hasSet implies consts is non-empty, sorted, unique, and
 * every member is inside iv (the set is the exact concretization, so
 * stride is 1). Without a set, every concrete value is congruent to
 * iv.lo modulo stride, and iv.hi is aligned to that congruence.
 */
struct AbsVal
{
    /** Largest exact set carried before degrading to the interval.
     *  Sized so the pointer sets of a full 8-task kernel (8 TCBs,
     *  8 ready sentinels, delay/event sentinels, null) never degrade:
     *  a degraded store address falls back to the stack-store
     *  assumption and would silently drop kernel-data updates. */
    static constexpr size_t kMaxConsts = ConstSet::kCapacity;

    Interval iv = Interval::top();
    bool hasSet = false;
    ConstSet consts;
    /** Congruence: concrete values are == iv.lo (mod stride). */
    std::int64_t stride = 1;

    static AbsVal top() { return {}; }
    static AbsVal bottom();
    static AbsVal constant(std::int64_t v);
    static AbsVal fromInterval(const Interval &iv);
    static AbsVal fromSet(std::vector<std::int64_t> values);
    /** fromSet over @p n values that are already sorted and unique. */
    static AbsVal fromSorted(const std::int64_t *values, size_t n);
    /** Interval @p iv restricted to values == @p anchor (mod
     *  @p stride); bounds are aligned inward, degenerate results
     *  collapse to constant/bottom. */
    static AbsVal strided(const Interval &iv, std::int64_t stride,
                          std::int64_t anchor);

    bool isBottom() const { return iv.isBottom(); }
    bool isTop() const { return iv.isTop() && !hasSet && stride == 1; }
    bool isConst() const { return iv.isConst(); }
    /** The single value when isConst(). */
    std::int64_t constValue() const { return iv.lo; }
    /** Distance between adjacent concrete values: the stride for
     *  intervals, the gcd of member gaps for sets, 0 for constants
     *  (compatible with any congruence). */
    std::int64_t valueGap() const;

    bool operator==(const AbsVal &o) const;

    static AbsVal join(const AbsVal &a, const AbsVal &b);
    static AbsVal widen(const AbsVal &prev, const AbsVal &next);
    /** Interval-meet refinement (keeps set members inside @p bounds). */
    AbsVal refined(const Interval &bounds) const;
    /** Copy without the set member @p v (used to strip null derefs). */
    AbsVal without(std::int64_t v) const;

    std::string str() const;
};

/**
 * Abstract transfer for a two-operand ALU op (immediates are passed
 * as constant AbsVals). Models the ops the generated kernels use:
 * add/sub, the logic ops, logical shifts, and divu on exact value
 * sets. Every other op returns top, which is sound.
 */
AbsVal absEval(Op op, const AbsVal &a, const AbsVal &b);

/**
 * Refine @p a and @p b under the assumption that branch predicate
 * @p op evaluated to @p taken. Returns refined copies; a refinement
 * to bottom proves the edge infeasible under the current states.
 */
void refineByBranch(Op op, bool taken, AbsVal &a, AbsVal &b);

/** Name of a value in the ValuePool that issued it. */
using ValId = std::uint32_t;

/**
 * Hash-consed store of abstract values: every distinct AbsVal is kept
 * exactly once and named by a 32-bit id, so two ids of one pool are
 * equal iff their values are. Join, widen, constants, absEval and
 * branch refinement are memoized per operand ids, and each entry
 * caches its value gap, so the fixpoint's repeated operations on the
 * same operands cost one table probe. Ids mean nothing outside their
 * pool; each AbsintEngine owns one for its lifetime. Entries never
 * move, so references into the pool stay valid while it grows.
 */
class ValuePool
{
  public:
    /** Pre-interned in every pool; a zero-filled slot array is top. */
    static constexpr ValId kTop = 0;
    static constexpr ValId kBottom = 1;

    /** @p capacity (a power of two) is the initial slot count of
     *  each memo; the value index starts at twice that. Tables double
     *  at load one half, so a size near the final entry count saves
     *  the rehashes and the long probes of a crowded table. */
    explicit ValuePool(size_t capacity = 256);
    ValuePool(const ValuePool &) = delete;
    ValuePool &operator=(const ValuePool &) = delete;

    /** The id of @p v, adding it when new. */
    ValId intern(const AbsVal &v);

    const AbsVal &operator[](ValId id) const { return entry(id).val; }
    /** The cached AbsVal::valueGap() of @p id. */
    std::int64_t gap(ValId id) const { return entry(id).gap; }

    /** AbsVal::constant(@p c). */
    ValId constant(std::int64_t c);
    ValId join(ValId a, ValId b);
    ValId widen(ValId prev, ValId next);
    /** absEval(@p op, a, b). */
    ValId eval(Op op, ValId a, ValId b);
    ValId refined(ValId v, const Interval &bounds)
    {
        return intern((*this)[v].refined(bounds));
    }
    /** refineByBranch(@p op, @p taken) on the ids @p a and @p b. */
    void refineBranch(Op op, bool taken, ValId &a, ValId &b);

  private:
    struct Entry
    {
        AbsVal val;
        std::uint64_t hash = 0;
        std::int64_t gap = 0;
    };
    /** Entries live in fixed-size chunks that never move. */
    static constexpr unsigned kChunkBits = 8;
    static constexpr ValId kNone = ~ValId{0};

    /** Open-addressing map from a (64-bit key, tag) pair to an id. */
    class Memo
    {
      public:
        explicit Memo(size_t capacity) : slots_(capacity) {}
        ValId find(std::uint64_t key, std::uint32_t tag = 0) const;
        void insert(std::uint64_t key, std::uint32_t tag, ValId result);

      private:
        struct Slot
        {
            std::uint64_t key = 0;
            std::uint32_t tag = 0;
            ValId result = kNone;  ///< kNone = empty slot
        };
        std::vector<Slot> slots_;
        size_t used_ = 0;
    };

    const Entry &entry(ValId id) const
    {
        return chunks_[id >> kChunkBits][id & ((1u << kChunkBits) - 1)];
    }
    void grow();

    std::vector<std::unique_ptr<Entry[]>> chunks_;
    size_t size_ = 0;
    /** Hash index over the entries: ids, kNone = empty. */
    std::vector<ValId> index_;
    Memo constants_;
    Memo joins_;
    Memo widens_;
    Memo evals_;     ///< tagged by op
    Memo branches_;  ///< tagged by op, taken and operand side
};

} // namespace rtu

#endif // RTU_ANALYZE_ABSINT_INTERVAL_HH

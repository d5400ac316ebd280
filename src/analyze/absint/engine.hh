/**
 * @file
 * Abstract-interpretation engine over the shared Cfg.
 *
 * Per-function flow-sensitive interval/value-set analysis of the RV32
 * register file, composed with a flow-insensitive abstract data
 * memory: every data-section word is a cell whose abstract value is
 * the join of its image initializer and everything ever stored to it.
 * The engine iterates (register analysis -> recorded stores -> wider
 * memory -> register analysis ...) to a global fixpoint, with
 * threshold widening on both layers so divergent counters stabilize.
 *
 * Interprocedural precision comes from three channels:
 *  - call-site entry joins: a callee's entry state is the join of the
 *    caller states at every discovered call site (root functions --
 *    boot, trap handler, task bodies -- start from an unconstrained
 *    state);
 *  - a0 return-value summaries joined over every `ret` of the callee;
 *  - the verified kernel ABI (lint pass 2): callee-saved registers
 *    and sp survive calls, everything else is clobbered to top.
 *
 * Environment assumptions, each backed by a runtime oracle or a
 * companion lint pass and enforced by the lint gate over the whole
 * generated matrix (see DESIGN.md):
 *  - address 0 is never dereferenced (null members are stripped from
 *    dereferenced pointer sets);
 *  - stores whose address is a non-singleton interval intersecting a
 *    stack region target the stack (kernel data cells are only ever
 *    addressed exactly or through small pointer sets);
 *  - sp at a root entry points into some generated stack region;
 *  - the hardware scheduler only returns task ids previously inserted
 *    via rtu.addready / rtu.setctxid;
 *  - computed (multi-member) pointer sets only address multi-word
 *    data objects (list nodes, TCBs, arrays, stacks). Scalar header
 *    cells -- one-word symbols like k_current_tcb -- are only ever
 *    addressed through a direct `la`; a scalar or out-of-image member
 *    inside a computed set is an index-underflow artifact of the
 *    abstraction (the select scan's prio-below-zero member) and is
 *    dropped at the dereference;
 *  - indexed addressing stays inside the addressed object: the
 *    result of `add base, index` with a symbol-exact base lands in
 *    that symbol's extent (array bounds; the generated scheduler
 *    indexes k_ready_lists and k_task_table only with in-range
 *    priorities/ids, checked by the kernel-invariant runtime oracles);
 *  - the ready-priority scalar k_top_ready_prio holds a small
 *    non-negative index (the idle task keeps priority 0 occupied, so
 *    the select scan never commits an underflowed priority).
 *
 * Functions that are never called and are not generator entry points
 * (_start, the trap handlers, task bodies) are dead code in the
 * image: their regions are skipped entirely rather than analyzed from
 * an unconstrained entry state, which would poison the
 * flow-insensitive memory with stores that cannot execute.
 */

#ifndef RTU_ANALYZE_ABSINT_ENGINE_HH
#define RTU_ANALYZE_ABSINT_ENGINE_HH

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analyze/cfg.hh"
#include "asm/program.hh"
#include "common/types.hh"
#include "interval.hh"

namespace rtu {

/** Register-file state: x0..x31 plus mscratch (the only CSR the
 *  generated kernels use to carry a value). Slots are ids into the
 *  pool of the engine that produced the state, so copying a state is
 *  a memcpy and comparing two slots is comparing two words. */
struct RegState
{
    static constexpr unsigned kNumSlots = 33;
    static constexpr unsigned kMscratchSlot = 32;

    const ValuePool *pool = nullptr;  ///< resolves v; set when live
    bool live = false;  ///< false = unreachable (bottom state)
    std::array<ValId, kNumSlots> v{};  ///< zero-filled = all top

    const AbsVal &reg(unsigned i) const { return (*pool)[v[i]]; }
};

/**
 * Branch decision over full abstract values: set-pointwise when both
 * operands carry small sets (disjoint pointer sets decide equality
 * where the interval hulls cannot), interval decision otherwise.
 */
std::optional<bool> absDecide(Op op, const AbsVal &a, const AbsVal &b);

class AbsintEngine
{
  public:
    explicit AbsintEngine(const Program &program);

    /** Run to fixpoint. Call once; queries below are valid after. */
    void run();

    const Cfg &cfg() const { return cfg_; }
    const Program &program() const { return program_; }

    /** False when a budget/round cap was hit; derived facts are then
     *  discarded by the clients (conservative, never wrong). */
    bool converged() const { return converged_; }

    /** How much work run() did. */
    struct Stats
    {
        unsigned rounds = 0;          ///< outer fixpoint rounds
        unsigned regionAnalyses = 0;  ///< region passes from a live entry
        std::uint64_t blockTransfers = 0;  ///< both phases
        /** Narrowing-sweep transfers skipped as clean (see
         *  analyzeRegion()). */
        std::uint64_t sweepSkips = 0;
    };
    const Stats &stats() const { return stats_; }

    /** A maximal single-entry code region: a declared function, or a
     *  synthesized gap region for code outside any declared one. */
    struct Region
    {
        std::string name;
        Addr begin = 0;
        Addr end = 0;
        bool root = false;      ///< never called: entered unconstrained
        bool analyzed = true;   ///< false: dead code, no states exist
    };
    const std::vector<Region> &regions() const { return regions_; }

    // ---- converged-state queries (loop-bound inference etc.) -------

    /** Register state on entry to the block at @p leader, or nullptr
     *  if the block was never reached. */
    const RegState *blockEntry(Addr leader) const;

    /** State at the block's terminator (operands of a branch). */
    const RegState *termState(Addr leader) const;

    /** Post-refinement state along the edge @p from -> @p to. */
    const RegState *edgeState(Addr from, Addr to) const;

    /** Abstract value of the data cell at word address @p addr. */
    const AbsVal &cellValue(Addr addr) const { return pool_[cellId(addr)]; }

    /** Branch pcs with a statically refuted edge. */
    const std::set<Addr> &infeasibleTaken() const
    {
        return infeasibleTaken_;
    }
    const std::set<Addr> &infeasibleFall() const { return infeasibleFall_; }

    bool inData(Addr a) const;
    bool inStack(Addr a) const;

  private:
    /** A region's blocks, indexed by their position among the
     *  region's leaders (ascending address). */
    struct RegionLayout
    {
        static constexpr unsigned kOutside = ~0u;

        std::vector<const BasicBlock *> blocks;
        /** Targets of intra-region back edges: widening points. */
        std::vector<bool> head;
        /** Block b's out-edges are the slots [edgeBegin[b],
         *  edgeBegin[b + 1]), one per distinct successor address. */
        std::vector<unsigned> edgeBegin;
        std::vector<Addr> edgeAddr;
        /** Target block of each edge slot, or kOutside when the
         *  successor lies outside the region. */
        std::vector<unsigned> edgeTo;
        /** Per block, the edge slots into it by ascending source. */
        std::vector<std::vector<unsigned>> inEdges;
    };

    /**
     * What one region analysis or one block transfer read of the
     * global state. It is redone only when one of these inputs was
     * stamped after @c start (see run() and analyzeRegion()). Each id
     * is logged once (see logRead()).
     */
    struct ReadLog
    {
        std::uint64_t start = 0;  ///< write sequence number at start
        std::vector<std::uint32_t> cells;    ///< data word indices
        std::vector<std::uint32_t> callees;  ///< region indices
        bool hwListIds = false;

        void restart(std::uint64_t seq)
        {
            start = seq;
            cells.clear();
            callees.clear();
            hwListIds = false;
        }
    };

    /** A region's last analysis in the rounds. */
    struct RegionDeps
    {
        bool analyzed = false;
        ReadLog reads;
    };

    /** Serials of the region analysis and of the block transfer that
     *  last logged a cell or callee: a log takes each id once. */
    struct LogMark
    {
        std::uint32_t analysis = 0;
        std::uint32_t transfer = 0;
    };

    /** Branch verdict of a block's last visit in its region's last
     *  analysis. */
    enum class Verdict : std::uint8_t { kOpen, kTakenRefuted, kFallRefuted };

    /**
     * Everything a region's last analysis computed: entry and
     * terminator states by block index, edge states by edge slot, and
     * the branch verdicts. The queries read these directly; a converged
     * run needs no recording pass (see run()).
     */
    struct RegionStates
    {
        std::vector<RegState> in;
        std::vector<RegState> term;
        std::vector<RegState> edges;
        std::vector<Verdict> verdicts;
    };

    /** Intra-region worklist scratch, reused across analyses. */
    struct FnState
    {
        std::vector<unsigned> visits;
        std::vector<bool> queued;
        std::vector<unsigned> work;  ///< FIFO ring, one slot per block
        /** By block, over the current analysis: whether it was
         *  transferred, what its last transfer read, and which of its
         *  edge slots (bit e - edgeBegin) that transfer emitted. */
        std::vector<bool> transferred;
        std::vector<ReadLog> logs;
        std::vector<std::uint8_t> emitted;
        /** The block's in-region out-edges: slot and state. A branch
         *  whose two edges reach one block emits that slot twice. */
        std::array<std::pair<unsigned, RegState>, 2> outs;
        unsigned numOuts = 0;
        RegState st;        ///< block transfer
        RegState taken;     ///< branch taken edge
        RegState narrowed;  ///< phase 2 entry
    };

    /** Where a block leader's states live. */
    struct BlockRef
    {
        unsigned region = 0;
        unsigned block = 0;
    };

    void buildRegions();
    void buildLayouts();
    void buildStackRanges();
    void buildDataObjects();

    /** Extent of the data symbol containing @p a, or bottom. */
    Interval objectExtent(Addr a) const;

    /** True when an input @p log read was stamped after it started. */
    bool stale(const ReadLog &log) const;
    bool needsAnalysis(unsigned region) const;
    void analyzeRegion(unsigned region);
    void transfer(unsigned region, unsigned block, const RegState &in);
    void applyInsn(Addr pc, const DecodedInsn &d, RegState &st);
    /** Join @p o into @p st, widening against the old value when
     *  @p widen; true when @p st changed. */
    bool joinState(RegState &st, const RegState &o, bool widen);
    /** Register operand: x0 reads as zero in every state. */
    ValId operand(const RegState &st, unsigned reg) const
    {
        return reg == 0 ? zero_ : st.v[reg];
    }
    const AbsVal &val(ValId id) const { return pool_[id]; }
    /** Effective address rs1 + imm of the load/store @p d. */
    ValId address(const RegState &st, const DecodedInsn &d);
    ValId intern(const AbsVal &v) const { return pool_.intern(v); }

    /** Add @p id to the region and block logs that lack it. */
    void logRead(LogMark &mark, std::vector<std::uint32_t> ReadLog::*ids,
                 std::uint32_t id) const;
    ValId cellId(Addr addr) const;
    ValId loadWord(const AbsVal &addr) const;
    ValId loadSized(const AbsVal &addr, Op op) const;
    void storeWord(const AbsVal &addr, ValId value);
    void joinCell(Addr cell, ValId value);
    void recordCallEntry(Addr target, const RegState &st);
    /** Bump the write sequence number and return it. */
    std::uint64_t stamp() { return ++seq_; }

    const BlockRef *blockRef(Addr leader) const;
    const Region *regionContaining(Addr pc) const;

    const Program &program_;
    Cfg cfg_;
    /** Every abstract value this engine saw; interning is invisible
     *  to the queries, hence mutable. */
    mutable ValuePool pool_;
    const ValId zero_ = pool_.constant(0);

    Addr dataBase_ = 0;
    Addr dataEnd_ = 0;
    std::vector<std::pair<Addr, Addr>> stackRanges_;
    Interval stackWindow_ = Interval::bottom();
    /** Sorted [begin, end) extents of the named data objects. */
    std::vector<std::pair<Addr, Addr>> dataObjects_;
    /** Cells of one-word symbols: never computed-addressed. */
    std::set<Addr> scalarCells_;
    /** Kernel-invariant value clamps, by cell (assumption list). */
    std::map<Addr, Interval> invariantCells_;

    std::vector<Region> regions_;
    std::vector<RegionLayout> layouts_;
    std::set<Addr> callTargets_;
    std::unordered_map<Addr, BlockRef> blockRefs_;
    FnState fn_;
    std::vector<RegionStates> states_;  ///< by region

    // Outer-fixpoint state. Every global write stamps its target with
    // the next sequence number.
    unsigned round_ = 0;
    bool changed_ = false;
    bool converged_ = false;
    /** By data word index; kInitial = the image initializer. */
    static constexpr ValId kInitial = ~ValId{0};
    std::vector<ValId> cells_;
    std::vector<std::pair<Addr, Addr>> havocRanges_;
    std::vector<RegState> entryStates_;  ///< by region; dead = no entry
    std::vector<ValId> returnValues_;    ///< by region: a0 summary
    ValId hwListIds_ = ValuePool::kBottom;

    std::uint64_t seq_ = 0;
    std::vector<std::uint64_t> cellStamps_;  ///< by data word index
    std::vector<std::uint64_t> entryStamps_;
    std::vector<std::uint64_t> returnStamps_;
    std::uint64_t hwListIdsStamp_ = 0;
    std::uint64_t havocStamp_ = 0;
    std::vector<RegionDeps> deps_;
    /** Read logs of the region analysis and the block transfer in
     *  progress; null outside them (cellValue is also a public
     *  query). Reads happen only inside a transfer. */
    ReadLog *regionLog_ = nullptr;
    ReadLog *blockLog_ = nullptr;
    std::uint32_t analysisSerial_ = 0;
    std::uint32_t transferSerial_ = 0;
    mutable std::vector<LogMark> cellMarks_;    ///< by data word index
    mutable std::vector<LogMark> calleeMarks_;  ///< by region
    Stats stats_;

    RegState root_;  ///< state at an unconstrained root entry
    std::set<Addr> infeasibleTaken_;
    std::set<Addr> infeasibleFall_;
};

} // namespace rtu

#endif // RTU_ANALYZE_ABSINT_ENGINE_HH

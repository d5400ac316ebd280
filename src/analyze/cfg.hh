/**
 * @file
 * Control-flow graph over an assembled Program image.
 *
 * Reconstructed from decode() output: basic blocks split at branch
 * targets, post-control fall-throughs, function starts
 * (Program::functions) and text labels (Program::symbols), with
 * classified terminators (branch / jump / call / return / mret /
 * indirect / fall-through). Shared by the lint passes (src/analyze)
 * and the WCET analyzer (src/wcet), so both rest on one verified edge
 * construction instead of private instruction walks.
 */

#ifndef RTU_ANALYZE_CFG_HH
#define RTU_ANALYZE_CFG_HH

#include <map>
#include <set>
#include <vector>

#include "asm/insn.hh"
#include "asm/program.hh"
#include "common/types.hh"

namespace rtu {

/** How a basic block ends (classification of its last instruction). */
enum class TermKind : std::uint8_t {
    kFallThrough,  ///< next address is a leader; execution falls in
    kBranch,       ///< conditional: taken target + fall-through
    kJump,         ///< jal with rd = zero
    kCall,         ///< jal with rd = ra; continues at pc + 4
    kReturn,       ///< jalr zero, ra, 0
    kIndirect,     ///< any other jalr, or a branch, jal or call whose
                   ///< target lies outside text (no static successor)
    kTrapReturn,   ///< mret
    kFallOffText,  ///< last text word without a terminator
};

/** `ret`, i.e. `jalr zero, ra, 0`. */
inline bool
isReturn(const DecodedInsn &d)
{
    return d.op == Op::kJalr && d.rd == Zero && d.rs1 == RA && d.imm == 0;
}

struct BasicBlock
{
    Addr begin = 0;  ///< first instruction address
    Addr end = 0;    ///< one past the last instruction ([begin, end))
    TermKind term = TermKind::kFallThrough;
    /** Branch/jump/call target (0 when terminator has none). */
    Addr takenTarget = 0;
    /** Successor block leaders (call edges are NOT successors; the
     *  call continuation pc + 4 is). */
    std::vector<Addr> succs;

    /** Address of the terminating instruction. */
    Addr termPc() const { return end - 4; }
};

class Cfg
{
  public:
    explicit Cfg(const Program &program);

    const Program &program() const { return program_; }

    bool contains(Addr pc) const;

    /** Decoded instruction at @p pc; panics outside the text section. */
    const DecodedInsn &insnAt(Addr pc) const;

    /** Block whose leader is exactly @p leader; panics otherwise. */
    const BasicBlock &blockAt(Addr leader) const;

    /** Block containing @p pc, or nullptr when pc is outside text. */
    const BasicBlock *blockContaining(Addr pc) const;

    /** Branches, jumps and calls whose target lies outside text, by
     *  pc in address order; their blocks end in kIndirect. */
    const std::vector<Addr> &outOfTextTransfers() const
    {
        return outOfText_;
    }

    /** All blocks, keyed by leader, in address order. */
    const std::map<Addr, BasicBlock> &blocks() const { return blocks_; }

    /** Max-iteration annotation on the control insn at @p pc. */
    bool hasLoopBound(Addr pc) const;
    unsigned loopBound(Addr pc) const;

    /**
     * Leaders of all blocks reachable from @p entry via successor
     * edges; @p follow_calls additionally descends through call
     * targets (interprocedural reachability).
     */
    std::set<Addr> reachableFrom(Addr entry, bool follow_calls) const;

    /**
     * True if control entering @p leader can never reach a return,
     * trap return, indirect jump or text fall-off: the intentional
     * terminal-loop pattern (idle `wfi; j`, the k_fatal_sync
     * self-loop). Such loops end execution and need no WCET bound.
     */
    bool isClosedLoop(Addr leader) const;

  private:
    const Program &program_;
    std::vector<DecodedInsn> insns_;   ///< one per text word
    std::vector<Addr> outOfText_;
    std::map<Addr, BasicBlock> blocks_;
};

} // namespace rtu

#endif // RTU_ANALYZE_CFG_HH

/**
 * @file
 * Runtime kernel-invariant oracles (the detection half of the fault
 * campaign). One KernelOracle rides a run as a RunObserver and checks,
 * at every trap/mret boundary:
 *
 *  - context integrity: the register context a task resumes with
 *    (x1, x2, x5..x31 + pc) equals what it was switched out with —
 *    exactly the property every S/L/D/O/P mechanism must preserve;
 *  - list structure (software scheduler): ready/delay lists are
 *    well-formed circular doubly-linked lists of known TCBs, with
 *    per-list priority fields, sorted delay wake times, and exclusive
 *    membership; (hardware scheduler): slot arrays hold in-range,
 *    duplicate-free task ids with exclusive ready/delay membership;
 *  - scheduler decision: the resumed task's priority is >= every
 *    ready task's priority (the fixed-priority reference policy);
 *  - stack canaries: a magic word planted at the base of every task
 *    stack and the ISR stack is intact.
 *
 * A clean run must never fire an oracle (CI asserts this across the
 * full configuration matrix); any firing under injection classifies
 * the fault as detected-oracle.
 */

#ifndef RTU_INJECT_ORACLE_HH
#define RTU_INJECT_ORACLE_HH

#include <array>
#include <string>
#include <vector>

#include "common/types.hh"
#include "harness/simulation.hh"
#include "kernel/layout.hh"
#include "rtosunit/config.hh"

namespace rtu {

/** One oracle firing (only the first few keep their detail text). */
struct OracleHit
{
    std::string oracle;  ///< "context", "list", "sched", "canary"
    Cycle cycle = 0;
    unsigned episode = 0;  ///< mret ordinal at detection time
    std::string detail;
};

class KernelOracle : public RunObserver
{
  public:
    /** Magic planted at every stack base. */
    static constexpr Word kCanary = 0x5AFECA7E;

    KernelOracle(Simulation &sim, const RtosUnitConfig &unit);

    /** Plant stack canaries; call before Simulation::run(). */
    void plantCanaries();

    /** End-of-run sweep (canaries + structure); call after run(). */
    void finalCheck();

    void trapTaken(Word cause, Cycle entry_cycle,
                   Word from_task) override;
    void mretCompleted(Cycle cycle, Word to_task) override;

    bool detected() const { return hitCount_ > 0; }
    unsigned hitCount() const { return hitCount_; }
    /** First firings (capped; hitCount() keeps the full tally). */
    const std::vector<OracleHit> &hits() const { return hits_; }
    /** Completed mret episodes observed so far. */
    unsigned episodes() const { return mretCount_; }

  private:
    struct CtxSnapshot
    {
        bool valid = false;
        std::array<Word, 32> regs{};
        Word mepc = 0;
    };

    /** Count a firing; the printf-style detail is formatted only if
     *  the hit is stored (the first kMaxStoredHits). */
    void report(const char *oracle, Cycle cycle, const char *fmt, ...)
        __attribute__((format(printf, 4, 5)));
    Word taskTcb(unsigned id) const;
    Word read(Addr addr) const;

    void checkContext(Cycle cycle, Word to_task);
    void checkStructure(Cycle cycle);
    void checkSoftLists(Cycle cycle);
    void checkHwLists(Cycle cycle);
    void checkCanaries(Cycle cycle);

    Simulation &sim_;
    RtosUnitConfig unit_;

    Addr taskTableAddr_ = 0;
    Addr readyListsAddr_ = 0;
    Addr delaySentinelAddr_ = 0;
    Addr currentTcbAddr_ = 0;
    Addr topReadyPrioAddr_ = 0;
    std::array<Addr, kernel::kMaxTasks> stackBase_{};
    Addr isrStackBase_ = 0;

    std::array<CtxSnapshot, kernel::kMaxTasks> snaps_{};
    unsigned trapCount_ = 0;
    unsigned mretCount_ = 0;
    unsigned hitCount_ = 0;
    std::vector<OracleHit> hits_;
};

} // namespace rtu

#endif // RTU_INJECT_ORACLE_HH

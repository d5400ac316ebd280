/**
 * @file
 * Host-time ledger of the benchmark: spans recorded around calls into
 * the simulator's layers, kept in memory and written out at the end.
 *
 * A span has a name, a start and an end (nanoseconds since the
 * ledger's origin), the span that was open when it began (its parent)
 * and the op it belongs to. Self time is a span's duration minus the
 * durations of its direct children; the benchmark is single-threaded,
 * so children never overlap and the subtraction is exact.
 *
 * A disabled ledger records nothing: Scope then costs one branch, so
 * the untraced runs that give the end-to-end metrics share the code.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock instants. */
inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
    int op = -1;      ///< op id, -1 for pass-level work

    std::int64_t durationNs() const { return endNs - startNs; }
};

class Ledger
{
  public:
    explicit Ledger(bool enabled = false)
        : enabled_(enabled), origin_(Clock::now())
    {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Open spans for the lifetime of the object (nestable). */
    class Scope
    {
      public:
        Scope(Ledger &ledger, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Ledger *ledger_;  ///< null when the ledger is disabled
        int index_ = -1;
    };

    /** Op id stamped on spans opened from now on (-1: pass-level). */
    void setOp(int op) { op_ = op; }

    /** Record a span with explicit times (tests and replay). */
    int add(const char *name, std::int64_t start_ns, std::int64_t end_ns,
            int parent, int op);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of every span, index-aligned with spans(). */
    std::vector<std::int64_t> selfNs() const;

    /** Self time summed per span name. */
    std::map<std::string, std::int64_t> selfNsByName() const;
    /** Duration summed per span name. */
    std::map<std::string, std::int64_t> totalNsByName() const;

    /**
     * Op-level time no span inside the op covers: the summed self
     * time of spans with no parent that belong to an op.
     */
    std::int64_t untracedOpNs() const;
    /** Summed duration of top-level op spans (base of the above). */
    std::int64_t opSpanNs() const;

    /** One JSON object per span, in recording order. */
    void writeJsonl(std::ostream &os, int pass) const;

  private:
    std::int64_t nowNs() const;

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    int open_ = -1;
    int op_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH

/**
 * @file
 * Structured static-analysis diagnostics.
 *
 * Every analysis pass (src/analyze, src/wcet) reports findings as
 * Diagnostic values instead of aborting, so one broken program point
 * produces one machine-readable finding rather than killing the whole
 * lint run. `rtu_lint` serializes them as JSONL (one object per line,
 * reusing the audited escaping in src/common/json).
 */

#ifndef RTU_ANALYZE_DIAG_HH
#define RTU_ANALYZE_DIAG_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace rtu {

class Cfg;

enum class Severity : std::uint8_t {
    kWarning,  ///< suspicious but not soundness-breaking
    kError,    ///< violates a correctness contract; fails the lint gate
};

/** "warning" / "error". */
const char *severityName(Severity severity);

/**
 * One finding, anchored to a program point when there is one.
 * `code` is a stable kebab-case identifier (e.g.
 * "ctx-clobbered-before-save") that tests and CI match on.
 */
struct Diagnostic
{
    Severity severity = Severity::kError;
    std::string code;
    Addr pc = 0;
    bool hasPc = false;
    std::string function;  ///< enclosing function, "" if unknown
    std::string insn;      ///< disassembly at pc, "" if no pc
    std::string message;
};

/**
 * A finding anchored at @p pc of @p cfg's program, with the enclosing
 * function and the disassembly at pc (when pc is in text) filled in.
 * Callers that report a code once per pc deduplicate themselves.
 */
Diagnostic diagAt(const Cfg &cfg, Severity severity, std::string code,
                  Addr pc, std::string message);

/** Human-readable one-liner: "error[code] fn+0x12: message (insn)". */
std::string diagToString(const Diagnostic &d);

/** Version of the diagToJson line format, stamped into the header
 *  line of rtu_lint's --out stream. */
constexpr unsigned kDiagSchema = 1;

/**
 * One JSONL object with the diagnostic's own fields; @p extra is
 * spliced in verbatim (already-escaped "key":"value" pairs giving the
 * run context, e.g. config and workload names). Pass "" for none.
 */
std::string diagToJson(const Diagnostic &d, const std::string &extra = "");

/** Count by severity. */
unsigned countErrors(const std::vector<Diagnostic> &diags);
unsigned countWarnings(const std::vector<Diagnostic> &diags);

/** True if any diagnostic carries @p code. */
bool hasCode(const std::vector<Diagnostic> &diags, const std::string &code);

} // namespace rtu

#endif // RTU_ANALYZE_DIAG_HH

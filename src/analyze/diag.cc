#include "diag.hh"

#include "analyze/cfg.hh"
#include "asm/disasm.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace rtu {

const char *
severityName(Severity severity)
{
    return severity == Severity::kError ? "error" : "warning";
}

Diagnostic
diagAt(const Cfg &cfg, Severity severity, std::string code, Addr pc,
       std::string message)
{
    Diagnostic d;
    d.severity = severity;
    d.code = std::move(code);
    d.pc = pc;
    d.hasPc = true;
    d.function = cfg.program().functionAt(pc);
    if (cfg.contains(pc))
        d.insn = disassemble(cfg.insnAt(pc).raw);
    d.message = std::move(message);
    return d;
}

std::string
diagToString(const Diagnostic &d)
{
    std::string where;
    if (d.hasPc) {
        where = d.function.empty()
                    ? csprintf("0x%08x", d.pc)
                    : csprintf("%s @ 0x%08x", d.function.c_str(), d.pc);
    } else if (!d.function.empty()) {
        where = d.function;
    }
    std::string out = csprintf("%s[%s]", severityName(d.severity),
                               d.code.c_str());
    if (!where.empty())
        out += " " + where;
    out += ": " + d.message;
    if (!d.insn.empty())
        out += "  <" + d.insn + ">";
    return out;
}

std::string
diagToJson(const Diagnostic &d, const std::string &extra)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    out += extra;  // the caller's members, spliced verbatim
    w.str("severity", severityName(d.severity)).str("code", d.code);
    if (d.hasPc)
        w.str("pc", csprintf("0x%08x", d.pc));
    if (!d.function.empty())
        w.str("function", d.function);
    if (!d.insn.empty())
        w.str("insn", d.insn);
    w.str("message", d.message).endObject();
    return out;
}

unsigned
countErrors(const std::vector<Diagnostic> &diags)
{
    unsigned n = 0;
    for (const Diagnostic &d : diags)
        n += d.severity == Severity::kError;
    return n;
}

unsigned
countWarnings(const std::vector<Diagnostic> &diags)
{
    unsigned n = 0;
    for (const Diagnostic &d : diags)
        n += d.severity == Severity::kWarning;
    return n;
}

bool
hasCode(const std::vector<Diagnostic> &diags, const std::string &code)
{
    for (const Diagnostic &d : diags) {
        if (d.code == code)
            return true;
    }
    return false;
}

} // namespace rtu

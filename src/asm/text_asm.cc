#include "text_asm.hh"

#include <map>
#include <sstream>
#include <vector>

#include "common/logging.hh"

namespace rtu {

namespace {

struct Line
{
    unsigned number;
    std::string mnemonic;
    std::vector<std::string> operands;
};

[[noreturn]] void
syntaxError(unsigned line, const std::string &msg)
{
    fatal("text assembly, line %u: %s", line, msg.c_str());
}

std::string
trim(const std::string &s)
{
    const auto a = s.find_first_not_of(" \t\r");
    if (a == std::string::npos)
        return "";
    const auto b = s.find_last_not_of(" \t\r");
    return s.substr(a, b - a + 1);
}

const std::map<std::string, Reg> &
regNames()
{
    static const std::map<std::string, Reg> names = [] {
        std::map<std::string, Reg> m;
        for (unsigned i = 0; i < 32; ++i) {
            m[regName(static_cast<RegIndex>(i))] =
                static_cast<Reg>(i);
            std::string xname = "x";
            xname += std::to_string(i);
            m[xname] = static_cast<Reg>(i);
        }
        m["fp"] = S0;
        return m;
    }();
    return names;
}

Reg
parseReg(const std::string &tok, unsigned line)
{
    auto it = regNames().find(tok);
    if (it == regNames().end())
        syntaxError(line, "unknown register '" + tok + "'");
    return it->second;
}

SWord
parseImm(const std::string &tok, unsigned line)
{
    try {
        size_t pos = 0;
        const long v = std::stol(tok, &pos, 0);  // dec, 0x hex, 0 octal
        if (pos != tok.size())
            syntaxError(line, "bad immediate '" + tok + "'");
        return static_cast<SWord>(v);
    } catch (const std::exception &) {
        syntaxError(line, "bad immediate '" + tok + "'");
    }
}

std::uint16_t
parseCsr(const std::string &tok, unsigned line)
{
    static const std::map<std::string, std::uint16_t> names = {
        {"mstatus", csr::kMstatus}, {"mie", csr::kMie},
        {"mtvec", csr::kMtvec},     {"mscratch", csr::kMscratch},
        {"mepc", csr::kMepc},       {"mcause", csr::kMcause},
        {"mtval", csr::kMtval},     {"mip", csr::kMip},
        {"mcycle", csr::kMcycle},   {"mhartid", csr::kMhartid},
    };
    auto it = names.find(tok);
    if (it != names.end())
        return it->second;
    return static_cast<std::uint16_t>(parseImm(tok, line));
}

/** Split "off(base)" memory operands. */
void
parseMemOperand(const std::string &tok, unsigned line, SWord *off,
                Reg *base)
{
    const auto lp = tok.find('(');
    const auto rp = tok.find(')');
    if (lp == std::string::npos || rp == std::string::npos || rp < lp)
        syntaxError(line, "expected off(base), got '" + tok + "'");
    const std::string off_s = trim(tok.substr(0, lp));
    *off = off_s.empty() ? 0 : parseImm(off_s, line);
    *base = parseReg(trim(tok.substr(lp + 1, rp - lp - 1)), line);
}

Line
tokenize(const std::string &raw, unsigned number)
{
    Line out;
    out.number = number;
    std::string text = raw;
    const auto comment = text.find('#');
    if (comment != std::string::npos)
        text = text.substr(0, comment);
    text = trim(text);
    if (text.empty())
        return out;

    const auto space = text.find_first_of(" \t");
    out.mnemonic = text.substr(0, space);
    if (space != std::string::npos) {
        std::string rest = text.substr(space + 1);
        std::string tok;
        std::stringstream ss(rest);
        while (std::getline(ss, tok, ',')) {
            // Directive operands are whitespace-separated; split those
            // too (instruction operands never contain spaces).
            std::stringstream ws(trim(tok));
            std::string part;
            while (ws >> part)
                out.operands.push_back(part);
        }
    }
    return out;
}

} // namespace

void
assembleText(Assembler &a, const std::string &source)
{
    std::stringstream stream(source);
    std::string raw;
    unsigned number = 0;

    while (std::getline(stream, raw)) {
        ++number;
        // Labels may share a line with an instruction.
        std::string text = raw;
        const auto colon = text.find(':');
        if (colon != std::string::npos &&
            text.find('#') > colon) {
            const std::string name = trim(text.substr(0, colon));
            if (name.empty() || name.find(' ') != std::string::npos)
                syntaxError(number, "bad label '" + name + "'");
            a.label(name);
            text = text.substr(colon + 1);
        }
        const Line ln = tokenize(text, number);
        if (ln.mnemonic.empty())
            continue;
        const auto &ops = ln.operands;
        auto need = [&](size_t n) {
            if (ops.size() != n) {
                syntaxError(ln.number,
                            "'" + ln.mnemonic + "' expects " +
                                std::to_string(n) + " operands, got " +
                                std::to_string(ops.size()));
            }
        };
        auto r = [&](size_t i) { return parseReg(ops[i], ln.number); };
        auto imm = [&](size_t i) { return parseImm(ops[i], ln.number); };

        const std::string &m = ln.mnemonic;

        // Directives.
        if (m == ".word") {
            need(2);
            a.dataWord(ops[0],
                       static_cast<Word>(parseImm(ops[1], ln.number)));
            continue;
        }
        if (m == ".array") {
            need(2);
            a.dataArray(ops[0],
                        static_cast<size_t>(parseImm(ops[1], ln.number)));
            continue;
        }
        if (m == ".loopbound") {
            need(1);
            a.loopBound(static_cast<unsigned>(imm(0)));
            continue;
        }

        // Pseudo-instructions.
        if (m == "nop") { need(0); a.nop(); continue; }
        if (m == "ret") { need(0); a.ret(); continue; }
        if (m == "mv") { need(2); a.mv(r(0), r(1)); continue; }
        if (m == "li") { need(2); a.li(r(0), imm(1)); continue; }
        if (m == "la") { need(2); a.la(r(0), ops[1]); continue; }
        if (m == "j") { need(1); a.j(ops[0]); continue; }
        if (m == "call") { need(1); a.call(ops[0]); continue; }
        if (m == "beqz") { need(2); a.beqz(r(0), ops[1]); continue; }
        if (m == "bnez") { need(2); a.bnez(r(0), ops[1]); continue; }
        if (m == "csrr") {
            need(2);
            a.csrr(r(0), parseCsr(ops[1], ln.number));
            continue;
        }
        if (m == "csrw") {
            need(2);
            a.csrw(parseCsr(ops[0], ln.number), r(1));
            continue;
        }

        // U-type.
        if (m == "lui") { need(2); a.lui(r(0), imm(1)); continue; }
        if (m == "auipc") { need(2); a.auipc(r(0), imm(1)); continue; }

        // Jumps.
        if (m == "jal") {
            if (ops.size() == 1) {
                a.jal(RA, ops[0]);
            } else {
                need(2);
                a.jal(r(0), ops[1]);
            }
            continue;
        }
        if (m == "jalr") {
            need(3);
            a.jalr(r(0), r(1), imm(2));
            continue;
        }

        // Branches.
        {
            using BranchFn = void (Assembler::*)(Reg, Reg,
                                                 const std::string &);
            static const std::map<std::string, BranchFn> branches = {
                {"beq", &Assembler::beq},   {"bne", &Assembler::bne},
                {"blt", &Assembler::blt},   {"bge", &Assembler::bge},
                {"bltu", &Assembler::bltu}, {"bgeu", &Assembler::bgeu},
            };
            auto it = branches.find(m);
            if (it != branches.end()) {
                need(3);
                (a.*(it->second))(r(0), r(1), ops[2]);
                continue;
            }
        }

        // Loads / stores: "op reg, off(base)".
        {
            using MemFn = void (Assembler::*)(Reg, SWord, Reg);
            static const std::map<std::string, MemFn> loads = {
                {"lb", &Assembler::lb},   {"lh", &Assembler::lh},
                {"lw", &Assembler::lw},   {"lbu", &Assembler::lbu},
                {"lhu", &Assembler::lhu}, {"sb", &Assembler::sb},
                {"sh", &Assembler::sh},   {"sw", &Assembler::sw},
            };
            auto it = loads.find(m);
            if (it != loads.end()) {
                need(2);
                SWord off = 0;
                Reg base = Zero;
                parseMemOperand(ops[1], ln.number, &off, &base);
                (a.*(it->second))(r(0), off, base);
                continue;
            }
        }

        // Register-immediate ALU.
        {
            using ImmFn = void (Assembler::*)(Reg, Reg, SWord);
            static const std::map<std::string, ImmFn> immops = {
                {"addi", &Assembler::addi},   {"slti", &Assembler::slti},
                {"sltiu", &Assembler::sltiu}, {"xori", &Assembler::xori},
                {"ori", &Assembler::ori},     {"andi", &Assembler::andi},
                {"slli", &Assembler::slli},   {"srli", &Assembler::srli},
                {"srai", &Assembler::srai},
            };
            auto it = immops.find(m);
            if (it != immops.end()) {
                need(3);
                (a.*(it->second))(r(0), r(1), imm(2));
                continue;
            }
        }

        // Register-register ALU / M extension.
        {
            using RegFn = void (Assembler::*)(Reg, Reg, Reg);
            static const std::map<std::string, RegFn> regops = {
                {"add", &Assembler::add},     {"sub", &Assembler::sub},
                {"sll", &Assembler::sll},     {"slt", &Assembler::slt},
                {"sltu", &Assembler::sltu},   {"xor", &Assembler::xor_},
                {"srl", &Assembler::srl},     {"sra", &Assembler::sra},
                {"or", &Assembler::or_},      {"and", &Assembler::and_},
                {"mul", &Assembler::mul},     {"mulh", &Assembler::mulh},
                {"mulhsu", &Assembler::mulhsu},
                {"mulhu", &Assembler::mulhu}, {"div", &Assembler::div},
                {"divu", &Assembler::divu},   {"rem", &Assembler::rem},
                {"remu", &Assembler::remu},
            };
            auto it = regops.find(m);
            if (it != regops.end()) {
                need(3);
                (a.*(it->second))(r(0), r(1), r(2));
                continue;
            }
        }

        // System.
        if (m == "fence") { need(0); a.fence(); continue; }
        if (m == "ecall") { need(0); a.ecall(); continue; }
        if (m == "ebreak") { need(0); a.ebreak(); continue; }
        if (m == "mret") { need(0); a.mret(); continue; }
        if (m == "wfi") { need(0); a.wfi(); continue; }
        if (m == "csrrw") {
            need(3);
            a.csrrw(r(0), parseCsr(ops[1], ln.number), r(2));
            continue;
        }
        if (m == "csrrs") {
            need(3);
            a.csrrs(r(0), parseCsr(ops[1], ln.number), r(2));
            continue;
        }
        if (m == "csrrc") {
            need(3);
            a.csrrc(r(0), parseCsr(ops[1], ln.number), r(2));
            continue;
        }
        if (m == "csrrwi") {
            need(3);
            a.csrrwi(r(0), parseCsr(ops[1], ln.number),
                     static_cast<Word>(imm(2)));
            continue;
        }
        if (m == "csrrsi") {
            need(3);
            a.csrrsi(r(0), parseCsr(ops[1], ln.number),
                     static_cast<Word>(imm(2)));
            continue;
        }
        if (m == "csrrci") {
            need(3);
            a.csrrci(r(0), parseCsr(ops[1], ln.number),
                     static_cast<Word>(imm(2)));
            continue;
        }

        // RTOSUnit custom instructions (disassembler mnemonics).
        if (m == "rtu.setctx") { need(1); a.rtuSetContextId(r(0)); continue; }
        if (m == "rtu.getsched") { need(1); a.rtuGetHwSched(r(0)); continue; }
        if (m == "rtu.addready") {
            need(2);
            a.rtuAddReady(r(0), r(1));
            continue;
        }
        if (m == "rtu.adddelay") {
            need(2);
            a.rtuAddDelay(r(0), r(1));
            continue;
        }
        if (m == "rtu.rmtask") { need(1); a.rtuRmTask(r(0)); continue; }
        if (m == "rtu.switchrf") { need(0); a.rtuSwitchRf(); continue; }
        if (m == "rtu.semtake") {
            need(2);
            a.rtuSemTake(r(0), r(1));
            continue;
        }
        if (m == "rtu.semgive") {
            need(2);
            a.rtuSemGive(r(0), r(1));
            continue;
        }

        syntaxError(ln.number, "unknown mnemonic '" + m + "'");
    }
}

Program
assembleProgram(const std::string &source, Addr text_base,
                Addr data_base)
{
    Assembler a(text_base, data_base);
    assembleText(a, source);
    return a.finish();
}

} // namespace rtu

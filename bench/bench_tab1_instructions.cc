/**
 * Table 1 reproduction: the custom-instruction overview, printed from
 * the live instruction definitions (encodings included, which the
 * paper's table omits).
 *
 * Usage: bench_tab1_instructions [--out table.jsonl]
 *
 * --out emits one schema-stamped header line followed by one JSONL
 * record per instruction (name, description, requirement, encoding).
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "asm/disasm.hh"
#include "asm/encode.hh"
#include "common/argparse.hh"
#include "common/json.hh"
#include "common/logging.hh"

int
main(int argc, char **argv)
{
    using namespace rtu;

    std::string out_path;
    ArgParser parser("Table 1: the RTOSUnit custom-instruction "
                     "overview with live encodings");
    parser.addString("--out", &out_path, "JSONL output path");
    parser.parse(argc, argv);

    struct Row
    {
        Op op;
        const char *name;
        const char *desc;
        const char *requiredFor;
        bool extension;
    };
    const Row rows[] = {
        {Op::kAddReady, "ADD_READY", "Insert task into ready list",
         "HW scheduling", false},
        {Op::kAddDelay, "ADD_DELAY", "Insert task into delay list",
         "HW scheduling", false},
        {Op::kRmTask, "RM_TASK", "Remove task from HW lists",
         "HW scheduling", false},
        {Op::kSetContextId, "SET_CONTEXT_ID", "Set the next task",
         "w/o HW scheduling", false},
        {Op::kGetHwSched, "GET_HW_SCHED", "Get next task from HW",
         "HW scheduling", false},
        {Op::kSwitchRf, "SWITCH_RF", "Switch back to the APP RF",
         "Context storing w/o loading", false},
        {Op::kSemTake, "SEM_TAKE", "Acquire hardware semaphore",
         "+HS extension", true},
        {Op::kSemGive, "SEM_GIVE", "Release hardware semaphore",
         "+HS extension", true},
    };

    std::printf("Table 1: Overview of the proposed custom "
                "instructions (custom-0 opcode space)\n\n");
    std::printf("%-16s %-34s %-28s %-10s\n", "Instruction",
                "Description", "Required for", "Encoding");
    std::printf("%.104s\n",
                "-----------------------------------------------------"
                "-----------------------------------------------------");
    bool ext_banner = false;
    for (const Row &r : rows) {
        if (r.extension && !ext_banner) {
            std::printf("\nExtension (paper Section 7 future work, "
                        "implemented here):\n");
            ext_banner = true;
        }
        const Word enc = encode(r.op, A0, A1, A2, 0);
        std::printf("%-16s %-34s %-28s 0x%08x\n", r.name, r.desc,
                    r.requiredFor, enc);
    }

    if (!out_path.empty()) {
        std::ofstream os = openFlagFile(out_path, "--out");
        writeSchemaHeader(os, "tab1_instructions", 1);
        for (const Row &r : rows) {
            const Word enc = encode(r.op, A0, A1, A2, 0);
            std::string line;
            JsonWriter(line).beginObject()
                .str("name", r.name)
                .str("description", r.desc)
                .str("required_for", r.requiredFor)
                .boolean("extension", r.extension)
                .num("encoding", enc).endObject();
            os << line << '\n';
        }
        std::printf("\nresults: %s\n", out_path.c_str());
    }
    return 0;
}

/**
 * @file
 * Partition explorer: dump the task partition a heuristic produces
 * for any bundled workload.
 *
 *   ./partition_explorer [workload] [bb|cf|dd] [N]
 *
 * N, the per-task target limit, is in [1, 64]. A bad argument prints
 * usage and exits 1.
 *
 * Prints every task with its blocks, exposed targets, create mask and
 * safe forward points — the compiler's entire hand-off to the
 * Multiscalar hardware.
 */

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/printer.h"
#include "pipeline/session.h"
#include "report/flags.h"
#include "report/record.h"
#include "workloads/workload.h"

using namespace msc;

namespace {

const char *
kindName(tasksel::TargetKind k)
{
    return k == tasksel::TargetKind::Return ? "return" : "block";
}

std::string
maskToString(cfg::RegSet m)
{
    std::string s;
    for (unsigned r = 0; r < ir::NUM_REGS; ++r) {
        if (m & cfg::regBit(ir::RegId(r))) {
            if (!s.empty())
                s += ",";
            s += ir::regName(ir::RegId(r));
        }
    }
    return s.empty() ? "-" : s;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string name = "compress";
    tasksel::Strategy strategy = tasksel::Strategy::DataDependence;
    unsigned n = 4;

    std::vector<std::string> pos;
    bool help = false;
    report::FlagSet f("partition_explorer",
                      "defaults: compress dd 4; N is the target limit "
                      "in [1, 64]");
    f.positionals(&pos, "[workload] [bb|cf|dd] [N]");
    f.flag("--help", &help, "print this help");
    try {
        f.parse(argc - 1, argv + 1);
        if (pos.size() > 3)
            throw std::invalid_argument("unexpected argument " + pos[3]);
        if (pos.size() > 0)
            name = pos[0];
        if (pos.size() > 1)
            strategy = report::strategyFromId(pos[1]);
        if (pos.size() > 2)
            n = report::parseUnsigned<unsigned>("N", pos[2], 64);
        if (n == 0)
            throw std::invalid_argument("N must be in [1, 64]");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\nusage: %s", e.what(),
                     f.usage().c_str());
        return 1;
    }
    if (help) {
        std::printf("usage: %s", f.usage().c_str());
        return 0;
    }

    tasksel::SelectionOptions sel;
    sel.strategy = strategy;
    sel.maxTargets = n;
    pipeline::StageOptions o = pipeline::StageOptions::fromSelection(sel);

    // select() stops after the frontend: no trace, no timing model.
    ir::Program input;
    try {
        input = workloads::buildWorkload(name, workloads::Scale::Small);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    pipeline::Session session(std::move(input));
    auto part = session.select(o);
    const tasksel::TaskPartition &partition = part->partition;
    const ir::Program &p = *part->transformed->prog;

    std::printf("workload %s (%s tasks, N=%u): %zu functions, "
                "%zu static insts, %zu tasks\n\n",
                name.c_str(), tasksel::strategyName(sel.strategy), n,
                p.functions.size(), p.numInsts(), partition.size());

    for (const auto &t : partition.tasks) {
        const ir::Function &f = p.functions[t.func];
        std::printf("task %-3u @%s entry bb%-3u (%u insts)\n", t.id,
                    f.name.c_str(), t.entry, t.staticInsts);
        std::printf("  blocks:");
        for (ir::BlockId b : t.blocks)
            std::printf(" bb%u", b);
        std::printf("\n  targets:");
        for (const auto &tg : t.targets) {
            if (tg.kind == tasksel::TargetKind::Return) {
                std::printf(" [return]");
            } else {
                std::printf(" [@%s bb%u]",
                            p.functions[tg.block.func].name.c_str(),
                            tg.block.block);
            }
            (void)kindName(tg.kind);
        }
        std::printf("\n  create mask: %s\n",
                    maskToString(t.createMask).c_str());
        // Safe forward points.
        for (ir::BlockId b : t.blocks) {
            const auto &bb = f.blocks[b];
            for (size_t i = 0; i < bb.insts.size(); ++i) {
                cfg::RegSet fwd = partition.fwdSafe[t.func][b][i];
                if (fwd) {
                    std::printf("  forward at bb%u[%zu] %-24s -> %s\n",
                                b, i,
                                ir::toString(bb.insts[i]).c_str(),
                                maskToString(fwd).c_str());
                }
            }
        }
    }

    if (!partition.includedCalls.empty()) {
        std::printf("\nincluded calls:");
        for (const auto &c : partition.includedCalls)
            std::printf(" @%s/bb%u", p.functions[c.func].name.c_str(),
                        c.block);
        std::printf("\n");
    }
    return 0;
}

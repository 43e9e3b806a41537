// fault_tool — inject ONE fault into one workload run and show exactly
// what happened: where the perturbation landed, what the oracle decided,
// and the golden-vs-faulted deltas. The single-fault companion to the
// bench/fault_campaign sweep.
//
//   fault_tool --list-points
//   fault_tool --workload crc32 --point srf-spatial-write --trigger 5000
//   fault_tool --workload treeadd --point lmsm-load --mode stuck-at --xor 0x40
//   fault_tool --workload dijkstra --point keybuffer-fill --random 42
//
// --trigger and --random take decimal counts, --xor a hex mask with a
// 0x prefix (an unprefixed "--xor 64" is refused rather than read as
// decimal or hex); anything else, signs and trailing junk included,
// exits 2.
#include <iostream>
#include <string>

#include "common/error.hpp"
#include "exec/cli.hpp"
#include "fault/campaign.hpp"
#include "workloads/workload.hpp"

#include "compiler/driver.hpp"

using namespace hwst;

namespace {

struct Options {
    std::string workload = "crc32";
    compiler::Scheme scheme = compiler::Scheme::Hwst128Tchk;
    sim::Probe point = sim::Probe::SrfSpatialWrite;
    fault::FaultMode mode = fault::FaultMode::OneShot;
    common::u64 trigger = 1;
    common::u64 xor_mask = 1;
    bool random = false;
    common::u64 random_seed = 0;
    bool list_points = false;
};

compiler::Scheme parse_scheme(const std::string& name)
{
    for (const compiler::Scheme s : compiler::kAllSchemes)
        if (compiler::scheme_name(s) == name) return s;
    throw common::ToolchainError{"unknown scheme: " + name};
}

sim::Probe parse_point(const std::string& name)
{
    for (const sim::Probe p : fault::all_probes())
        if (sim::probe_name(p) == name) return p;
    throw common::ToolchainError{"unknown injection point: " + name +
                                 " (see --list-points)"};
}

Options parse(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto need = [&](const char* what) -> std::string {
            if (i + 1 >= argc)
                throw common::ToolchainError{std::string{what} +
                                             " needs an argument"};
            return argv[++i];
        };
        if (a == "--workload") o.workload = need("--workload");
        else if (a == "--scheme") o.scheme = parse_scheme(need("--scheme"));
        else if (a == "--point") o.point = parse_point(need("--point"));
        else if (a == "--mode")
            o.mode = fault::fault_mode_from_name(need("--mode"));
        else if (a == "--trigger")
            o.trigger = exec::count_flag(a, need("--trigger"));
        else if (a == "--xor")
            o.xor_mask =
                exec::count_flag(a, need("--xor"), 0, ~common::u64{0}, 16);
        else if (a == "--random") {
            o.random = true;
            o.random_seed = exec::count_flag(a, need("--random"));
        } else if (a == "--list-points") o.list_points = true;
        else throw common::ToolchainError{"unknown flag: " + a};
    }
    return o;
}

void print_run(const char* tag, const sim::RunResult& r)
{
    std::cout << tag << ": ";
    if (r.ok()) std::cout << "exit " << r.exit_code;
    else
        std::cout << "trap " << trap_name(r.trap.kind) << " at pc=0x"
                  << std::hex << r.trap.pc << " addr=0x" << r.trap.addr
                  << std::dec;
    std::cout << ", " << r.instret << " instructions, "
              << r.output.size() << " outputs\n";
}

} // namespace

int main(int argc, char** argv)
{
    try {
        const Options o = parse(argc, argv);
        if (o.list_points) {
            for (const sim::Probe p : fault::all_probes()) {
                std::cout << sim::probe_name(p)
                          << (fault::metadata_protected(p)
                                  ? "  (metadata-protected)\n"
                                  : "  (unprotected: ECC domain)\n");
            }
            return 0;
        }

        const auto& wl = workloads::workload(o.workload);
        const auto cp = compiler::compile(wl.build(), o.scheme);

        sim::Machine golden_machine{cp.program, cp.machine_config};
        const sim::RunResult golden = golden_machine.run();

        fault::FaultSpec spec{o.point, o.mode, o.trigger, o.xor_mask};
        if (o.random) {
            common::Xoshiro256 rng{o.random_seed};
            spec = fault::FaultPlan::random_spec(o.point, golden.instret, rng,
                                                 o.mode);
        }
        std::cout << "injecting: " << spec.describe() << "  ("
                  << o.workload << ", "
                  << compiler::scheme_name(o.scheme) << ")\n";

        fault::Injector injector{fault::FaultPlan{{spec}}};
        sim::MachineConfig faulted_cfg = cp.machine_config;
        faulted_cfg.fuel = golden.instret * 4 + 100'000;
        sim::Machine machine{cp.program, faulted_cfg};
        injector.attach(machine);
        const sim::RunResult faulted = machine.run();

        print_run("golden ", golden);
        print_run("faulted", faulted);

        const fault::Outcome outcome =
            fault::classify(golden, faulted, injector);
        std::cout << "verdict: " << fault::verdict_name(outcome.verdict);
        if (outcome.fired) {
            std::cout << "  (fired " << injector.fires() << "x, first at #"
                      << outcome.injected_at;
            if (outcome.verdict == fault::Verdict::Detected)
                std::cout << ", detection latency "
                          << outcome.detection_latency() << " instructions";
            std::cout << ')';
        } else {
            std::cout << "  (fault never fired: datapath not exercised "
                         "after trigger)";
        }
        std::cout << '\n';
        for (const fault::FireRecord& f : injector.log()) {
            std::cout << "  #" << f.instret << ' ' << sim::probe_name(f.point)
                      << std::hex << " 0x" << f.before << " -> 0x" << f.after
                      << std::dec << '\n';
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "fault_tool: " << e.what() << '\n';
        return 2;
    }
}

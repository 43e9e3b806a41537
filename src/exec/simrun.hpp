// Cancellable Machine execution: the engine's bridge into src/sim. A
// job must be able to give up when its wall-clock budget expires, but
// sim::Machine::run() runs to completion — so run_machine steps the
// machine in chunks and polls the CancelToken between them, throwing
// JobTimeout when it expires (graceful: the Machine is simply dropped,
// nothing blocks). The chunked loop reproduces Machine::run() exactly —
// same fuel rule, same trap handling — so results are bit-identical to
// an uncancelled run.
#pragma once

#include <string>
#include <vector>

#include "compiler/driver.hpp"
#include "exec/job.hpp"

namespace hwst::exec {

/// Instructions executed between CancelToken polls. Small enough that a
/// timeout is honoured within microseconds, large enough that the poll
/// is invisible next to the per-instruction simulation cost.
inline constexpr u64 kCancelCheckStride = 4096;

/// Run `machine` to completion or until `token` expires (JobTimeout).
sim::RunResult run_machine(sim::Machine& machine, const CancelToken& token);

/// Construct a Machine for the compiled program and run it cancellably.
/// With ctx.cache, the run is a cache cell keyed by cell_digest(program,
/// cfg): a hit returns the published result without simulating, a
/// finished miss is published. Whichever harness or job asks, the same
/// program under the same config is the same cell.
sim::RunResult run_program(const riscv::Program& program,
                           const sim::MachineConfig& cfg,
                           const JobContext& ctx);

/// The standard campaign job: compile `build()` under `scheme`, apply
/// the machine-config `tweak`, run through run_program. Everything
/// happens inside the body, on the worker thread, so jobs never share
/// mutable state.
Job make_sim_job(std::string name, std::string workload,
                 compiler::Scheme scheme,
                 std::function<mir::Module()> build,
                 std::function<void(sim::MachineConfig&)> tweak = {});

/// The workload x scheme grid hwst_run runs: one sim job per (workload,
/// scheme) plus two machine-config tweaks.
struct GridSpec {
    std::vector<std::string> workloads;
    std::vector<compiler::Scheme> schemes;
    unsigned keybuffer = 0;  ///< keybuffer_entries tweak (0 = default)
    unsigned dcache_kib = 0; ///< d-cache capacity tweak (0 = default)

    /// One sim job per (workload, scheme), in enumeration order.
    /// Throws common::ToolchainError on an unknown workload or an empty
    /// grid.
    std::vector<Job> jobs() const;
};

} // namespace hwst::exec

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
sim::RunResult run_program(const riscv::Program& program,
                           const sim::MachineConfig& cfg,
                           const CancelToken& token);

/// The standard campaign job: compile `build()` under `scheme`, apply
/// the machine-config `tweak`, run cancellably. Everything happens
/// inside the body, on the worker thread, so jobs never share mutable
/// state. The job's cache `key` defaults to its name, so sim jobs
/// participate in the result cache out of the box.
Job make_sim_job(std::string name, std::string workload,
                 compiler::Scheme scheme,
                 std::function<mir::Module()> build,
                 std::function<void(sim::MachineConfig&)> tweak = {},
                 u64 seed = 0);

/// The workload x scheme grid hwst_run runs: one sim job per (workload,
/// scheme) plus two machine-config tweaks. One definition builds the
/// jobs, their cache keys ("workload/scheme") and the grid
/// fingerprint, so cache cells written by earlier runs of the same grid
/// keep hitting.
struct GridSpec {
    std::vector<std::string> workloads;
    std::vector<compiler::Scheme> schemes;
    unsigned keybuffer = 0;  ///< keybuffer_entries tweak (0 = default)
    unsigned dcache_kib = 0; ///< d-cache capacity tweak (0 = default)

    /// The grid-level knobs the job coordinates don't name, folded into
    /// grid_fingerprint's config_desc ("" when no tweak is set).
    std::string config_desc() const;

    /// One sim job per (workload, scheme), in enumeration order.
    /// Throws common::ToolchainError on an unknown workload or an empty
    /// grid.
    std::vector<Job> jobs() const;

    u64 fingerprint() const;
};

} // namespace hwst::exec

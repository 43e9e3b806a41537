// Driver: one-call "compile this module under scheme S and run it"
// convenience used by tests, benches and examples.
#pragma once

#include "compiler/codegen.hpp"
#include "compiler/emitters.hpp"
#include "sim/machine.hpp"

namespace hwst::compiler {

struct CompiledProgram {
    riscv::Program program;
    sim::MachineConfig machine_config;
    Scheme scheme;
};

/// Compile `module` under `scheme`.
CompiledProgram compile(const mir::Module& module, Scheme scheme,
                        riscv::MemoryLayout layout = {});

/// Compile and run to completion.
sim::RunResult run(const mir::Module& module, Scheme scheme,
                   riscv::MemoryLayout layout = {});

} // namespace hwst::compiler

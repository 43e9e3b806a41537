// Architectural traps. These are ordinary values returned from the
// Machine (never C++ exceptions at the API boundary): the Juliet
// coverage harness classifies runs by the trap they ended with.
#pragma once

#include <string_view>

#include "common/bitops.hpp"

namespace hwst::hwst {

using common::u64;

enum class TrapKind : common::u8 {
    None = 0,
    /// SCU detected an out-of-bounds checked access (hardware, Fig. 3).
    SpatialViolation,
    /// TCU key mismatch on tchk (hardware, Fig. 3).
    TemporalViolation,
    /// Access outside every mapped region / null page (MMU-level; the
    /// only protection the uninstrumented baseline has).
    AccessFault,
    /// Software instrumentation detected a violation and aborted
    /// (SBCETS / ASAN runtime abort — ecall-based in this model).
    SoftSpatialViolation,
    SoftTemporalViolation,
    /// Stack canary / FORTIFY-style abort (the "GCC" baseline of Fig. 6).
    StackGuardViolation,
    /// libc heap-consistency abort ("free(): invalid pointer") — a
    /// printed diagnostic every scheme's output parser can see.
    LibcAbort,
    /// ASAN shadow-byte report.
    AsanReport,
    IllegalInstruction,
    Breakpoint,
    /// Simulator fuel exhausted (runaway program).
    FuelExhausted,
};

struct Trap {
    TrapKind kind = TrapKind::None;
    u64 addr = 0; ///< faulting address if applicable
    u64 pc = 0;   ///< pc of the trapping instruction
};

constexpr std::string_view trap_name(TrapKind k)
{
    switch (k) {
    case TrapKind::None: return "none";
    case TrapKind::SpatialViolation: return "spatial-violation";
    case TrapKind::TemporalViolation: return "temporal-violation";
    case TrapKind::AccessFault: return "access-fault";
    case TrapKind::SoftSpatialViolation: return "soft-spatial-violation";
    case TrapKind::SoftTemporalViolation: return "soft-temporal-violation";
    case TrapKind::StackGuardViolation: return "stack-guard-violation";
    case TrapKind::LibcAbort: return "libc-abort";
    case TrapKind::AsanReport: return "asan-report";
    case TrapKind::IllegalInstruction: return "illegal-instruction";
    case TrapKind::Breakpoint: return "breakpoint";
    case TrapKind::FuelExhausted: return "fuel-exhausted";
    }
    return "unknown";
}

} // namespace hwst::hwst

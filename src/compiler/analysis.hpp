// Pointer-provenance analysis (the SBCETS pointer-analysis role, §3.4).
//
// For every pointer-typed SSA value the analysis computes its *metadata
// root*: the value whose metadata record describes it. Derived pointers
// (gep results) share their base pointer's root; fresh pointers
// (alloca/global/malloc/null/param/load/inttoptr) are their own roots.
// The software schemes give each root a 32-byte metadata group in the
// frame; laundered roots (inttoptr) get explicitly-null metadata, which
// is how pointer-based schemes lose coverage on int<->ptr idioms
// (Fig. 6's sub-100% coverage).
#pragma once

#include <vector>

#include "common/error.hpp"
#include "mir/ir.hpp"

namespace hwst::compiler {

using mir::u32;
using mir::Value;

/// How a metadata root acquires its metadata.
enum class RootKind {
    Alloca,    ///< bound at address-taking: base/size known statically
    Global,    ///< bound at address-taking from the module table
    Malloc,    ///< bound by the malloc wrapper
    Null,      ///< null constant: key-0 metadata (catches CWE476/690)
    Param,     ///< inherited from the caller (shadow stack / SRF)
    LoadedPtr, ///< copied from the shadow of the loaded-from container
    CallResult,///< inherited from the callee (shadow slot / SRF)
    Laundered, ///< inttoptr: no metadata (checks skip)
};

struct FunctionPointerFacts {
    static constexpr u32 kNone = Value::kInvalid;

    /// value id -> root value id (identity for roots, kNone for values
    /// without provenance). A value is a root iff it is its own root.
    std::vector<u32> root_of;
    /// root value id -> kind (meaningful only where root_of is the
    /// identity).
    std::vector<RootKind> root_kind;
    /// Distinct roots in definition order (group layout order).
    std::vector<u32> roots;
    /// root value id -> parameter index for param roots (they share the
    /// param's group), kNone otherwise.
    std::vector<u32> root_param;
    /// True if any alloca's address is taken (the frame then needs a
    /// lock_location so stack temporal safety / use-after-return works).
    bool needs_frame_lock = false;
    /// Diagnostics used by examples and tests.
    u32 deref_count = 0;
    u32 ptr_load_count = 0;
    u32 ptr_store_count = 0;

    u32 root(Value v) const
    {
        if (v.id >= root_of.size() || root_of[v.id] == kNone)
            throw common::ToolchainError{"pointer facts: unknown value"};
        return root_of[v.id];
    }

    RootKind kind_of_root(u32 root_id) const
    {
        if (root_id >= root_of.size() || root_of[root_id] != root_id)
            throw common::ToolchainError{"pointer facts: unknown root"};
        return root_kind[root_id];
    }
};

/// Run the analysis over a verified function.
FunctionPointerFacts analyze_pointers(const mir::Function& fn);

} // namespace hwst::compiler

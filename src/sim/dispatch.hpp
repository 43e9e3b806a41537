// Threaded dispatcher for the superblock DBT tier (superblock.hpp).
// run_superblocks is the translated-execution equivalent of the
// run_cancellable interpreter loop: it retires whole superblocks with
// batched counters, chains hot edges, and polls `cancel` only at block
// boundaries (every >= `stride` retired instructions).
#pragma once

#include <functional>

#include "common/bitops.hpp"
#include "hwst/trap.hpp"

namespace hwst::sim {

class Machine;

/// Run the machine through the superblock tier until it stops or
/// retires `stop` instructions in total (`stop` <= the configured fuel).
/// Returns false when `cancel` fired (machine state stays inspectable,
/// like the interpreter's cancellation); true otherwise, with `out`
/// holding the final trap (kind None on clean exit). Reaching the fuel
/// limit raises FuelExhausted; reaching an earlier stop point leaves
/// the machine running with `out` untouched. For a run with a periodic
/// fast-forward detector (sim/period.hpp) an earlier stop is the
/// detector's next checkpoint, taken at the block boundary before it;
/// for a probe-hooked run still on its golden prefix it is the next
/// golden-prefix checkpoint (sim/checkpoint.hpp).
/// Must only be called when no trace hook is installed — the tier
/// batches per-instruction bookkeeping a trace hook would observe. The
/// `Hooked` copy runs a probe-hooked Machine (probe points live past
/// their quiet points), the other a hook-free one; a Machine runs each
/// copy on that copy's block cache only.
template <bool Hooked>
bool run_superblocks(Machine& m, const std::function<bool()>* cancel,
                     common::u64 stride, common::u64 stop, hwst::Trap& out);

} // namespace hwst::sim

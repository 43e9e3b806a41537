// Golden-prefix checkpoints (docs/performance.md "Golden-prefix
// checkpoints"). A fault campaign re-runs one Program many times, each
// run with a probe hook that is quiet up to its fault's trigger, so
// every faulted run begins with a prefix of the fault-free (golden)
// run. A dispatcher run whose state is still the golden run's stores
// its exact simulated state every kSpacing instructions in its
// Program's store; a later fresh run of the same Program with the same
// config (fuel aside) starts from the latest checkpoint before its
// lowest quiet point instead of instruction 0. Simulated results are identical to
// simulating the prefix.
//
// Checkpoints are immutable once stored and shared by every Machine of
// the Program (fault_campaign --jobs N runs them on N workers), so the
// store is mutex-guarded. A page whose bytes equal the previous
// checkpoint's shares that checkpoint's buffer.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "sim/machine.hpp"

namespace hwst::sim {

/// What a checkpoint is valid for: the Machine's config with `fuel`
/// zeroed (fuel cannot change the instructions before it) and the
/// Program's memory layout.
struct CheckpointKey {
    MachineConfig config;
    riscv::MemoryLayout layout;

    bool operator==(const CheckpointKey&) const = default;
};

/// The exact simulated state of a golden prefix at `counters.instret`.
struct Checkpoint {
    CheckpointKey key;
    State state; ///< `pages` left empty: they are in `pages` below
    Counters counters;
    std::vector<i64> output;
    mem::Memory::SharedPages pages;
};

class CheckpointStore {
public:
    /// Checkpoints sit at multiples of this instret.
    static constexpr u64 kSpacing = u64{1} << 17;
    /// Estimated bytes a store may hold; recording stops once reached.
    static constexpr std::size_t kMaxBytes = std::size_t{4} << 20;

    /// The store of `program`, created on first use.
    static CheckpointStore& of(const riscv::Program& program);

    /// The latest checkpoint under `key` strictly below instret `bound`
    /// (null: none).
    std::shared_ptr<const Checkpoint> latest_below(const CheckpointKey& key,
                                                   u64 bound) const;

    /// Store `m`'s current state under `key`, unless the store already
    /// holds a checkpoint at that instret under that key or is full.
    void record(const Machine& m, const CheckpointKey& key);

    std::size_t size() const;

private:
    mutable std::mutex mu_; ///< guards the two members below
    /// Ascending instret.
    std::vector<std::shared_ptr<const Checkpoint>> checkpoints_;
    std::size_t bytes_ = 0; ///< estimated, pages counted once
};

} // namespace hwst::sim

// Golden-prefix checkpoints (docs/performance.md "Golden-prefix
// checkpoints"). A fault campaign re-runs one Program many times, each
// run with a probe hook that is quiet up to its fault's trigger, so
// every faulted run begins with a prefix of the fault-free (golden)
// run, and a masked fault soon brings it back to the golden run's
// state. A dispatcher run whose state is still the golden run's (no
// probe call has changed a value) stores its exact simulated state
// every kSpacing instructions in its Program's store, and its final
// state when it ends by exit or trap (the terminal checkpoint). A later
// run of the same Program with the same config (fuel aside) jumps
// ahead along the golden run: a fresh one from instruction 0 and at
// each stored checkpoint it reaches, a faulted one once its state
// equals a stored checkpoint again. It jumps as far as its fuel allows
// and no skipped instruction would have called its probe hook. Each
// checkpoint carries the golden run's probe-event counts (the event
// index, Machine::probe_events()), so a point that is live may still
// be jumped over where the counts prove the golden run never reaches
// it. A faulted run first completes the store with a golden run of its
// own (CheckpointStore::complete), so the checkpoints it may rejoin at
// do not depend on which runs of the Program came before it. Simulated
// results are identical to simulating what was skipped.
//
// Checkpoints are immutable once stored and shared by every Machine of
// the Program (fault_campaign --jobs N runs them on N workers), so the
// store is mutex-guarded. A page whose bytes equal the previous
// checkpoint's shares that checkpoint's buffer.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <utility>
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

/// The exact simulated state of the golden run at `counters.instret`:
/// a multiple of kSpacing while `state.running`, else its end.
struct Checkpoint {
    CheckpointKey key;
    State state; ///< `pages` left empty: they are in `pages` below
    Counters counters;
    std::vector<i64> output;
    mem::Memory::SharedPages pages;
    hwst::Trap trap{}; ///< how the golden run ended (terminal only)
    /// Machine::probe_events() at `counters.instret`: the event index.
    ProbeCounts events{};
};

class CheckpointStore {
public:
    /// Checkpoints sit at multiples of this instret.
    static constexpr u64 kSpacing = u64{1} << 16;
    /// Estimated bytes a store may hold; recording stops once reached.
    static constexpr std::size_t kMaxBytes = std::size_t{4} << 20;

    /// The store of `program`, created on first use.
    static CheckpointStore& of(const riscv::Program& program);

    /// The furthest checkpoint under `key`, the terminal one first,
    /// that the golden run `m` may jump to (null: none). It lies above
    /// `m`'s instret and below its fuel, and for each probe point p
    /// either below p's quiet point (no skipped instruction is live at
    /// p) or with p's event count equal to the count at the latest known
    /// instret (`m`'s own or a stored checkpoint's) before p's first
    /// live skipped instruction: the golden run reaches p nowhere in
    /// between.
    std::shared_ptr<const Checkpoint> jump_target(
        const Machine& m, const CheckpointKey& key) const;

    /// The earliest checkpoint under `key` strictly above instret `at`,
    /// the terminal one excluded (null: none).
    std::shared_ptr<const Checkpoint> next_above(const CheckpointKey& key,
                                                 u64 at) const;

    /// Store `m`'s current state under `key`: a running `m` at its
    /// instret, a stopped one that ended with `end` as the terminal
    /// checkpoint. Nothing happens if the store already holds that
    /// checkpoint under that key or is full.
    void record(const Machine& m, const CheckpointKey& key,
                const hwst::Trap& end = {});

    /// Make the store under `key` hold the golden run up to `fuel`:
    /// unless its terminal checkpoint is stored (a golden run that ended
    /// stored every checkpoint before it) or a completion with at least
    /// that fuel has finished, call `record_golden`, a golden run that
    /// records as it goes (false: it was cancelled). One caller runs it
    /// at a time and the others wait for it. False if it was cancelled.
    bool complete(const CheckpointKey& key, u64 fuel,
                  const std::function<bool()>& record_golden);

    /// Checkpoints stored, the terminal ones excluded.
    std::size_t size() const;
    /// The terminal checkpoint under `key` (null: none yet).
    std::shared_ptr<const Checkpoint> terminal(const CheckpointKey& key) const;

private:
    mutable std::mutex mu_; ///< guards the four members below
    /// Ascending instret.
    std::vector<std::shared_ptr<const Checkpoint>> checkpoints_;
    /// At most one per key.
    std::vector<std::shared_ptr<const Checkpoint>> terminals_;
    std::size_t bytes_ = 0; ///< estimated, pages counted once
    /// Finished completions: key and fuel.
    std::vector<std::pair<CheckpointKey, u64>> completed_;
    std::mutex complete_mu_; ///< held while a completion runs

    std::shared_ptr<const Checkpoint> terminal_locked(
        const CheckpointKey& key) const;
};

} // namespace hwst::sim

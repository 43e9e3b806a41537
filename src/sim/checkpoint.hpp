// Golden-prefix checkpoints (docs/performance.md "Golden-prefix
// checkpoints"). A fault campaign re-runs one Program many times, each
// run with a probe hook that is quiet up to its fault's trigger, so
// every faulted run begins with a prefix of the fault-free (golden)
// run, and a masked fault soon brings it back to the golden run's
// state. Before its first instruction, a probe-hooked dispatcher run
// makes sure its Program's store holds the golden run under its config
// (CheckpointStore::complete): if no run has recorded it yet, a second
// Machine with every point quiet runs it once and stores its exact
// simulated state every kSpacing instructions and at its end (the
// terminal checkpoint, which is the fuel limit if the golden run gets
// that far). That recording is the store's only writer. The run then
// jumps ahead along the golden run while its own state is the golden
// run's: at its start and at each stored checkpoint it reaches, and
// once its state equals a stored checkpoint again (a rejoin). It jumps
// as far as no skipped instruction would have called its probe hook:
// each checkpoint carries, per probe point, the instret of the golden
// run's latest reach at or before it (Machine::last_reaches()), so a
// point that is live may still be jumped over where the golden run
// never reaches it. Simulated results are identical to simulating what
// was skipped.
//
// Checkpoints are immutable once stored and shared by every Machine of
// the Program (fault_campaign --jobs N runs them on N workers), so the
// store is mutex-guarded. A page whose bytes equal the previous
// checkpoint's shares that checkpoint's buffer.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/machine.hpp"

namespace hwst::sim {

/// What a checkpoint is valid for: the Machine's config, fuel included,
/// and the Program's memory layout.
struct CheckpointKey {
    MachineConfig config;
    riscv::MemoryLayout layout;

    bool operator==(const CheckpointKey&) const = default;
};

/// The exact simulated state of the golden run at `counters.instret`:
/// a multiple of kSpacing below the fuel while `state.running`, else
/// its end.
struct Checkpoint {
    CheckpointKey key;
    State state; ///< `pages` left empty: they are in `pages` below
    Counters counters;
    std::vector<i64> output;
    mem::Memory::SharedPages pages;
    hwst::Trap trap{}; ///< how the golden run ended (terminal only)
    /// Machine::last_reaches() at `counters.instret`.
    ProbeReaches last_reach{};
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
    /// that `m`, at instret X on the golden run, may jump to (null:
    /// none): above X and, for each probe point p, with the golden run's
    /// latest reach of p at or before it no later than X or below p's
    /// quiet point, so that no skipped instruction reaches a live point.
    std::shared_ptr<const Checkpoint> jump_target(
        const Machine& m, const CheckpointKey& key) const;

    /// The earliest checkpoint under `key` strictly above instret `at`,
    /// the terminal one excluded (null: none).
    std::shared_ptr<const Checkpoint> next_above(const CheckpointKey& key,
                                                 u64 at) const;

    /// Store `m`'s current state under `key`, after every checkpoint
    /// stored under it so far: a running `m` at its instret, a stopped
    /// one that ended with `end` as the terminal checkpoint. False (and
    /// nothing stored) once the store is full.
    bool record(const Machine& m, const CheckpointKey& key,
                const hwst::Trap& end = {});

    /// Make the store under `key` hold the golden run: unless a
    /// recording under `key` has finished, call `record_golden`, which
    /// stores it from the furthest checkpoint on (false: it was
    /// cancelled, and left a prefix). One caller runs it at a time and
    /// the others wait for it. False if it was cancelled.
    bool complete(const CheckpointKey& key,
                  const std::function<bool()>& record_golden);

    /// Checkpoints stored, the terminal ones excluded.
    std::size_t size() const;
    /// The terminal checkpoint under `key` (null: none yet).
    std::shared_ptr<const Checkpoint> terminal(const CheckpointKey& key) const;

private:
    mutable std::mutex mu_; ///< guards the four members below
    /// Ascending instret within each key.
    std::vector<std::shared_ptr<const Checkpoint>> checkpoints_;
    /// At most one per key.
    std::vector<std::shared_ptr<const Checkpoint>> terminals_;
    std::size_t bytes_ = 0; ///< estimated, pages counted once
    std::vector<CheckpointKey> recorded_; ///< finished recordings
    std::mutex complete_mu_; ///< held while a recording runs

    std::shared_ptr<const Checkpoint> terminal_locked(
        const CheckpointKey& key) const;
};

} // namespace hwst::sim

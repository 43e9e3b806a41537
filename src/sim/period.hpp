// Exact periodic fast-forward for the superblock dispatcher
// (docs/performance.md "Periodic fast-forward"). A run that livelocks
// comes back to an earlier State over and over; once that is proven
// for one period P with counter delta Δ, every later period is the
// same, so the dispatcher adds k·Δ to the Counters, changes nothing
// else, and simulates only the remainder. Simulated results are
// identical to running every instruction.
//
// Detection follows Brent's power-of-two schedule: at each checkpoint
// (instret 2^16, 2^17, ...) the detector takes a light snapshot of the
// block about to be entered — the block and the GPRs. Each later entry
// of that block, for at most kWatchSpan instructions, compares the
// GPRs, and only a match pays for a full State: the first match (t1)
// captures it, each later one (t2) compares against it. An equal State at t2, with no read of cycle or
// instret since t1, proves the period P = t2 - t1 exact. The first
// compare normally comes at t1 + (t1 - t0); later ones catch periods
// longer than the registers' own (state that alternates in memory or
// in the caches).
//
// The watched block's chain_len is raised so that chaining into it
// bails to the dispatcher's outer loop, which calls on_entry(); other
// block entries pay nothing. The destructor restores it. A detector
// exists only for a run without hooks, so the dispatcher's only real
// stop point is the fuel limit. While a block is watched, the
// dispatcher's stop is a checkpoint at most kWatchSpan instructions
// ahead, so instret + ~0u always passes it.
#pragma once

#include <array>
#include <optional>

#include "sim/machine.hpp"
#include "sim/superblock.hpp"

namespace hwst::sim {

class PeriodDetector {
public:
    /// Instret of the first checkpoint: shorter runs never take a
    /// snapshot.
    static constexpr u64 kFirstCheckpoint = u64{1} << 16;
    /// No State is captured while more pages than this are resident
    /// (each capture copies every page).
    static constexpr std::size_t kMaxPages = 64;
    /// Full-State captures and compares per checkpoint window. Bounds
    /// the cost of runs whose registers repeat while their memory does
    /// not.
    static constexpr unsigned kMaxFullStates = 4;
    /// Instructions a window watches its block for, from its snapshot.
    /// The watched block is often the hottest one, so a run that does
    /// not repeat pays for the watch only this long per window. Finds
    /// periods up to half of it (Juliet's longest is 39,412).
    static constexpr u64 kWatchSpan = u64{1} << 17;

    /// Attaches to `m` (Machine::period_) for the detector's lifetime.
    explicit PeriodDetector(Machine& m) : m_{m} { m_.period_ = this; }
    ~PeriodDetector()
    {
        unwatch();
        m_.period_ = nullptr;
    }
    PeriodDetector(const PeriodDetector&) = delete;
    PeriodDetector& operator=(const PeriodDetector&) = delete;

    /// Instret at which the dispatcher next calls checkpoint(): the next
    /// snapshot, or the end of the current window's watch span (~0 once
    /// detection is over).
    u64 next_checkpoint() const { return next_; }

    /// Checkpoint at a block boundary: `sb` is the block about to be
    /// entered. At a snapshot `sb` becomes the watched block; at the end
    /// of a watch span, the block is unwatched. No-op once detection is
    /// over.
    void checkpoint(Superblock* sb);

    /// The watched block (null: none).
    const Superblock* watched() const { return watch_; }

    /// Inline filter in front of on_entry(): false while the register
    /// that differed last time still differs, which is every entry of a
    /// hot block in a run that does not repeat.
    bool may_match() const
    {
        return m_.regs_[mismatch_hint_] == regs0_[mismatch_hint_];
    }

    /// Entry of the watched block `sb`, before it executes, with
    /// `instret + sb.len` within the fuel limit. May fast-forward the
    /// counters by whole periods, keeping that bound; detection is then
    /// over for this run (no more checkpoints, the block is unwatched).
    void on_entry(const Superblock& sb);

private:
    bool regs_match();
    void unwatch();

    Machine& m_;
    u64 next_ = kFirstCheckpoint;
    u64 next_snapshot_ = kFirstCheckpoint;
    u64 watch_until_ = 0;
    // Light snapshot of the current checkpoint window.
    Superblock* watch_ = nullptr;
    u64 t0_ = 0;
    std::array<u64, riscv::kNumRegs> regs0_{};
    unsigned mismatch_hint_ = 0; ///< register that differed last time
    unsigned budget_ = 0;        ///< full States left in this window
    // Full State at the first register match of the window.
    std::optional<State> s1_;
    Counters c1_;
    u64 t1_ = 0;
};

} // namespace hwst::sim

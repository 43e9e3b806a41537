#include "sim/period.hpp"

#include <algorithm>
#include <bit>

namespace hwst::sim {

void PeriodDetector::checkpoint(Superblock* sb)
{
    if (next_ == ~u64{0}) return; // detection is over
    const u64 now = m_.instret_;
    if (now + sb->len <= next_snapshot_) {
        // The window's watch span is over: its block's entries stop
        // paying for the watch until the next snapshot.
        unwatch();
        s1_.reset();
        next_ = next_snapshot_;
        return;
    }
    // The next power of two past this block's end, so the caller can
    // enter it.
    next_snapshot_ = std::bit_floor(now + sb->len) << 1;
    // A window with a captured State keeps going through its span while
    // it has budget: its State may be a period away from a match.
    if (!s1_ || budget_ == 0 || now >= watch_until_) {
        if (sb != watch_) {
            unwatch();
            watch_ = sb;
            sb->chain_len = ~u32{0};
        }
        t0_ = now;
        regs0_ = m_.regs_;
        budget_ = kMaxFullStates;
        s1_.reset();
        watch_until_ = now + kWatchSpan;
    }
    next_ = std::min(next_snapshot_, watch_until_);
}

void PeriodDetector::unwatch()
{
    if (watch_) watch_->chain_len = watch_->len;
    watch_ = nullptr;
}

bool PeriodDetector::regs_match()
{
    if (!may_match()) return false;
    for (unsigned i = 0; i < riscv::kNumRegs; ++i) {
        if (m_.regs_[i] != regs0_[i]) {
            mismatch_hint_ = i;
            return false;
        }
    }
    return true;
}

void PeriodDetector::on_entry(const Superblock& sb)
{
    Machine& m = m_;
    const u64 now = m.instret_;
    if (now == t0_ || budget_ == 0 || !regs_match() ||
        m.mem_.resident_pages() > kMaxPages)
        return;
    --budget_;
    if (!s1_ || m.counters_read_) {
        // First full State of the window, or the program has read the
        // counters since the last one: the proof starts over here.
        s1_ = m.state();
        c1_ = m.counters();
        t1_ = now;
        m.counters_read_ = false;
        return;
    }
    if (m.state() != *s1_) return;

    // State(now) == State(t1): every later period of p instructions
    // retires the same instructions with the same counter delta. Skip
    // as many whole periods as leave this block room before the fuel
    // limit; the remainder (less than one period) is simulated.
    const u64 p = now - t1_;
    const u64 k = (m.cfg_.fuel - now - sb.len) / p;
    if (k > 0) {
        Counters c = m.counters();
        c.add_scaled(c - c1_, k);
        m.set_counters(c);
        ++m.dbt_stats_.period_skips;
        m.dbt_stats_.skipped_instret += k * p;
    }
    next_ = ~u64{0};
    unwatch();
    s1_.reset();
}

} // namespace hwst::sim

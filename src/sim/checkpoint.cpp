#include "sim/checkpoint.hpp"

#include <algorithm>

namespace hwst::sim {

namespace {

/// Estimated host bytes of `c`, counting only the parts it shares
/// with no earlier checkpoint (`c` is not yet stored).
std::size_t footprint(const Checkpoint& c)
{
    const State& s = c.state;
    std::size_t n = sizeof(Checkpoint) +
                    8 * (s.dcache.lines.size() + s.icache.lines.size() +
                         c.output.size()) +
                    sizeof(metadata::Keybuffer::RankedSlot) *
                        s.keybuffer.size() +
                    sizeof(mem::Memory::Region) * s.regions.size() +
                    16 * s.quarantine.size() + 24 * c.pages.keys.size();
    for (const auto& page : c.pages.pages)
        if (page.unique())
            n += sizeof(mem::Memory::PageWords) + 8 * page->words.size();
    // Allocator map and set nodes.
    if (s.heap.unique()) n += 128 * s.heap->live_blocks();
    if (s.locks.unique()) n += 48 * s.locks->live();
    return n;
}

} // namespace

CheckpointStore& CheckpointStore::of(const riscv::Program& program)
{
    return program.checkpoint_store(
        [] { return std::make_shared<CheckpointStore>(); });
}

std::shared_ptr<const Checkpoint> CheckpointStore::terminal_locked(
    const CheckpointKey& key) const
{
    for (const auto& t : terminals_)
        if (t->key == key) return t;
    return nullptr;
}

std::shared_ptr<const Checkpoint> CheckpointStore::jump_target(
    const Machine& m, const CheckpointKey& key) const
{
    // The instruction that retires with instret i calls the hook at p
    // iff i >= quiet[p]. A jump from X to c skips the golden run's
    // instructions X+1..c, so it is safe iff, at every p, the golden
    // run's latest reach at or before c is at or below X (no reach is
    // skipped) or below quiet[p] (no skipped reach is live).
    const u64 from = m.instret_;
    ProbeReaches bound{};
    for (unsigned p = 0; p < kNumProbes; ++p) {
        const u64 quiet = m.probe_quiet_[p];
        bound[p] = std::max(from, quiet ? quiet - 1 : 0);
    }
    const auto safe = [&](const Checkpoint& c) {
        for (unsigned p = 0; p < kNumProbes; ++p)
            if (c.last_reach[p] > bound[p]) return false;
        return true;
    };

    const std::lock_guard lock{mu_};
    if (auto t = terminal_locked(key);
        t && t->counters.instret > from && safe(*t))
        return t;
    // Latest reaches only grow along the golden run: the safe
    // checkpoints are the earliest ones.
    for (auto it = checkpoints_.rbegin(); it != checkpoints_.rend(); ++it) {
        if ((*it)->key != key) continue;
        if ((*it)->counters.instret <= from) break;
        if (safe(**it)) return *it;
    }
    return nullptr;
}

std::shared_ptr<const Checkpoint> CheckpointStore::next_above(
    const CheckpointKey& key, u64 at) const
{
    const std::lock_guard lock{mu_};
    for (const auto& c : checkpoints_) {
        if (c->counters.instret > at && c->key == key) return c;
    }
    return nullptr;
}

bool CheckpointStore::record(const Machine& m, const CheckpointKey& key,
                             const hwst::Trap& end)
{
    const std::lock_guard lock{mu_};
    if (bytes_ >= kMaxBytes) return false;
    const auto latest = std::find_if(
        checkpoints_.rbegin(), checkpoints_.rend(),
        [&](const auto& c) { return c->key == key; });
    const Checkpoint* prev =
        latest == checkpoints_.rend() ? nullptr : latest->get();
    auto c = std::make_shared<const Checkpoint>(Checkpoint{
        key, m.state_except_pages(prev ? &prev->state : nullptr),
        m.counters(), m.output(),
        m.mem_.shared_pages(prev ? &prev->pages : nullptr), end,
        m.last_reach_});
    bytes_ += footprint(*c);
    (m.running() ? checkpoints_ : terminals_).push_back(std::move(c));
    return true;
}

bool CheckpointStore::complete(const CheckpointKey& key,
                               const std::function<bool()>& record_golden)
{
    const auto done = [&] {
        const std::lock_guard lock{mu_};
        return std::ranges::find(recorded_, key) != recorded_.end();
    };
    if (done()) return true;
    const std::lock_guard running{complete_mu_};
    if (done()) return true;
    if (!record_golden()) return false;
    const std::lock_guard lock{mu_};
    recorded_.push_back(key);
    return true;
}

std::size_t CheckpointStore::size() const
{
    const std::lock_guard lock{mu_};
    return checkpoints_.size();
}

std::shared_ptr<const Checkpoint> CheckpointStore::terminal(
    const CheckpointKey& key) const
{
    const std::lock_guard lock{mu_};
    return terminal_locked(key);
}

} // namespace hwst::sim

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
    // iff i >= quiet[p], so those up to dark[p] cannot: the ones `m`
    // has retired and the quiet ones. A jump to instret c is safe at p
    // if c <= dark[p], or if p's count at c equals its count at the
    // latest known instret at or below dark[p] (`seen[p]`): counts only
    // grow, so the golden run reaches p nowhere in (dark[p], c].
    const u64 from = m.instret_;
    ProbeQuiet dark{}; // instrets, like the quiet points
    ProbeCounts seen = m.probe_events_;
    for (unsigned p = 0; p < kNumProbes; ++p) {
        const u64 quiet = m.probe_quiet_[p];
        dark[p] = std::max(from, quiet ? quiet - 1 : 0);
    }
    const auto safe = [&](const Checkpoint& c) {
        const u64 at = c.counters.instret;
        if (at <= from || at >= m.cfg_.fuel) return false;
        for (unsigned p = 0; p < kNumProbes; ++p)
            if (at > dark[p] && c.events[p] != seen[p]) return false;
        return true;
    };

    const std::lock_guard lock{mu_};
    // Ascending instret: the last one at or below dark[p] stays.
    for (const auto& c : checkpoints_) {
        const u64 at = c->counters.instret;
        if (at <= from || c->key != key) continue;
        for (unsigned p = 0; p < kNumProbes; ++p)
            if (at <= dark[p]) seen[p] = c->events[p];
    }
    if (auto t = terminal_locked(key); t && safe(*t)) return t;
    for (auto it = checkpoints_.rbegin(); it != checkpoints_.rend(); ++it) {
        if ((*it)->key == key && safe(**it)) return *it;
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

void CheckpointStore::record(const Machine& m, const CheckpointKey& key,
                             const hwst::Trap& end)
{
    const u64 at = m.instret();
    const std::lock_guard lock{mu_};
    if (bytes_ >= kMaxBytes) return;
    if (!m.running() && terminal_locked(key)) return;
    const Checkpoint* prev = nullptr; // the latest earlier one
    auto pos = checkpoints_.begin();
    for (; pos != checkpoints_.end() && (*pos)->counters.instret <= at;
         ++pos) {
        if ((*pos)->key != key) continue;
        if ((*pos)->counters.instret == at && m.running()) return;
        prev = pos->get();
    }
    auto c = std::make_shared<const Checkpoint>(Checkpoint{
        key, m.state_except_pages(prev ? &prev->state : nullptr),
        m.counters(), m.output(),
        m.mem_.shared_pages(prev ? &prev->pages : nullptr), end,
        m.probe_events_});
    bytes_ += footprint(*c);
    if (m.running())
        checkpoints_.insert(pos, std::move(c));
    else
        terminals_.push_back(std::move(c));
}

bool CheckpointStore::complete(const CheckpointKey& key, u64 fuel,
                               const std::function<bool()>& record_golden)
{
    const auto done = [&] {
        const std::lock_guard lock{mu_};
        if (terminal_locked(key)) return true;
        return std::ranges::any_of(completed_, [&](const auto& c) {
            return c.first == key && c.second >= fuel;
        });
    };
    if (done()) return true;
    const std::lock_guard running{complete_mu_};
    if (done()) return true;
    if (!record_golden()) return false;
    const std::lock_guard lock{mu_};
    completed_.emplace_back(key, fuel);
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

#include "sim/checkpoint.hpp"

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
    const CheckpointKey& key, u64 bound) const
{
    const std::lock_guard lock{mu_};
    if (auto t = terminal_locked(key); t && t->counters.instret < bound)
        return t;
    for (auto it = checkpoints_.rbegin(); it != checkpoints_.rend(); ++it) {
        if ((*it)->counters.instret < bound && (*it)->key == key) return *it;
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
        m.mem_.shared_pages(prev ? &prev->pages : nullptr), end});
    bytes_ += footprint(*c);
    if (m.running())
        checkpoints_.insert(pos, std::move(c));
    else
        terminals_.push_back(std::move(c));
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

#include "fault/injector.hpp"

#include <algorithm>

namespace hwst::fault {

Injector::Injector(FaultPlan plan)
{
    armed_.reserve(plan.faults.size());
    for (const FaultSpec& spec : plan.faults) armed_.push_back(Armed{spec});
}

u64 Injector::perturb(Probe point, u64 instret, u64 value)
{
    for (Armed& a : armed_) {
        if (a.spec.point != point || a.done) continue;
        if (instret < a.spec.trigger_instret) continue;
        value ^= a.spec.xor_mask;
        if (a.spec.mode == FaultMode::OneShot) a.done = true;
        if (fires_ == 0) first_fire_ = instret;
        ++fires_;
        if (log_.size() < kMaxLog) {
            log_.push_back(FireRecord{point, instret,
                                      value ^ a.spec.xor_mask, value});
        }
    }
    return value;
}

void Injector::attach(sim::Machine& m)
{
    // perturb() is the identity below every armed trigger, so the run
    // may fast-forward on the dispatcher up to the earliest one.
    u64 quiet_before = ~u64{0};
    for (const Armed& a : armed_)
        if (!a.done)
            quiet_before = std::min(quiet_before, a.spec.trigger_instret);
    m.set_probe_hook(
        [this](Probe point, u64 instret, u64 value) {
            return perturb(point, instret, value);
        },
        quiet_before);
}

} // namespace hwst::fault

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
    bool disarmed = false;
    for (Armed& a : armed_) {
        if (a.spec.point != point || a.done) continue;
        if (instret < a.spec.trigger_instret) continue;
        value ^= a.spec.xor_mask;
        if (a.spec.mode == FaultMode::OneShot) a.done = disarmed = true;
        if (fires_ == 0) first_fire_ = instret;
        ++fires_;
        if (log_.size() < kMaxLog) {
            log_.push_back(FireRecord{point, instret,
                                      value ^ a.spec.xor_mask, value});
        }
    }
    // A fault that has fired for good no longer holds the run on the
    // interpreter: only the faults still armed do.
    if (disarmed && machine_) machine_->set_probe_quiet_before(quiet_before());
    return value;
}

u64 Injector::quiet_before() const
{
    // perturb() is the identity below every armed trigger.
    u64 quiet = ~u64{0};
    for (const Armed& a : armed_)
        if (!a.done) quiet = std::min(quiet, a.spec.trigger_instret);
    return quiet;
}

void Injector::attach(sim::Machine& m)
{
    machine_ = &m;
    m.set_probe_hook(
        [this](Probe point, u64 instret, u64 value) {
            return perturb(point, instret, value);
        },
        quiet_before());
}

} // namespace hwst::fault

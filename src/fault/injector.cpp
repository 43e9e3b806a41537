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
    // A fault that has fired for good no longer needs the hook called:
    // only the faults still armed do.
    if (disarmed && machine_) machine_->set_probe_quiet(quiet());
    return value;
}

sim::ProbeQuiet Injector::quiet() const
{
    // perturb() is the identity at a point below its armed triggers.
    sim::ProbeQuiet q = sim::kProbesQuiet;
    for (const Armed& a : armed_) {
        if (a.done) continue;
        u64& at = q[static_cast<unsigned>(a.spec.point)];
        at = std::min(at, a.spec.trigger_instret);
    }
    return q;
}

void Injector::attach(sim::Machine& m)
{
    machine_ = &m;
    m.set_probe_hook(
        [this](Probe point, u64 instret, u64 value) {
            return perturb(point, instret, value);
        },
        quiet());
}

} // namespace hwst::fault

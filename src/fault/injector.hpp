// Injector: executes a FaultPlan against a running Machine through the
// Probe hook. Keeps a capped event log so the oracle can report where
// the fault actually landed (the trigger names an instruction count,
// but the perturbation only happens the next time the datapath is
// exercised).
#pragma once

#include <vector>

#include "fault/plan.hpp"

namespace hwst::fault {

/// One perturbation that actually happened.
struct FireRecord {
    Probe point;
    u64 instret;
    u64 before;
    u64 after;
};

class Injector {
public:
    explicit Injector(FaultPlan plan);

    /// The Machine::ProbeHook entry point.
    u64 perturb(Probe point, u64 instret, u64 value);

    /// Install this injector on `m`. The injector must outlive the run.
    /// Each probe point is declared quiet below the earliest trigger
    /// still armed there, so the Machine calls the hook only where a
    /// fault may fire. Each time a one-shot fault fires, perturb()
    /// re-declares the quiet points on `m` from the faults still armed:
    /// a point whose last fault has fired is never called again.
    void attach(sim::Machine& m);

    /// Per point, the earliest trigger among the faults still armed
    /// there (~0 where none is): the quiet points attach() declares.
    sim::ProbeQuiet quiet() const;

    bool fired() const { return fires_ != 0; }
    u64 fires() const { return fires_; }
    u64 first_fire_instret() const { return first_fire_; }

    /// First kMaxLog perturbations (stuck-at faults can fire millions of
    /// times; the interesting ones are the first).
    const std::vector<FireRecord>& log() const { return log_; }
    static constexpr std::size_t kMaxLog = 64;

private:
    struct Armed {
        FaultSpec spec;
        bool done = false; ///< one-shot faults disarm after firing
    };

    std::vector<Armed> armed_;
    sim::Machine* machine_ = nullptr; ///< set by attach()
    std::vector<FireRecord> log_;
    u64 fires_ = 0;
    u64 first_fire_ = 0;
};

} // namespace hwst::fault

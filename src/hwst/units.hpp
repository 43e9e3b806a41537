// The HWST128 pipeline units of Fig. 3: SMAC (shadow memory address
// calculator), SCU (spatial check unit) and TCU (temporal check unit).
// Pure combinational functions wrapped in small stat-keeping classes so
// the hardware-cost model and the ablation benches can introspect them.
#pragma once

#include "common/bitops.hpp"
#include "metadata/compress.hpp"

namespace hwst::hwst {

using common::u64;

/// Counters of a check unit (SCU or TCU).
struct CheckStats {
    u64 checks = 0;
    u64 violations = 0;
    u64 saturated = 0; ///< checks rejected on the saturating encoding
};

/// SMAC — Eq. 1: Addr_LMSM = (Addr_ptr_container << 2) + CSR_offset.
/// The shift is kept verbatim from the paper: each 8-byte pointer
/// container strides 32 shadow bytes; the lower metadata half lives at
/// the mapped address and the upper half 8 bytes above.
class Smac {
public:
    u64 map(u64 container_addr, u64 csr_offset)
    {
        ++translations_;
        return (container_addr << 2) + csr_offset;
    }

    static constexpr u64 upper_slot_offset() { return 8; }

    u64 translations() const { return translations_; }
    void set_translations(u64 n) { translations_ = n; }

private:
    u64 translations_ = 0;
};

/// SCU — spatial check at the execute stage: the decompressed base /
/// bound are compared against the access address (paper Fig. 3: "if the
/// target address is out-of-bound, a spatial violation trap will be
/// evoked").
class Scu {
public:
    struct Result {
        bool pass;
    };

    Result check(u64 addr, unsigned width, u64 base, u64 bound)
    {
        ++stats_.checks;
        const bool pass = addr >= base && addr + width <= bound &&
                          addr + width >= addr;
        if (!pass) ++stats_.violations;
        return Result{pass};
    }

    /// A check that short-circuited on the saturating poison encoding
    /// (compression-width overflow): counts as a failed check.
    void note_saturated()
    {
        ++stats_.checks;
        ++stats_.violations;
        ++stats_.saturated;
    }

    u64 checks() const { return stats_.checks; }
    u64 violations() const { return stats_.violations; }
    u64 saturated() const { return stats_.saturated; }
    const CheckStats& stats() const { return stats_; }
    void set_stats(const CheckStats& s) { stats_ = s; }

private:
    CheckStats stats_;
};

/// TCU — temporal check: key held by the pointer vs key stored at the
/// lock_location (possibly served by the keybuffer).
class Tcu {
public:
    struct Result {
        bool pass;
    };

    Result check(u64 pointer_key, u64 lock_key)
    {
        ++stats_.checks;
        const bool pass = pointer_key == lock_key && pointer_key != 0;
        if (!pass) ++stats_.violations;
        return Result{pass};
    }

    /// A check that short-circuited on the saturating poison encoding
    /// (compression-width overflow): counts as a failed check.
    void note_saturated()
    {
        ++stats_.checks;
        ++stats_.violations;
        ++stats_.saturated;
    }

    u64 checks() const { return stats_.checks; }
    u64 violations() const { return stats_.violations; }
    u64 saturated() const { return stats_.saturated; }
    const CheckStats& stats() const { return stats_; }
    void set_stats(const CheckStats& s) { stats_ = s; }

private:
    CheckStats stats_;
};

} // namespace hwst::hwst

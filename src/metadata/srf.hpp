// Shadow register file (SRF): 32 entries of 128-bit compressed metadata,
// one per GPR (paper §3.2, SHORE heritage). Each 64-bit half has its own
// valid bit because the ISA moves halves independently (sbdl/sbdu,
// lbdls/lbdus) and bndrs/bndrt bind the spatial and temporal halves by
// separate instructions.
#pragma once

#include <array>

#include "common/bitops.hpp"
#include "metadata/compress.hpp"
#include "riscv/reg.hpp"

namespace hwst::metadata {

using riscv::Reg;

class ShadowRegFile {
public:
    struct Entry {
        Compressed value{};
        bool valid_lo = false;
        bool valid_hi = false;

        bool valid() const { return valid_lo && valid_hi; }
        void clear() { *this = Entry{}; }
        bool operator==(const Entry&) const = default;
    };

    using Entries = std::array<Entry, riscv::kNumRegs>;
    const Entries& entries() const { return entries_; }
    void restore(const Entries& e) { entries_ = e; }

    const Entry& entry(Reg r) const { return entries_[riscv::reg_index(r)]; }

    void bind_spatial(Reg r, u64 lo)
    {
        Entry& e = mut(r);
        e.value.lo = lo;
        e.valid_lo = true;
    }

    void bind_temporal(Reg r, u64 hi)
    {
        Entry& e = mut(r);
        e.value.hi = hi;
        e.valid_hi = true;
    }

    void set_lo(Reg r, u64 lo, bool valid)
    {
        Entry& e = mut(r);
        e.value.lo = lo;
        e.valid_lo = valid;
    }

    void set_hi(Reg r, u64 hi, bool valid)
    {
        Entry& e = mut(r);
        e.value.hi = hi;
        e.valid_hi = valid;
    }

    /// In-pipeline propagation (paper Fig. 1-b): the destination shadow
    /// register inherits the source's metadata on register-to-register
    /// pointer movement; no instruction overhead.
    void propagate(Reg dst, Reg src)
    {
        if (dst == Reg::zero) return;
        mut(dst) = entry(src);
    }

    void clear(Reg r) { mut(r).clear(); }

    /// Flip bits of a stored half in place (SEU injection — fault
    /// tooling). Valid bits are untouched: a particle strike perturbs
    /// the stored word, it does not invent or erase presence.
    void xor_lo(Reg r, u64 flip) { mut(r).value.lo ^= flip; }
    void xor_hi(Reg r, u64 flip) { mut(r).value.hi ^= flip; }

    void clear_all()
    {
        for (auto& e : entries_) e.clear();
    }

private:
    Entry& mut(Reg r) { return entries_[riscv::reg_index(r)]; }

    Entries entries_{};
};

} // namespace hwst::metadata

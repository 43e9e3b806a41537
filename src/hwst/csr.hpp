// HWST128 control/status registers (paper §3.3/3.5: "the bit width for
// each metadata field is set within a 24-bit CSR at the beginning of the
// program"; "the target shadow address ... using a preset offset in a
// control status register").
#pragma once

#include <optional>

#include "common/bitops.hpp"
#include "metadata/compress.hpp"

namespace hwst::hwst {

using common::u32;
using common::u64;

// CSR address map (unprivileged custom read/write space).
inline constexpr u32 kCsrSmOffset = 0x800;  ///< Eq. 1 shadow offset
inline constexpr u32 kCsrBitw = 0x801;      ///< 24-bit packed field widths
inline constexpr u32 kCsrLockBase = 0x802;  ///< lock_location region base
inline constexpr u32 kCsrLockSize = 0x803;  ///< lock_location entry count
inline constexpr u32 kCsrStatus = 0x804;    ///< bit0 spatial, bit1 temporal
inline constexpr u32 kCsrViolation = 0x805; ///< last violation cause
inline constexpr u32 kCsrVaddr = 0x806;     ///< last violating address
// Standard counters.
inline constexpr u32 kCsrCycle = 0xC00;
inline constexpr u32 kCsrInstret = 0xC02;

inline constexpr u64 kStatusSpatialEnable = 1u << 0;
inline constexpr u64 kStatusTemporalEnable = 1u << 1;

class HwstCsrFile {
public:
    /// Read a HWST CSR; std::nullopt if the address is not ours (the
    /// Machine handles cycle/instret itself).
    std::optional<u64> read(u32 addr) const
    {
        switch (addr) {
        case kCsrSmOffset: return sm_offset_;
        case kCsrBitw: return bitw_;
        case kCsrLockBase: return lock_base_;
        case kCsrLockSize: return lock_size_;
        case kCsrStatus: return status_;
        case kCsrViolation: return violation_;
        case kCsrVaddr: return vaddr_;
        default: return std::nullopt;
        }
    }

    /// Write a HWST CSR; returns false if the address is not ours.
    bool write(u32 addr, u64 value)
    {
        ++version_;
        switch (addr) {
        case kCsrSmOffset: sm_offset_ = value; return true;
        case kCsrBitw: bitw_ = static_cast<u32>(value) & 0xFFFFFF; return true;
        case kCsrLockBase: lock_base_ = value; return true;
        case kCsrLockSize: lock_size_ = value; return true;
        case kCsrStatus: status_ = value & 3; return true;
        case kCsrViolation: violation_ = value; return true;
        case kCsrVaddr: vaddr_ = value; return true;
        default: return false;
        }
    }

    /// Bumped on every write (any address, even rejected ones — over-
    /// invalidation is safe). Lets the Machine memoize values derived
    /// from CSR state (the decoded compression config) and recompute
    /// only when the file may have changed.
    u64 version() const { return version_; }

    u64 sm_offset() const { return sm_offset_; }
    bool spatial_enabled() const { return status_ & kStatusSpatialEnable; }
    bool temporal_enabled() const { return status_ & kStatusTemporalEnable; }

    /// Current compression configuration, decoded from csr.bitw +
    /// csr.lock.base (what COMP/DECOMP see).
    metadata::CompressionConfig compression() const
    {
        return metadata::CompressionConfig::from_csr(bitw_, lock_base_);
    }

    void record_violation(u64 cause, u64 addr)
    {
        ++version_;
        violation_ = cause;
        vaddr_ = addr;
    }

private:
    u64 sm_offset_ = 0;
    u32 bitw_ = metadata::CompressionConfig{}.to_csr();
    u64 lock_base_ = 0;
    u64 lock_size_ = 0;
    u64 status_ = 0;
    u64 violation_ = 0;
    u64 vaddr_ = 0;
    u64 version_ = 0;
};

} // namespace hwst::hwst

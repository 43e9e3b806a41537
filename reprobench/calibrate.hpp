// Host-speed calibration for the untraced passes. The benchmark runs on
// shared hosts whose speed drifts by 10-40 % over seconds to minutes
// (other tenants contend for the cores and caches), which no statistic
// taken inside one run can hide. So a pass interleaves short slices of a
// fixed reference kernel with its cells, and every time the pass
// measures is rescaled by how fast the kernel ran during it:
//
//   calibrated = measured × kReferenceSliceMs / (mean slice time in the pass)
//
// The kernel is the benchmark's own code, so a change to the program
// under test never changes it. It is heap churn: blocks of mixed sizes
// allocated, zeroed, written through and freed, as every cell's build,
// compile and load do. Of the kernels tried (switch dispatch, dependent
// loads over 32 MiB, a 512-function call table, mapping and touching
// fresh pages, heap churn), heap churn tracked the cells' slowdowns best
// on every workload: its slice time correlates at 0.9-0.99 with the pass
// walls, where dispatch and dependent loads slowed down by a third as
// much as the cells did and fresh pages added syscall noise.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "tracer.hpp"

namespace reprobench {

/// One slice's time on the host the benchmark was tuned on (a 4-vCPU
/// Intel Xeon VM): calibrated times read as times on that host.
constexpr double kReferenceSliceMs = 0.3;
/// Cell time between two slices.
constexpr double kSliceEveryMs = 25.0;

class Calibrator {
public:
    Calibrator() : ring_(kRing) { last_ = Clock::now(); }

    /// Run a slice if kSliceEveryMs of other work has passed since the
    /// last one.
    void tick()
    {
        if (ms_between(last_, Clock::now()) >= kSliceEveryMs) slice();
    }

    /// Run one slice now.
    void slice()
    {
        const auto t0 = Clock::now();
        kernel();
        last_ = Clock::now();
        slice_ms_.push_back(ms_between(t0, last_));
    }

    /// Slices run since the last reset().
    std::size_t slices() const { return slice_ms_.size(); }
    /// Time spent in them.
    double total_ms() const
    {
        double t = 0.0;
        for (const double s : slice_ms_) t += s;
        return t;
    }

    void reset() { slice_ms_.clear(); }

    /// The factor that turns a time measured since the last reset() into
    /// reference-host time.
    double factor() const
    {
        return kReferenceSliceMs /
               (total_ms() / static_cast<double>(slices()));
    }

    /// The factor for work done after the first `window` slices since
    /// the last reset() and before the next one: from the median of the
    /// slices around it, so it follows the host within a pass.
    double local_factor(std::size_t window) const
    {
        const std::size_t lo = window > kNeighbours ? window - kNeighbours : 0;
        const std::size_t hi = std::min(window + kNeighbours, slices());
        std::vector<double> near(slice_ms_.begin() + static_cast<long>(lo),
                                 slice_ms_.begin() + static_cast<long>(hi));
        std::nth_element(near.begin(), near.begin() + near.size() / 2,
                         near.end());
        return kReferenceSliceMs / near[near.size() / 2];
    }

private:
    /// Slices on each side of a window that local_factor() takes.
    static constexpr std::size_t kNeighbours = 3;
    static constexpr std::size_t kRing = 64;
    static constexpr unsigned kAllocs = 1200;

    void kernel()
    {
        // Heap churn: a ring of live blocks, each replaced by a fresh
        // block of another size, zeroed and then filled.
        std::uint64_t x = state_ | 1;
        for (unsigned i = 0; i < kAllocs; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            const std::size_t n = 16 + ((x >> 33) % 4096);
            auto& slot = ring_[i % kRing];
            slot = std::make_unique<char[]>(n);
            std::memset(slot.get(), static_cast<int>(i), n);
            state_ += static_cast<unsigned char>(slot[n / 2]);
        }
    }

    std::vector<std::unique_ptr<char[]>> ring_;
    std::uint64_t state_ = 0;
    Clock::time_point last_;
    std::vector<double> slice_ms_;
};

} // namespace reprobench

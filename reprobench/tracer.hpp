// In-memory span recorder for the benchmark's traced mode. Each span is
// one call into a layer, recorded from the caller's side of the call:
// name, start, end, the enclosing span and the cell (request id) it
// serves. With tracing off, span() returns an inert guard, so untraced
// passes pay one branch per layer call.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace reprobench {

using Clock = std::chrono::steady_clock;

/// Host milliseconds between two clock readings.
inline double ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
    const char* name; ///< layer name, a string literal
    double start_us;  ///< relative to the tracer's origin
    double end_us;
    int parent;       ///< index into spans(), -1 for a root
    unsigned cell;    ///< request id: the cell the call served
};

class Tracer {
public:
    explicit Tracer(Clock::time_point origin) : origin_{origin} {}

    /// Closes its span when it goes out of scope.
    class Scope {
    public:
        Scope(Tracer* t, int index) : t_{t}, index_{index} {}
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        ~Scope()
        {
            if (t_) t_->close(index_);
        }

    private:
        Tracer* t_;
        int index_;
    };

    Scope span(const char* name, unsigned cell)
    {
        if (!on) return Scope{nullptr, -1};
        const int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back(Span{name, now_us(), 0.0, parent, cell});
        open_.push_back(static_cast<int>(spans_.size() - 1));
        return Scope{this, open_.back()};
    }

    const std::vector<Span>& spans() const { return spans_; }

    void clear()
    {
        spans_.clear();
        open_.clear();
    }

    /// Self time per span name in ms: each span's duration minus the
    /// part of it its direct children cover.
    std::map<std::string, double> self_ms() const
    {
        std::vector<double> child_us(spans_.size(), 0.0);
        for (const Span& s : spans_)
            if (s.parent >= 0)
                child_us[static_cast<std::size_t>(s.parent)] +=
                    s.end_us - s.start_us;
        std::map<std::string, double> self;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[spans_[i].name] +=
                (spans_[i].end_us - spans_[i].start_us - child_us[i]) / 1e3;
        return self;
    }

    bool on = false;

private:
    double now_us() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    void close(int index)
    {
        spans_[static_cast<std::size_t>(index)].end_us = now_us();
        open_.pop_back();
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_; ///< indices of the spans still open
};

} // namespace reprobench

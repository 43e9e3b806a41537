// Shared command-line vocabulary for campaign drivers: every harness
// that fans out over the engine accepts the same --jobs / --json /
// --timeout-ms / --smoke / --progress / --cache flags with the same
// semantics, parsed by one helper so the flags cannot drift apart.
#pragma once

#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "exec/engine.hpp"

namespace hwst::exec {

struct GridOptions {
    unsigned jobs = 0;        ///< 0 = HWST_JOBS / hardware_concurrency
    std::string json_path;    ///< explicit --json PATH ("" = default)
    bool json = true;         ///< --no-json disables the BENCH file
    u64 timeout_ms = 0;       ///< 0 = no per-job timeout
    bool smoke = false;       ///< tiny grid for CI smoke runs
    bool progress = false;    ///< live progress line on stderr
    std::string cache_dir;    ///< --cache DIR: content-addressed cache root

    EngineOptions engine() const
    {
        return EngineOptions{
            .jobs = jobs,
            .timeout = std::chrono::milliseconds{timeout_ms},
            .progress = progress,
        };
    }
};

/// The largest --timeout-ms: about 35 years, so the deadline
/// steady_clock::now() + budget cannot overflow its nanosecond count.
inline constexpr u64 kMaxTimeoutMs = u64{1} << 40;

/// Parse a count (--jobs, --timeout-ms, HWST_JOBS): digits of `base`
/// only (10, or 16 behind a required 0x or 0X prefix, digits of either
/// case), at most `max`. Returns nullopt for anything else — "", "abc",
/// "4x", "-1", "+3", " 7", a base-16 value with no prefix ("64" is not
/// read as 0x64), or a value above `max`.
inline std::optional<u64> parse_count(std::string_view s,
                                      u64 max = ~u64{0}, unsigned base = 10)
{
    if (base == 16) {
        if (!s.starts_with("0x") && !s.starts_with("0X")) return std::nullopt;
        s.remove_prefix(2);
    }
    if (s.empty()) return std::nullopt;
    u64 n = 0;
    for (const char c : s) {
        u64 digit = 0;
        if (c >= '0' && c <= '9') digit = static_cast<u64>(c - '0');
        else if (base == 16 && c >= 'a' && c <= 'f')
            digit = static_cast<u64>(c - 'a' + 10);
        else if (base == 16 && c >= 'A' && c <= 'F')
            digit = static_cast<u64>(c - 'A' + 10);
        else return std::nullopt;
        if (n > (max - digit) / base) return std::nullopt;
        n = n * base + digit;
    }
    return n;
}

/// The value of a count flag (--jobs, --seeds, --repeat, fig6's
/// stride, fault_tool's --xor in base 16, ...): parse_count's rules, at
/// least `min` and at most `max`. Throws common::ToolchainError naming
/// the flag otherwise.
inline u64 count_flag(std::string_view flag, std::string_view v,
                      u64 min = 0, u64 max = ~u64{0}, unsigned base = 10)
{
    const auto n = parse_count(v, max, base);
    if (!n || *n < min)
        throw common::ToolchainError{
            std::string{flag} + " needs a " +
            (base == 16 ? "0x-prefixed hex" : "whole") + " number in [" +
            std::to_string(min) + ", " + std::to_string(max) + "], got '" +
            std::string{v} + "'"};
    return *n;
}

/// The value of a percentage flag (--gate, --expect-cached): a plain
/// decimal number in [0, 100], with no sign, exponent or trailing junk.
/// Throws common::ToolchainError naming the flag otherwise.
inline double percent_flag(std::string_view flag, std::string_view v)
{
    bool digit = false;
    bool dot = false;
    bool ok = v.size() <= 32;
    for (const char c : v) {
        if (c >= '0' && c <= '9')
            digit = true;
        else if (c == '.' && !dot)
            dot = true;
        else
            ok = false;
    }
    const double pct = ok && digit ? std::stod(std::string{v}) : -1.0;
    if (pct < 0.0 || pct > 100.0)
        throw common::ToolchainError{std::string{flag} +
                                     " needs a percentage in [0, 100], "
                                     "got '" +
                                     std::string{v} + "'"};
    return pct;
}

/// Try to consume argv[i] (and possibly argv[i+1]) as one of the shared
/// grid flags. Returns true and advances `i` past the flag when it
/// matched; the caller handles its own flags otherwise. A malformed
/// value throws common::ToolchainError naming the flag.
inline bool parse_grid_flag(GridOptions& o, int argc, char** argv, int& i)
{
    const std::string a = argv[i];
    const auto need = [&](const char* what) -> std::string {
        if (i + 1 >= argc)
            throw common::ToolchainError{std::string{what} +
                                         " needs an argument"};
        return argv[++i];
    };
    if (a == "--jobs") {
        o.jobs = static_cast<unsigned>(count_flag(
            a, need("--jobs"), 1, std::numeric_limits<unsigned>::max()));
        return true;
    }
    if (a == "--json") {
        // --json takes an optional path: treat a following non-flag
        // token as the path.
        o.json = true;
        if (i + 1 < argc && argv[i + 1][0] != '-') o.json_path = argv[++i];
        return true;
    }
    if (a == "--no-json") {
        o.json = false;
        return true;
    }
    if (a == "--timeout-ms") {
        o.timeout_ms = count_flag(a, need("--timeout-ms"), 0, kMaxTimeoutMs);
        return true;
    }
    if (a == "--smoke") {
        o.smoke = true;
        return true;
    }
    if (a == "--progress") {
        o.progress = true;
        return true;
    }
    if (a == "--cache") {
        o.cache_dir = need("--cache");
        return true;
    }
    return false;
}

inline constexpr const char* kGridFlagsHelp =
    "  --jobs N         worker threads (default: HWST_JOBS or all cores)\n"
    "  --json [PATH]    write BENCH_<name>.json (default on; PATH "
    "overrides)\n"
    "  --no-json        skip the BENCH json file\n"
    "  --timeout-ms T   per-job wall-clock budget (0 = unlimited)\n"
    "  --smoke          tiny grid for CI smoke runs\n"
    "  --progress       live progress line on stderr\n"
    "  --cache DIR      serve finished cells from the content-addressed\n"
    "                   result cache at DIR and publish fresh ones "
    "back\n";

} // namespace hwst::exec

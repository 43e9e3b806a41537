// Shared environment-variable parsing for the HWST_* choice switches
// (HWST_TIER): one parser, so every switch accepts its vocabulary
// case-insensitively and a typo'd value is reported and ignored, never
// silently taken as some other mode.
#pragma once

#include <cctype>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>

namespace hwst::common {

/// Emit `msg` to stderr at most once per distinct `key` for the whole
/// process. Shared by every env diagnostic so a campaign spawning
/// thousands of Machines warns exactly once per misconfiguration.
inline void warn_once(const std::string& key, const std::string& msg)
{
    static std::mutex mutex;
    static std::set<std::string> warned;
    const std::lock_guard lock{mutex};
    if (warned.insert(key).second) std::cerr << msg;
}

/// Parse a choice flag value against `allowed` (case-insensitive).
/// Returns the index of the match, or nullopt.
inline std::optional<unsigned>
parse_choice_flag(std::string_view s,
                  std::initializer_list<std::string_view> allowed)
{
    std::string t;
    t.reserve(s.size());
    for (const char c : s)
        t.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    unsigned i = 0;
    for (const std::string_view a : allowed) {
        if (t == a) return i;
        ++i;
    }
    return std::nullopt;
}

/// Read `name` as a choice among `allowed` (e.g. HWST_TIER over
/// {"auto","interp","dbt"}). Unset -> nullopt; set to an unrecognized
/// value -> nullopt plus a once-per-variable stderr diagnostic listing
/// the vocabulary.
inline std::optional<unsigned>
env_choice(const char* name, std::initializer_list<std::string_view> allowed)
{
    const char* e = std::getenv(name);
    if (!e) return std::nullopt;
    const auto v = parse_choice_flag(e, allowed);
    if (!v) {
        std::string vocab;
        for (const std::string_view a : allowed) {
            if (!vocab.empty()) vocab += '/';
            vocab += a;
        }
        warn_once(name, std::string{"[env] "} + name + "='" + e +
                            "' is not one of " + vocab + "; ignoring\n");
    }
    return v;
}

} // namespace hwst::common

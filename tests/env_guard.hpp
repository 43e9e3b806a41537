// Scoped environment variable for tests that read HWST_* switches.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

/// Sets (value) or unsets (nullptr) an environment variable for one
/// scope, restoring whatever the process had before.
class EnvGuard {
public:
    EnvGuard(const char* name, const char* value) : name_{name}
    {
        if (const char* old = std::getenv(name)) old_ = old;
        if (value) ::setenv(name, value, 1);
        else ::unsetenv(name);
    }
    ~EnvGuard()
    {
        if (old_) ::setenv(name_.c_str(), old_->c_str(), 1);
        else ::unsetenv(name_.c_str());
    }
    EnvGuard(const EnvGuard&) = delete;
    EnvGuard& operator=(const EnvGuard&) = delete;

private:
    std::string name_;
    std::optional<std::string> old_;
};

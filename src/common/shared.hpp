// Shared<T>: an immutable value behind a shared pointer. Copies share
// one object, so snapshots that hold many equal parts (the pages and
// allocators of consecutive golden-prefix checkpoints) store each part
// once, while `==` still compares values.
#pragma once

#include <memory>
#include <utility>

namespace hwst::common {

template <class T>
class Shared {
public:
    explicit Shared(T value)
        : p_{std::make_shared<const T>(std::move(value))}
    {
    }

    /// `value`, reusing `prev`'s object if it holds an equal one.
    static Shared reuse(const Shared* prev, const T& value)
    {
        return prev && **prev == value ? *prev : Shared{value};
    }

    const T& operator*() const { return *p_; }
    const T* operator->() const { return p_.get(); }
    bool operator==(const Shared& o) const
    {
        return p_ == o.p_ || *p_ == *o.p_;
    }
    /// True if no other copy shares this object.
    bool unique() const { return p_.use_count() == 1; }

private:
    std::shared_ptr<const T> p_;
};

} // namespace hwst::common

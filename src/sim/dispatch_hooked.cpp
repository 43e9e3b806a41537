// The probe-hooked copy of the superblock dispatcher
// (sim/dispatch_impl.hpp).
#include "sim/dispatch_impl.hpp"

namespace hwst::sim {

template bool run_superblocks<true>(Machine&, const std::function<bool()>*,
                                    u64, u64, Trap&);

} // namespace hwst::sim

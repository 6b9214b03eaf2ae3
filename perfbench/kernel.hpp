// Reference kernel for host-cost normalisation.
//
// A fixed, deterministic unit of work shaped like the simulator's own
// mix: SHA-256 compressions, a std::function event queue, string-keyed
// hash-map churn and byte-vector copies. The benchmark divides the host
// time of a simulated run by the host time of this kernel, run between
// fixed simulated windows of that same run, so machine-speed drift
// (frequency scaling, noisy neighbours) cancels out of `host_cost`.
//
// This file and kernel.cpp use the C++ standard library only: the build
// links them into a standalone executable without the simulator, so the
// kernel can never call repository code and drift with it.
#pragma once

#include <cstdint>

namespace perfbench {

/// Run one kernel unit (about a millisecond on a current x86 core) and
/// return a checksum of its work (always the same value: the work is
/// fixed, the checksum only keeps the optimiser from dropping it).
std::uint64_t reference_kernel_unit();

/// The checksum every call of reference_kernel_unit() must return.
std::uint64_t reference_kernel_checksum();

}  // namespace perfbench

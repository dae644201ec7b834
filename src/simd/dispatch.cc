#include "simd/dispatch.hh"

#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "simd/kernels.hh"

namespace pargpu::simd
{

namespace
{

/** True when this build compiled the AVX2 kernels (x86 targets). */
constexpr bool
buildHasVectorKernels()
{
#ifdef PARGPU_SIMD_ENABLED
    return true;
#else
    return false;
#endif
}

/** Fatal unless @p t can actually run here (build knob + CPUID). */
SimdTier
validateTier(SimdTier t)
{
    if (t != SimdTier::Scalar && !buildHasVectorKernels())
        fatal(std::string("PARGPU_SIMD tier '") + tierName(t) +
              "' requested but this build compiled scalar kernels only "
              "(non-x86 target)");
    if (t == SimdTier::Avx2 && !hostHasAvx2())
        fatal("PARGPU_SIMD=avx2 requested but the CPU lacks AVX2");
    return t;
}

// Set once from the environment before main() and read-only after;
// deterministic per run by construction. pargpu-analyze: allow(global-state)
SimdTier g_tier = [] {
    const char *v = std::getenv("PARGPU_SIMD");
    if (v == nullptr || v[0] == '\0')
        return detectTier();
    if (std::strcmp(v, "scalar") == 0)
        return SimdTier::Scalar;
    if (std::strcmp(v, "avx2") == 0)
        return validateTier(SimdTier::Avx2);
    fatal(std::string("PARGPU_SIMD must be 'scalar' or 'avx2', got '") + v +
          "'");
}();

} // namespace

bool
hostHasSse()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("sse2") != 0;
#else
    return false;
#endif
}

bool
hostHasAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

SimdTier
detectTier()
{
    if (buildHasVectorKernels() && hostHasAvx2())
        return SimdTier::Avx2;
    return SimdTier::Scalar;
}

SimdTier
activeTier()
{
    return g_tier;
}

void
setActiveTier(SimdTier t)
{
    g_tier = validateTier(t);
}

const char *
tierName(SimdTier t)
{
    switch (t) {
    case SimdTier::Scalar: return "scalar";
    case SimdTier::Avx2: return "avx2";
    }
    return "unknown";
}

int
tierLanes(SimdTier t)
{
    return t == SimdTier::Avx2 ? 8 : 1;
}

const KernelOps &
activeKernels()
{
#ifdef PARGPU_SIMD_ENABLED
    if (g_tier == SimdTier::Avx2)
        return avx2Kernels();
#endif
    return scalarKernels();
}

} // namespace pargpu::simd

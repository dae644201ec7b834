/**
 * @file
 * Runtime instruction-set dispatch for the SoA filtering kernels.
 *
 * The kernel layer ships one scalar reference implementation plus SSE and
 * AVX2 variants (compiled only with -DPARGPU_SIMD=ON). The process-wide
 * active tier is chosen once: the PARGPU_SIMD environment variable
 * (scalar|sse|avx2) when set — fatal if it names a tier this build or CPU
 * cannot run — otherwise the widest tier the host CPU supports. All tiers
 * produce bit-identical filtering results; the tier only changes host
 * wall-clock, never simulated metrics.
 *
 * setActiveTier() is a test and bench hook, not thread-safe, to be
 * called before any rendering starts.
 */

#ifndef PARGPU_SIMD_DISPATCH_HH
#define PARGPU_SIMD_DISPATCH_HH

namespace pargpu::simd
{

/** Instruction-set tier of a kernel implementation. */
enum class SimdTier
{
    Scalar, ///< Portable reference (always available).
    Sse,    ///< 4-lane SSE2 (x86-64 baseline).
    Avx2,   ///< 8-lane AVX2.
};

/** Widest tier this build and the host CPU can run. */
SimdTier detectTier();

/**
 * The tier the process filters with: the PARGPU_SIMD override when set,
 * else detectTier().
 */
SimdTier activeTier();

/**
 * Override the active tier (test/bench hook; fatal if @p t is not
 * runnable). Not thread-safe: call before building simulators.
 */
void setActiveTier(SimdTier t);

/** "scalar" | "sse" | "avx2". */
const char *tierName(SimdTier t);

/** Vector width of a tier in samples (scalar 1, SSE 4, AVX2 8). */
int tierLanes(SimdTier t);

/** Raw host CPUID feature flags (independent of the build knob). */
bool hostHasSse();
bool hostHasAvx2();

} // namespace pargpu::simd

#endif // PARGPU_SIMD_DISPATCH_HH

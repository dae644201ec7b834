/**
 * @file
 * Runtime instruction-set dispatch for the SoA filtering kernels.
 *
 * The kernel layer ships one scalar reference implementation plus an AVX2
 * variant (compiled on x86 targets only). The process-wide active tier is
 * chosen once: the PARGPU_SIMD environment variable (scalar|avx2) when
 * set — fatal if it names a tier this build or CPU cannot run — otherwise
 * AVX2 when the build and CPU support it, else scalar. Both tiers produce
 * bit-identical results; the tier only changes host wall-clock, never
 * simulated metrics.
 *
 * setActiveTier() is a test and bench hook, not thread-safe, to be
 * called before any rendering starts.
 */

#ifndef PARGPU_SIMD_DISPATCH_HH
#define PARGPU_SIMD_DISPATCH_HH

namespace pargpu::simd
{

/**
 * Instruction-set tier of a kernel implementation. The values are
 * exported as `simd.dispatch` and stay pinned (1 was the retired SSE
 * tier).
 */
enum class SimdTier
{
    Scalar = 0, ///< Portable reference (always available).
    Avx2 = 2,   ///< 8-lane AVX2.
};

/** AVX2 when this build and the host CPU can run it, else scalar. */
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

/** "scalar" | "avx2". */
const char *tierName(SimdTier t);

/** Vector width of a tier in samples (scalar 1, AVX2 8). */
int tierLanes(SimdTier t);

/** Raw host CPUID feature flags (independent of what the build compiled). */
bool hostHasSse();
bool hostHasAvx2();

} // namespace pargpu::simd

#endif // PARGPU_SIMD_DISPATCH_HH

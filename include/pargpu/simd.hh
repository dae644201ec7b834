/**
 * @file
 * pargpu public API — SoA filtering kernel layer.
 *
 * Re-exports the kernel table with its runtime instruction-set dispatch
 * and the QuadFilter front-end for kernel benches and bit-identity
 * tests.
 *
 * Session-status: neutral — data types and models that Session runs
 * use; no run entry points of its own.
 */

#ifndef PARGPU_SIMD_HH
#define PARGPU_SIMD_HH

#include "simd/dispatch.hh"
#include "simd/filter.hh"
#include "simd/kernels.hh"

#endif // PARGPU_SIMD_HH

/**
 * @file
 * pargpu public API — simulator internals surface.
 *
 * Re-exports the GpuSimulator pipeline with FrameStats/FrameOutput, the
 * rasterizer quad types, and the stereo-rendering model for benches that
 * drive the simulator directly.
 *
 * Session-status: neutral — data types and models that Session runs
 * use; no run entry points of its own.
 */

#ifndef PARGPU_SIM_HH
#define PARGPU_SIM_HH

#include "sim/pipeline.hh"
#include "sim/raster.hh"
#include "sim/stereo.hh"

#endif // PARGPU_SIM_HH

/**
 * @file
 * pargpu public API — image quality metrics.
 *
 * Re-exports the SSIM/MSSIM implementation used for the paper's quality
 * axis.
 *
 * Session-status: neutral — data types and models that Session runs
 * use; no run entry points of its own.
 */

#ifndef PARGPU_QUALITY_HH
#define PARGPU_QUALITY_HH

#include "quality/ssim.hh"

#endif // PARGPU_QUALITY_HH

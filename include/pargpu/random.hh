/**
 * @file
 * pargpu public API — deterministic RNG.
 *
 * Re-exports the seeded RNG every procedural generator uses (rand() is
 * banned repo-wide for reproducibility).
 *
 * Session-status: neutral — data types and models that Session runs
 * use; no run entry points of its own.
 */

#ifndef PARGPU_RANDOM_HH
#define PARGPU_RANDOM_HH

#include "common/rng.hh"

#endif // PARGPU_RANDOM_HH

/**
 * @file
 * pargpu public API — game workloads.
 *
 * Re-exports GameTrace/GameId/buildGameTrace, the Table II benchmark list
 * (paperBenchmarks), and the procedural scene/mesh builders.
 *
 * Session-status: neutral — data types and models that Session runs
 * use; no run entry points of its own.
 */

#ifndef PARGPU_SCENES_HH
#define PARGPU_SCENES_HH

#include "scenes/meshes.hh"
#include "scenes/scenes.hh"

#endif // PARGPU_SCENES_HH

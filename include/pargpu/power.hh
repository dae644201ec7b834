/**
 * @file
 * pargpu public API — energy model.
 *
 * Re-exports the per-frame energy breakdown (computeEnergy,
 * EnergyBreakdown, averagePowerW) behind Fig. 17's energy axis.
 *
 * Session-status: neutral — data types and models that Session runs
 * use; no run entry points of its own.
 */

#ifndef PARGPU_POWER_HH
#define PARGPU_POWER_HH

#include "power/energy.hh"

#endif // PARGPU_POWER_HH

/**
 * @file
 * pargpu public API — memory hierarchy models.
 *
 * Re-exports the set-associative cache, DRAM timing model and the composed
 * MemorySystem for cache-focused benches.
 *
 * Session-status: neutral — data types and models that Session runs
 * use; no run entry points of its own.
 */

#ifndef PARGPU_MEM_HH
#define PARGPU_MEM_HH

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/memsys.hh"

#endif // PARGPU_MEM_HH

/**
 * @file
 * pargpu public API — replay and user-study models.
 *
 * Re-exports the vsync replay model and the user-study score synthesis
 * (Figs. 19-20).
 *
 * Session-status: neutral — data types and models that Session runs
 * use; no run entry points of its own.
 */

#ifndef PARGPU_REPLAY_HH
#define PARGPU_REPLAY_HH

#include "replay/replay.hh"
#include "replay/userstudy.hh"

#endif // PARGPU_REPLAY_HH

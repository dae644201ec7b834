/**
 * @file
 * pargpu public API — the Session facade and the serve protocol.
 *
 * Re-exports the session-based entry points (docs/SERVE.md): Session
 * (immutable shared assets via load(), synchronous run()/sweep(),
 * asynchronous submit()/submitSweep() returning JobHandles with streamed
 * metrics snapshots), the typed Status/StatusCode error surface,
 * the validated EnvOverrides snapshot, and the ServeLoop request loop
 * that pargpu_serve wraps. This is the only execution surface.
 *
 * Session-status: session — the canonical Session-based entry point.
 */

#ifndef PARGPU_SESSION_HH
#define PARGPU_SESSION_HH

#include "harness/serve.hh"
#include "harness/session.hh"

#endif // PARGPU_SESSION_HH

/**
 * @file
 * Procedural game scenes standing in for the paper's Table II traces.
 *
 * Each generator produces a deterministic multi-frame trace whose geometry
 * and texture statistics are tuned to a distinct point of the anisotropy-
 * distribution space (see DESIGN.md): racing games have vast grazing-angle
 * track surfaces (heavy AF), indoor shooters mix walls and floors, and the
 * R.Bench stand-in stresses texture rate. The absolute content differs from
 * the commercial games; the workload *shape* — which is what every
 * experiment in the paper measures — is preserved.
 */

#ifndef PARGPU_SCENES_SCENES_HH
#define PARGPU_SCENES_SCENES_HH

#include <string>
#include <vector>

#include "sim/geometry.hh"
#include "texture/procedural.hh"

namespace pargpu
{

/** The evaluated workloads (Table II plus the R.Bench stand-in). */
enum class GameId
{
    HL2,     ///< Half-Life 2 style: outdoor terrain + buildings.
    Doom3,   ///< Doom 3 style: dark indoor corridors.
    Grid,    ///< GRID style: racing track.
    Nfs,     ///< Need For Speed style: street racing.
    Stalker, ///< S.T.A.L.K.E.R. style: outdoor ruins.
    Ut3,     ///< Unreal Tournament 3 style: arena.
    Wolf,    ///< Wolfenstein style: low-res indoor.
    RBench,  ///< Relative Benchmark style: texture-rate stress.
};

/** Short name used in result tables ("HL2", "doom3", ...). */
const char *gameAbbr(GameId id);

/** How a texture slot was generated (for trace serialization). */
struct TextureRecipe
{
    TextureKind kind = TextureKind::Noise;
    int size = 512;
    std::uint32_t seed = 0;
    WrapMode wrap = WrapMode::Repeat;
};

/** A complete replayable workload: scene + per-frame cameras. */
struct GameTrace
{
    std::string name;            ///< e.g. "HL2-1600x1200".
    GameId id = GameId::HL2;
    int width = 1280;
    int height = 1024;
    Scene scene;
    std::vector<Camera> cameras; ///< One per frame.
    std::vector<TextureRecipe> recipes; ///< Parallel to scene.textures.
};

/**
 * Largest accepted viewport side in pixels (the trace reader's texture
 * side cap). The largest render in use is fig04's 3840x2160.
 */
constexpr int kMaxViewportSide = 8192;

/**
 * True when both sides of a @p width x @p height viewport are in
 * [1, kMaxViewportSide]. Every viewport from outside the program (CLI
 * flags, serve requests, trace files) is checked with this before any
 * per-pixel allocation.
 */
constexpr bool
viewportInRange(int width, int height)
{
    return width >= 1 && width <= kMaxViewportSide && height >= 1 &&
        height <= kMaxViewportSide;
}

/**
 * Largest accepted frame (camera) count, the trace reader's camera cap.
 * Every frame count from outside the program (CLI flags, serve requests,
 * trace files) is checked against it before any trace is built.
 */
constexpr int kMaxFrames = 1 << 20;

/** True when @p frames is in [1, kMaxFrames]. */
constexpr bool
framesInRange(int frames)
{
    return frames >= 1 && frames <= kMaxFrames;
}

/**
 * Build the trace for @p id at the given resolution.
 *
 * @param frames  Number of camera frames to generate.
 */
GameTrace buildGameTrace(GameId id, int width, int height, int frames = 3);

/** One row of the paper's Table II. */
struct BenchmarkEntry
{
    GameId id;
    const char *abbr;
    const char *full_name;
    int width;
    int height;
    const char *library; ///< Rendering API of the original game.
};

/**
 * The nine game/resolution pairs evaluated throughout Section VII
 * (HL2 and Doom3 at three resolutions each, plus five games at one).
 */
std::vector<BenchmarkEntry> paperBenchmarks();

} // namespace pargpu

#endif // PARGPU_SCENES_SCENES_HH

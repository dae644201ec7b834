/**
 * @file
 * Baseline GPU configuration (the paper's Table I) plus the timing
 * parameters of the cycle-approximate model.
 *
 * The baseline references the PowerVR Rogue-class mobile part the paper
 * models: 1 GHz, 4 unified-shader clusters of 16 SIMD4 shaders, one texture
 * unit per cluster with 4 address ALUs and 8 filtering ALUs at 2 cycles per
 * trilinear sample, 16 KB 4-way texture L1, 128 KB 8-way L2, and 8-channel
 * / 8-bank DRAM moving 16 bytes per cycle.
 */

#ifndef PARGPU_SIM_CONFIG_HH
#define PARGPU_SIM_CONFIG_HH

#include "common/types.hh"
#include "core/patu.hh"
#include "mem/memsys.hh"
#include "texture/filter_policy.hh"

namespace pargpu
{

/** Full simulator configuration. */
struct GpuConfig
{
    // --- Table I fixed parameters -------------------------------------
    double frequency_ghz = 1.0;       ///< Core clock.
    unsigned clusters = 4;            ///< Unified-shader clusters.
    unsigned shaders_per_cluster = 16;///< Shaders per cluster.
    unsigned simd_width = 4;          ///< SIMD4-scale ALUs.
    unsigned tile_size = 16;          ///< Tiling-engine tile edge (16x16).
    unsigned texture_units = 1;       ///< Per cluster.
    unsigned addr_alus = 4;           ///< Texel address ALUs per TU.
    unsigned filter_alus = 8;         ///< Filtering ALUs per TU.
    Cycle cycles_per_trilinear = 2;   ///< TU filtering throughput.
    int max_aniso = 16;               ///< Max AF level.

    // --- Cycle-approximate timing knobs --------------------------------
    Cycle vertex_cycles = 12;     ///< Vertex-shader cost per vertex.
    Cycle tri_setup_cycles = 8;   ///< Setup/binning cost per triangle.
    /**
     * Non-texture shader ALU work per quad, expressed as cluster-level
     * throughput cost (16 shaders hide most of the per-quad instruction
     * latency, leaving the issue cost). Calibrated so texture filtering
     * accounts for roughly 60 % of the fragment phase under 16x AF, the
     * ratio implied by the paper's Fig. 5 / Fig. 18 pairing.
     */
    Cycle frag_quad_cycles = 19;

    /**
     * Fraction of the shorter of {shader work, texture work} hidden by
     * overlapping the two per quad. 1.0 would be perfect overlap (quad
     * costs the max of the two); 0.0 fully serial (texture results sit on
     * the shader's critical path). Real shaders hide texture time only
     * partially — they block on the filtered result midway through the
     * fragment program.
     */
    double tex_overlap = 0.5;
    Cycle raster_quad_cycles = 1; ///< Rasterizer/early-Z cost per quad.
    /**
     * Texture-fetch latency the TU hides per quad via its in-flight
     * texel FIFO. GPUs hide the full uncontended DRAM latency this way;
     * only queueing delay beyond it — i.e., genuine bandwidth saturation
     * in the DRAM model's busy-until timestamps — stalls the pipeline.
     */
    Cycle mem_overlap_credit = 320;

    /**
     * Drive each frame's fragment phase tile-parallel across clusters:
     * per draw, the clusters record their statically assigned tiles
     * concurrently on the shared thread pool (per-cluster texture unit,
     * L1 and stats; L1 misses staged), then the calling thread commits
     * every tile in canonical row-major order. Off, each tile is
     * recorded and committed inline in that same order. Shared LLC/DRAM
     * state, counters and cycle timing are bit-identical either way.
     * PARGPU_TILE_PARALLEL=1 forces it on process-wide.
     */
    bool tile_parallel = false;

    /**
     * Texture-unit filtering strategy for anisotropic draws
     * (docs/FILTERING.md). Patu is the paper's predictor-gated AF->TF
     * downgrade; the stochastic and filter-after-shading policies replace
     * the anisotropic loop wholesale and ignore the PATU predictor.
     */
    FilterPolicyId filter_policy = FilterPolicyId::Patu;

    // --- Subsystem configurations --------------------------------------
    MemSysConfig mem;   ///< Caches + DRAM (Table I defaults).
    PatuConfig patu;    ///< Design scenario + threshold.

    /** Field-wise equality: equal configs simulate identically. */
    bool operator==(const GpuConfig &) const = default;
};

/** Simulated GPU address-space map. */
struct AddressMap
{
    static constexpr Addr kVertexBase = 0x0400'0000;
    static constexpr Addr kTextureBase = 0x1000'0000;
    static constexpr Addr kFramebufferBase = 0x8000'0000;
};

} // namespace pargpu

#endif // PARGPU_SIM_CONFIG_HH

/**
 * @file
 * The Perception-Aware Texture Unit decision logic (Section V).
 *
 * PATU sits in the conventional texture-filtering pipeline (Fig. 14) and
 * decides, per pixel and before texel fetching, whether anisotropic
 * filtering can be replaced with a single trilinear sample:
 *
 *  - Stage 1, after Texel Generation: sample-area similarity check —
 *    AF-SSIM(N) (Eq. 6) against the threshold.
 *  - Stage 2, after Texel Address Calculation: texel-distribution check —
 *    AF's trilinear-sample address sets go through the 16-entry hash table,
 *    the count tags form a probability vector, and AF-SSIM(Txds) (Eq. 10)
 *    is compared against the same unified threshold.
 *
 * Approximated pixels are filtered with TF; under the full PATU design they
 * reuse AF's LOD (the finer mip level selected by the minor axis) to avoid
 * the intra-frame LOD shift of Section V-C(2).
 */

#ifndef PARGPU_CORE_PATU_HH
#define PARGPU_CORE_PATU_HH

#include <cstdint>
#include <span>
#include <string>

#include "common/stats.hh"
#include "core/hashtable.hh"
#include "texture/sampler.hh"

namespace pargpu
{

/** The design scenarios compared throughout Section VII. */
enum class DesignScenario
{
    Baseline,    ///< Conventional 16x AF on every anisotropic pixel.
    NoAF,        ///< AF disabled: TF everywhere (Section II-B study).
    AfSsimN,     ///< Sample-area based prediction only.
    AfSsimNTxds, ///< Sample-area + distribution based prediction.
    Patu,        ///< Both predictions + LOD-shift elimination.
};

/** Human-readable scenario name for report tables. */
const char *scenarioName(DesignScenario s);

/** PATU configuration knobs. */
struct PatuConfig
{
    DesignScenario scenario = DesignScenario::Patu;
    /**
     * Unified AF-SSIM threshold in [0, 1] for both prediction stages
     * (Section IV-C(C)). Predicted AF-SSIM above the threshold marks the
     * pixel approximated. 0 disables AF entirely; 1 keeps the baseline.
     * Default 0.4 = the paper's average best point.
     */
    float threshold = 0.4f;
    int max_aniso = 16;     ///< Texture-unit anisotropy cap.
    int table_entries = 16; ///< Texel-address table capacity (ablation).

    bool operator==(const PatuConfig &) const = default;
};

/** How a pixel's filtering decision was reached. */
enum class DecisionStage
{
    TrivialTf,    ///< N == 1: AF degenerates to TF, no prediction needed.
    SampleArea,   ///< Approximated by stage 1 (AF-SSIM(N)).
    Distribution, ///< Approximated by stage 2 (AF-SSIM(Txds)).
    FullAf,       ///< Prediction kept AF.
    Forced,       ///< Scenario forced the outcome (Baseline / NoAF).
};

/** Result of the per-pixel decision flow (Fig. 13). */
struct PixelDecision
{
    bool approximate = false;  ///< Filter with TF instead of AF.
    bool need_distribution = false; ///< Stage 2 must still run.
    DecisionStage stage = DecisionStage::FullAf;
    float af_ssim_n = 1.0f;    ///< Stage-1 prediction value.
    float txds_value = -1.0f;  ///< Stage-2 Txds (-1 if not evaluated).
    float af_ssim_txds = -1.0f;///< Stage-2 prediction (-1 if not evaluated).
    float lod = 0.0f;          ///< LOD the chosen filter should use.
    int sample_size = 1;       ///< Sample count the chosen filter issues.
};

/**
 * One PATU decision pipeline (a texture unit instantiates four, one per
 * pixel of a quad). Owns a TexelAddressTable and accumulates the decision
 * statistics the evaluation section reports.
 */
class PatuUnit
{
  public:
    explicit PatuUnit(const PatuConfig &config)
        : config_(config), table_(config.table_entries)
    {
    }

    const PatuConfig &config() const { return config_; }

    /**
     * Run everything decidable after Texel Generation: scenario forcing,
     * the trivial N == 1 case and the stage-1 sample-area check. If the
     * result has need_distribution set, the caller must compute the AF
     * footprints (address calculation) and call finishDistribution().
     */
    PixelDecision preDecide(const AnisotropyInfo &info);

    /**
     * preDecide() for @p count pixels that share the same AnisotropyInfo
     * (a quad's covered pixels — the info is quad-wide). The decision is
     * a pure function of the info, so one evaluation serves all pixels;
     * the per-pixel decision counters advance by @p count, exactly as
     * count preDecide() calls would. count == 0 is a no-op returning the
     * (unused) decision.
     */
    PixelDecision preDecideN(const AnisotropyInfo &info, int count);

    /**
     * Run the stage-2 distribution check on the AF trilinear samples'
     * address sets and finalize the decision.
     *
     * @param d        Decision returned by preDecide() with
     *                 need_distribution set.
     * @param info     The pixel's anisotropy parameters (for LOD re-select).
     * @param samples  The N AF trilinear samples (address sets filled in).
     */
    void finishDistribution(PixelDecision &d, const AnisotropyInfo &info,
                            std::span<const TrilinearSample> samples);

    /** finishDistribution() on pre-extracted address sets (hot path). */
    void finishDistribution(PixelDecision &d, const AnisotropyInfo &info,
                            std::span<const TexelAddrSet> sets);

    /**
     * Measurement helper for the Fig. 12 statistic: count how many of the
     * AF samples share a texel set with a previously seen sample of the
     * same pixel (first occurrence of each distinct set is the "original").
     *
     * @return Number of shared (non-first-occurrence) samples.
     */
    int countSharedSamples(std::span<const TrilinearSample> samples);

    /** countSharedSamples() on pre-extracted address sets (hot path). */
    int countSharedSamples(std::span<const TexelAddrSet> sets);

    /** Decision statistics accumulated since construction. */
    const StatRegistry &stats() const { return stats_; }
    StatRegistry &stats() { return stats_; }

  private:
    /** LOD an approximated pixel's TF should use (Section V-C(2)). */
    float approximatedLod(const AnisotropyInfo &info) const;

    /**
     * Cached registry cell, bound on first use so counters that are never
     * touched stay absent from exports — exactly like inc() on demand.
     * The PatuUnit is single-threaded (one per texture-unit pipeline), so
     * bumping the cell directly is safe; see StatRegistry::counterCell().
     */
    std::uint64_t &
    cell(std::uint64_t *&c, const char *name)
    {
        if (c == nullptr)
            c = stats_.counterCell(name);
        return *c;
    }

    PatuConfig config_;
    TexelAddressTable table_;
    StatRegistry stats_;
    std::uint64_t *ctr_pixels_ = nullptr;
    std::uint64_t *ctr_full_af_ = nullptr;
    std::uint64_t *ctr_approx_forced_ = nullptr;
    std::uint64_t *ctr_trivial_tf_ = nullptr;
    std::uint64_t *ctr_stage1_ = nullptr;
    std::uint64_t *ctr_stage2_ = nullptr;
    std::uint64_t *ctr_addr_recalc_ = nullptr;
    std::uint64_t *ctr_table_inserts_ = nullptr;
    std::uint64_t *ctr_table_shared_ = nullptr;
};

/** Extract the 8-address set of a trilinear sample. */
TexelAddrSet addrSetOf(const TrilinearSample &s);

} // namespace pargpu

#endif // PARGPU_CORE_PATU_HH

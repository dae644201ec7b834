/**
 * @file
 * Structural Similarity (SSIM) image-quality metrics — the paper's
 * analysis-layer perception measure (Eq. 1 and 2), following Wang et al.,
 * "Image quality assessment: from error visibility to structural
 * similarity", IEEE TIP 2004.
 *
 * SSIM is computed on the luma plane with an 11x11 Gaussian window
 * (sigma = 1.5) and the standard stability constants C1 = (0.01 L)^2,
 * C2 = (0.03 L)^2 on a dynamic range L = 1.
 *
 * The map is computed in one serial pass over rows: the separable blur's
 * horizontal pass feeds a ring of `window` rows per blurred quantity and
 * the vertical pass reads that ring, so working memory is O(window *
 * width) rather than a dozen full-size planes. mssim() sums each row as
 * it is finished and never materializes the map; its value is bit for
 * bit mssimOfMap(ssimMap(x, y)). Parallelism lives one level up, across
 * frames (RunResult::mssimAgainst).
 */

#ifndef PARGPU_QUALITY_SSIM_HH
#define PARGPU_QUALITY_SSIM_HH

#include <vector>

#include "common/image.hh"

namespace pargpu
{

/** SSIM computation parameters. */
struct SsimParams
{
    int window = 11;      ///< Gaussian window diameter (odd).
    float sigma = 1.5f;   ///< Gaussian standard deviation.
    float k1 = 0.01f;     ///< C1 = (k1 * L)^2.
    float k2 = 0.03f;     ///< C2 = (k2 * L)^2.
    float range = 1.0f;   ///< Dynamic range L of the luma plane.
};

/**
 * Per-pixel SSIM index map between two images of identical dimensions.
 *
 * @param x       Reference image (the paper's AF-disabled X).
 * @param y       Distorted/compared image (the paper's AF-enabled Y).
 * @param params  Window/constant parameters.
 * @return Row-major SSIM values, one per pixel, each in [-1, 1].
 */
std::vector<float> ssimMap(const Image &x, const Image &y,
                           const SsimParams &params = {});

/** Mean SSIM (Eq. 2) between two images. */
double mssim(const Image &x, const Image &y, const SsimParams &params = {});

/** Mean of an SSIM map previously computed with ssimMap(). */
double mssimOfMap(const std::vector<float> &map);

/**
 * Render an SSIM map as a grayscale image (lighter = more similar),
 * the visualization used in the paper's Fig. 8.
 */
Image ssimMapImage(const std::vector<float> &map, int width, int height);

/** Mean squared error between luma planes. */
double mse(const Image &x, const Image &y);

/** Peak signal-to-noise ratio (dB) between luma planes; inf if identical. */
double psnr(const Image &x, const Image &y);

} // namespace pargpu

#endif // PARGPU_QUALITY_SSIM_HH

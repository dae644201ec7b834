#include "quality/ssim.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contract.hh"
#include "common/logging.hh"
#include "simd/kernels.hh"

namespace pargpu
{

namespace
{

// Normalized 1-D Gaussian kernel of odd diameter.
std::vector<float>
gaussianKernel(int window, float sigma)
{
    std::vector<float> k(window);
    int half = window / 2;
    float sum = 0.0f;
    for (int i = 0; i < window; ++i) {
        float d = static_cast<float>(i - half);
        k[i] = std::exp(-(d * d) / (2.0f * sigma * sigma));
        sum += k[i];
    }
    for (float &v : k)
        v /= sum;
    return k;
}

/**
 * Truncated-kernel weight sum for taps [lo, hi]: the ascending-d
 * accumulation order of the original per-pixel loop, so the value is
 * bit-identical to what that loop computed for every pixel sharing the
 * same truncation.
 */
float
truncatedWsum(const std::vector<float> &kernel, int half, int lo, int hi)
{
    float wsum = 0.0f;
    for (int d = lo; d <= hi; ++d)
        wsum += kernel[d + half];
    return wsum;
}

/** The five blurred quantities of Eq. 1: mu_x, mu_y, E[xx], E[yy], E[xy]. */
constexpr int kQuantities = 5;

/**
 * Horizontal pass of the separable Gaussian blur over one row, with edge
 * truncation + renormalization. Because the 2-D kernel is a separable
 * product, renormalizing each axis independently equals renormalizing
 * the truncated 2-D kernel.
 *
 * The interior, where the truncation bounds are uniform, is one
 * dispatched ssim_row call (ascending-tap chain + one divide per pixel,
 * vectorized across pixels). Edge pixels keep the scalar loop, whose
 * chain the scalar kernel tier mirrors exactly.
 */
void
blurRow(const float *row, float *out, int w,
        const std::vector<float> &kernel, float full_wsum,
        const simd::KernelOps &ops)
{
    const int window = static_cast<int>(kernel.size());
    const int half = window / 2;
    const int ix0 = std::min(half, w);
    const int ix1 = std::max(ix0, w - half);
    auto edge = [&](int x) {
        float acc = 0.0f, wsum = 0.0f;
        int lo = x - half < 0 ? -x : -half;
        int hi = x + half >= w ? w - 1 - x : half;
        for (int d = lo; d <= hi; ++d) {
            float kv = kernel[d + half];
            acc += kv * row[x + d];
            wsum += kv;
        }
        out[x] = acc / wsum;
    };
    for (int x = 0; x < ix0; ++x)
        edge(x);
    if (ix1 > ix0)
        ops.ssim_row(row + ix0 - half, out + ix0, ix1 - ix0, 1,
                     kernel.data(), window, full_wsum);
    for (int x = ix1; x < w; ++x)
        edge(x);
}

/**
 * Compute the SSIM map one row at a time, in row order, handing each
 * finished row to @p emit(y, row). Working memory is O(window * width):
 *
 *  - each source row is blurred horizontally once, for all five
 *    quantities, into a ring of `window` rows per quantity;
 *  - every ring row is stored twice, at slots r and r + window, so the
 *    rows under any vertical window are contiguous at stride w and the
 *    vertical pass is one ssim_row call per quantity, over the surviving
 *    (truncated) tap slice, exactly as on full planes;
 *  - the output row then applies Eq. 1 per pixel.
 *
 * Each value is the same chain of float operations a full-plane blur
 * performs, so the ring never changes a result (tests/ssim_test.cc pins
 * them bit for bit).
 */
template <typename Emit>
void
forEachSsimRow(const Image &x, const Image &y, const SsimParams &params,
               Emit &&emit)
{
    if (x.width() != y.width() || x.height() != y.height())
        fatal("ssimMap: image dimensions differ");
    if (params.window < 1 || params.window % 2 == 0)
        fatal("ssimMap: window must be odd and positive");
    PARGPU_ASSERT(params.sigma > 0.0f,
                  "Gaussian sigma must be positive: ", params.sigma);

    const int w = x.width();
    const int h = x.height();
    if (w == 0 || h == 0)
        return;
    const std::size_t wn = static_cast<std::size_t>(w);
    const int window = params.window;
    const int half = window / 2;
    const std::vector<float> kernel = gaussianKernel(window, params.sigma);
    const float full_wsum = truncatedWsum(kernel, half, -half, half);
    const simd::KernelOps &ops = simd::activeKernels();
    const float c1 = (params.k1 * params.range) * (params.k1 * params.range);
    const float c2 = (params.k2 * params.range) * (params.k2 * params.range);

    // One source row per quantity, the double-written horizontal ring,
    // and the vertical pass's output row per quantity.
    const std::size_t ring_rows = 2 * static_cast<std::size_t>(window);
    std::vector<float> src(kQuantities * wn);
    std::vector<float> ring(kQuantities * ring_rows * wn);
    std::vector<float> blurred(kQuantities * wn);
    std::vector<float> out(wn);
    float *const lx = &src[0];
    float *const ly = &src[wn];
    float *const xx = &src[2 * wn];
    float *const yy = &src[3 * wn];
    float *const xy = &src[4 * wn];

    int next = 0; // Next source row to blur horizontally.
    for (int row = 0; row < h; ++row) {
        const int lo = row - half < 0 ? -row : -half;
        const int hi = row + half >= h ? h - 1 - row : half;
        for (; next <= row + hi; ++next) {
            const Color4f *px = &x.pixels()[next * wn];
            const Color4f *py = &y.pixels()[next * wn];
            for (std::size_t i = 0; i < wn; ++i) {
                lx[i] = px[i].luma();
                ly[i] = py[i].luma();
                xx[i] = lx[i] * lx[i];
                yy[i] = ly[i] * ly[i];
                xy[i] = lx[i] * ly[i];
            }
            const std::size_t slot =
                static_cast<std::size_t>(next % window);
            for (int q = 0; q < kQuantities; ++q) {
                float *dst = &ring[(q * ring_rows + slot) * wn];
                blurRow(&src[q * wn], dst, w, kernel, full_wsum, ops);
                std::copy(dst, dst + wn, dst + window * wn);
            }
        }

        // Vertical pass: the truncation is uniform across a row, so each
        // quantity is one kernel call over the surviving tap slice.
        const float wsum = lo == -half && hi == half
            ? full_wsum : truncatedWsum(kernel, half, lo, hi);
        const std::size_t first =
            static_cast<std::size_t>((row + lo) % window);
        for (int q = 0; q < kQuantities; ++q)
            ops.ssim_row(&ring[(q * ring_rows + first) * wn],
                         &blurred[q * wn], w, w, kernel.data() + (lo + half),
                         hi - lo + 1, wsum);

        const float *mu_x = &blurred[0];
        const float *mu_y = &blurred[wn];
        const float *m_xx = &blurred[2 * wn];
        const float *m_yy = &blurred[3 * wn];
        const float *m_xy = &blurred[4 * wn];
        for (std::size_t i = 0; i < wn; ++i) {
            float mx = mu_x[i], my = mu_y[i];
            float var_x = m_xx[i] - mx * mx;
            float var_y = m_yy[i] - my * my;
            float cov = m_xy[i] - mx * my;
            float num = (2.0f * mx * my + c1) * (2.0f * cov + c2);
            float den = (mx * mx + my * my + c1) * (var_x + var_y + c2);
            out[i] = num / den;
        }
        emit(row, out.data());
    }
}

/** Mean of @p n SSIM values summing to @p sum, contract-checked. */
double
finishMean(double sum, std::size_t n)
{
    if (n == 0)
        return 0.0;
    double m = sum / static_cast<double>(n);
    // SSIM of real image pairs is bounded by [-1, 1]; our rendered pairs
    // stay non-negative but anticorrelated windows are legal, so contract
    // the mathematical bound (with one ulp of slack for the summation).
    PARGPU_CHECK_RANGE(m, -1.0 - 1e-6, 1.0 + 1e-6, "MSSIM bound");
    return m;
}

} // namespace

std::vector<float>
ssimMap(const Image &x, const Image &y, const SsimParams &params)
{
    const std::size_t w = static_cast<std::size_t>(x.width());
    std::vector<float> map(w * x.height());
    forEachSsimRow(x, y, params, [&](int row, const float *values) {
        std::copy(values, values + w, &map[row * w]);
    });
    return map;
}

double
mssim(const Image &x, const Image &y, const SsimParams &params)
{
    // Row-major accumulation: the same double additions, in the same
    // order, as mssimOfMap() over the whole map.
    double sum = 0.0;
    forEachSsimRow(x, y, params, [&](int, const float *values) {
        for (int i = 0; i < x.width(); ++i)
            sum += values[i];
    });
    return finishMean(sum, static_cast<std::size_t>(x.width()) * x.height());
}

double
mssimOfMap(const std::vector<float> &map)
{
    double sum = 0.0;
    for (float v : map)
        sum += v;
    return finishMean(sum, map.size());
}

Image
ssimMapImage(const std::vector<float> &map, int width, int height)
{
    if (map.size() != static_cast<std::size_t>(width) * height)
        fatal("ssimMapImage: map size does not match dimensions");
    Image img(width, height);
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            float v = map[static_cast<std::size_t>(y) * width + x];
            float g = v < 0.0f ? 0.0f : v;
            img.at(x, y) = Color4f{g, g, g, 1.0f};
        }
    }
    return img;
}

double
mse(const Image &x, const Image &y)
{
    if (x.width() != y.width() || x.height() != y.height())
        fatal("mse: image dimensions differ");
    std::vector<float> lx = x.lumaPlane();
    std::vector<float> ly = y.lumaPlane();
    double acc = 0.0;
    for (std::size_t i = 0; i < lx.size(); ++i) {
        double d = static_cast<double>(lx[i]) - ly[i];
        acc += d * d;
    }
    return lx.empty() ? 0.0 : acc / static_cast<double>(lx.size());
}

double
psnr(const Image &x, const Image &y)
{
    double m = mse(x, y);
    if (m <= 0.0)
        return std::numeric_limits<double>::infinity();
    return 10.0 * std::log10(1.0 / m);
}

} // namespace pargpu

// Compiled with -mavx2 (see CMakeLists.txt); keep this TU free of any
// inline code shared with portable translation units.
#include <immintrin.h>

#include "simd/kernels.hh"

namespace pargpu::simd
{

namespace
{

/**
 * A 2x2 quad is exactly one 4-lane vector, so this kernel runs at
 * 128-bit width (VEX-encoded). Every step is the scalar chain's
 * operation: vsubps/vmulps/vaddps in the same order (fixed instructions,
 * so no contraction to FMA), vdivps for the reciprocal (IEEE correctly
 * rounded, so it equals the scalar 1.0f/x), and vcmpneqps keeping the
 * unordered semantics of the scalar != guard. The window test is integer
 * and computed outside the vector path, exactly as the scalar kernel
 * evaluates it.
 */
void
edgeQuadAvx2(const EdgeTri &tri, int qx, int qy, int x0, int y0, int x1,
             int y1, EdgeQuadOut &out)
{
    const __m128 half = _mm_set1_ps(0.5f);
    const __m128 vcx = _mm_add_ps(
        _mm_cvtepi32_ps(_mm_setr_epi32(qx, qx + 1, qx, qx + 1)), half);
    const __m128 vcy = _mm_add_ps(
        _mm_cvtepi32_ps(_mm_setr_epi32(qy, qy, qy + 1, qy + 1)), half);

    const __m128 ax = _mm_set1_ps(tri.ax), ay = _mm_set1_ps(tri.ay);
    const __m128 bx = _mm_set1_ps(tri.bx), by = _mm_set1_ps(tri.by);
    const __m128 cx = _mm_set1_ps(tri.cx), cy = _mm_set1_ps(tri.cy);

    const __m128 e0 = _mm_sub_ps(
        _mm_mul_ps(_mm_sub_ps(vcx, bx), _mm_sub_ps(cy, by)),
        _mm_mul_ps(_mm_sub_ps(vcy, by), _mm_sub_ps(cx, bx)));
    const __m128 e1 = _mm_sub_ps(
        _mm_mul_ps(_mm_sub_ps(vcx, cx), _mm_sub_ps(ay, cy)),
        _mm_mul_ps(_mm_sub_ps(vcy, cy), _mm_sub_ps(ax, cx)));

    const __m128 inv_area = _mm_set1_ps(tri.inv_area);
    const __m128 w0 = _mm_mul_ps(e0, inv_area);
    const __m128 w1 = _mm_mul_ps(e1, inv_area);
    const __m128 one = _mm_set1_ps(1.0f);
    const __m128 w2 = _mm_sub_ps(_mm_sub_ps(one, w0), w1);

    const __m128 inv_w = _mm_add_ps(
        _mm_add_ps(_mm_mul_ps(w0, _mm_set1_ps(tri.iw0)),
                   _mm_mul_ps(w1, _mm_set1_ps(tri.iw1))),
        _mm_mul_ps(w2, _mm_set1_ps(tri.iw2)));
    const __m128 u_w = _mm_add_ps(
        _mm_add_ps(_mm_mul_ps(w0, _mm_set1_ps(tri.uw0)),
                   _mm_mul_ps(w1, _mm_set1_ps(tri.uw1))),
        _mm_mul_ps(w2, _mm_set1_ps(tri.uw2)));
    const __m128 v_w = _mm_add_ps(
        _mm_add_ps(_mm_mul_ps(w0, _mm_set1_ps(tri.vw0)),
                   _mm_mul_ps(w1, _mm_set1_ps(tri.vw1))),
        _mm_mul_ps(w2, _mm_set1_ps(tri.vw2)));

    const __m128 zero = _mm_setzero_ps();
    const __m128 rcp = _mm_and_ps(_mm_div_ps(one, inv_w),
                                  _mm_cmpneq_ps(inv_w, zero));
    _mm_storeu_ps(out.u, _mm_mul_ps(u_w, rcp));
    _mm_storeu_ps(out.v, _mm_mul_ps(v_w, rcp));
    _mm_storeu_ps(out.depth,
                  _mm_add_ps(_mm_add_ps(
                                 _mm_mul_ps(w0, _mm_set1_ps(tri.z0)),
                                 _mm_mul_ps(w1, _mm_set1_ps(tri.z1))),
                             _mm_mul_ps(w2, _mm_set1_ps(tri.z2))));

    const __m128 inside = _mm_and_ps(
        _mm_and_ps(_mm_cmpge_ps(w0, zero), _mm_cmpge_ps(w1, zero)),
        _mm_cmpge_ps(w2, zero));
    const unsigned in0 = qx >= x0 && qx <= x1 ? 1u : 0u;
    const unsigned in1 = qx + 1 >= x0 && qx + 1 <= x1 ? 1u : 0u;
    const unsigned iny0 = qy >= y0 && qy <= y1 ? 1u : 0u;
    const unsigned iny1 = qy + 1 >= y0 && qy + 1 <= y1 ? 1u : 0u;
    const unsigned wmask = (in0 & iny0) | ((in1 & iny0) << 1) |
        ((in0 & iny1) << 2) | ((in1 & iny1) << 3);
    out.coverage =
        static_cast<unsigned>(_mm_movemask_ps(inside)) & wmask;
}

/**
 * 128-bit body (one quad is 4 lanes). vcmpltps is the scalar
 * depth < stored compare per lane; the and/andnot select stores the new
 * depth on pass lanes and rewrites the original bits on fail lanes (the
 * quad is fully in-window, so every lane's pixel belongs to this tile's
 * owner).
 */
unsigned
depthQuadAvx2(float *row0, float *row1, const float *depth)
{
    __m128 stored = _mm_setzero_ps();
    stored = _mm_loadl_pi(stored, reinterpret_cast<const __m64 *>(row0));
    stored = _mm_loadh_pi(stored, reinterpret_cast<const __m64 *>(row1));
    const __m128 d = _mm_loadu_ps(depth);
    const __m128 pass = _mm_cmplt_ps(d, stored);
    const __m128 updated =
        _mm_or_ps(_mm_and_ps(pass, d), _mm_andnot_ps(pass, stored));
    _mm_storel_pi(reinterpret_cast<__m64 *>(row0), updated);
    _mm_storeh_pi(reinterpret_cast<__m64 *>(row1), updated);
    return static_cast<unsigned>(_mm_movemask_ps(pass));
}

void
scatterQuadAvx2(float *row0, float *row1, const float *rgba, unsigned mask)
{
    if ((mask & 3u) == 3u) {
        _mm256_storeu_ps(row0, _mm256_loadu_ps(rgba));
    } else {
        if (mask & 1u)
            _mm_storeu_ps(row0, _mm_loadu_ps(rgba));
        if (mask & 2u)
            _mm_storeu_ps(row0 + 4, _mm_loadu_ps(rgba + 4));
    }
    if ((mask & 12u) == 12u) {
        _mm256_storeu_ps(row1, _mm256_loadu_ps(rgba + 8));
    } else {
        if (mask & 4u)
            _mm_storeu_ps(row1, _mm_loadu_ps(rgba + 8));
        if (mask & 8u)
            _mm_storeu_ps(row1 + 4, _mm_loadu_ps(rgba + 12));
    }
}

/**
 * 8 outputs per step. vmulps + vaddps in ascending tap order, never
 * vfmadd (the build does not enable FMA and the intrinsics are not
 * contractable), then one vdivps, so each lane's chain is bit-identical
 * to ssimRowScalar(); the tail runs that scalar chain itself.
 */
void
ssimRowAvx2(const float *src, float *out, int n, int stride,
            const float *k, int taps, float wsum)
{
    const __m256 vws = _mm256_set1_ps(wsum);
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256 acc = _mm256_setzero_ps();
        for (int t = 0; t < taps; ++t)
            acc = _mm256_add_ps(
                acc,
                _mm256_mul_ps(_mm256_set1_ps(k[t]),
                              _mm256_loadu_ps(src + i + t * stride)));
        _mm256_storeu_ps(out + i, _mm256_div_ps(acc, vws));
    }
    for (; i < n; ++i) {
        float acc = 0.0f;
        for (int t = 0; t < taps; ++t)
            acc += k[t] * src[i + t * stride];
        out[i] = acc / wsum;
    }
}

} // namespace

const KernelOps &
avx2Kernels()
{
    // Fills reuse the scalar loops: micro_kernels BM_FbClear measured
    // them faster than explicit 256-bit stores.
    static const KernelOps ops{edgeQuadAvx2,
                               scalarKernels().fill_color,
                               scalarKernels().fill_depth,
                               depthQuadAvx2,
                               scatterQuadAvx2,
                               ssimRowAvx2,
                               "avx2"};
    return ops;
}

} // namespace pargpu::simd

#include "simd/kernels.hh"

namespace pargpu::simd
{

namespace
{

/**
 * The reference 2x2 quad evaluation: the per-pixel loop body that lived
 * inline in rasterizeTriangle(), verbatim. Vector tiers evaluate the
 * same chain with one lane per pixel.
 */
void
edgeQuadScalar(const EdgeTri &tri, int qx, int qy, int x0, int y0, int x1,
               int y1, EdgeQuadOut &out)
{
    out.coverage = 0;
    for (int i = 0; i < 4; ++i) {
        const int px = qx + (i & 1);
        const int py = qy + (i >> 1);
        const float cx = px + 0.5f;
        const float cy = py + 0.5f;

        const float e0 = (cx - tri.bx) * (tri.cy - tri.by) -
            (cy - tri.by) * (tri.cx - tri.bx);
        const float e1 = (cx - tri.cx) * (tri.ay - tri.cy) -
            (cy - tri.cy) * (tri.ax - tri.cx);
        const float w0 = e0 * tri.inv_area;
        const float w1 = e1 * tri.inv_area;
        const float w2 = 1.0f - w0 - w1;

        const float inv_w = w0 * tri.iw0 + w1 * tri.iw1 + w2 * tri.iw2;
        const float u_w = w0 * tri.uw0 + w1 * tri.uw1 + w2 * tri.uw2;
        const float v_w = w0 * tri.vw0 + w1 * tri.vw1 + w2 * tri.vw2;
        // Exact-zero guard against dividing by an extrapolated 1/w of 0;
        // near-zero values are valid and must divide.
        const float rcp = // pargpu-lint: allow(float-eq)
            inv_w != 0.0f ? 1.0f / inv_w : 0.0f;
        out.u[i] = u_w * rcp;
        out.v[i] = v_w * rcp;
        out.depth[i] = w0 * tri.z0 + w1 * tri.z1 + w2 * tri.z2;

        const bool inside = w0 >= 0.0f && w1 >= 0.0f && w2 >= 0.0f;
        const bool in_window = px >= x0 && px <= x1 && py >= y0 && py <= y1;
        if (inside && in_window)
            out.coverage |= 1u << i;
    }
}

void
fillColorScalar(float *dst, int pixels, const float *rgba)
{
    for (int i = 0; i < pixels; ++i) {
        dst[4 * i + 0] = rgba[0];
        dst[4 * i + 1] = rgba[1];
        dst[4 * i + 2] = rgba[2];
        dst[4 * i + 3] = rgba[3];
    }
}

void
fillDepthScalar(float *dst, int count, float value)
{
    for (int i = 0; i < count; ++i)
        dst[i] = value;
}

/** The Framebuffer::depthTest compare-and-store, per lane. */
unsigned
depthQuadScalar(float *row0, float *row1, const float *depth)
{
    unsigned pass = 0;
    for (int i = 0; i < 4; ++i) {
        float &stored = i < 2 ? row0[i] : row1[i - 2];
        if (depth[i] < stored) {
            stored = depth[i];
            pass |= 1u << i;
        }
    }
    return pass;
}

void
scatterQuadScalar(float *row0, float *row1, const float *rgba,
                  unsigned mask)
{
    for (int i = 0; i < 4; ++i) {
        if (!(mask & (1u << i)))
            continue;
        float *px = (i < 2 ? row0 : row1) + 4 * (i & 1);
        px[0] = rgba[4 * i + 0];
        px[1] = rgba[4 * i + 1];
        px[2] = rgba[4 * i + 2];
        px[3] = rgba[4 * i + 3];
    }
}

/** The SSIM blur accumulation chain: ascending taps, then one divide. */
void
ssimRowScalar(const float *src, float *out, int n, int stride,
              const float *k, int taps, float wsum)
{
    for (int i = 0; i < n; ++i) {
        float acc = 0.0f;
        for (int t = 0; t < taps; ++t)
            acc += k[t] * src[i + t * stride];
        out[i] = acc / wsum;
    }
}

} // namespace

const KernelOps &
scalarKernels()
{
    static const KernelOps ops{edgeQuadScalar,  fillColorScalar,
                               fillDepthScalar, depthQuadScalar,
                               scatterQuadScalar, ssimRowScalar,
                               "scalar"};
    return ops;
}

} // namespace pargpu::simd

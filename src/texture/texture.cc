#include "texture/texture.hh"

#include "common/contract.hh"
#include "texture/mipmap.hh"

namespace pargpu
{

namespace
{

/** log2 of a power of two. */
std::uint32_t
log2Pow2(int v)
{
    std::uint32_t s = 0;
    while ((1 << s) < v)
        ++s;
    return s;
}

} // namespace

TextureMap::TextureMap(int width, int height, std::vector<RGBA8> texels,
                       WrapMode wrap, TexelLayout layout,
                       StorageFormat format,
                       TexelStorage storage)
    : wrap_(wrap), layout_(layout), format_(format),
      // BC1 keeps the raster row-major: MipLevel::texels is only the
      // compression input there (compressLevel consumes row-major), and
      // every fetch goes through the BC1 blocks.
      storage_(format == StorageFormat::BC1 ? TexelStorage::Linear
                                            : storage)
{
    levels_ = buildMipPyramid(width, height, std::move(texels), storage_);
    Bytes offset = 0;
    levelOffset_.reserve(levels_.size());
    geom_.reserve(levels_.size());
    if (format_ == StorageFormat::BC1)
        bc1_levels_.reserve(levels_.size());
    for (const MipLevel &lv : levels_) {
        levelOffset_.push_back(offset);
        LevelGeom g;
        g.wmask = lv.width - 1;
        g.hmask = lv.height - 1;
        g.row_shift = log2Pow2(lv.width);
        g.tiled = layout_ == TexelLayout::Tiled4x4 && lv.width >= 4 &&
            lv.height >= 4;
        g.tpr_shift = g.tiled ? log2Pow2(lv.width / 4) : 0;
        g.blk_shift = log2Pow2((lv.width + 3) / 4);
        g.offset = offset;
        geom_.push_back(g);
        if (format_ == StorageFormat::BC1) {
            bc1_levels_.push_back(
                compressLevel(lv.width, lv.height, lv.texels));
            offset += static_cast<Bytes>(bc1_levels_.back().size()) *
                Bc1Block::kBytes;
        } else {
            offset += static_cast<Bytes>(lv.width) * lv.height *
                RGBA8::kBytes;
        }
    }
    sizeBytes_ = offset;
}

int
TextureMap::wrapCoord(int c, int extent, WrapMode mode)
{
    if (mode == WrapMode::Repeat) {
        int m = c % extent;
        return m < 0 ? m + extent : m;
    }
    if (c < 0)
        return 0;
    if (c >= extent)
        return extent - 1;
    return c;
}

Addr
TextureMap::texelAddr(int level, int x, int y) const
{
    PARGPU_CHECK_RANGE(level, 0, numLevels() - 1, "texelAddr level");
    const LevelGeom &g = geom_[static_cast<std::size_t>(level)];
    int wx = wrapFast(x, g.wmask);
    int wy = wrapFast(y, g.hmask);
    PARGPU_INVARIANT(wx >= 0 && wx <= g.wmask && wy >= 0 && wy <= g.hmask,
                     "wrapFast escaped the level: (", wx, ", ", wy,
                     ") in ", g.wmask + 1, "x", g.hmask + 1);
    return baseAddr_ + texelOffset(g, wx, wy);
}

Color4f
TextureMap::texelColor(int level, const MipLevel &lv, int wx, int wy) const
{
    if (format_ == StorageFormat::BC1) {
        int bw = (lv.width + 3) / 4;
        const Bc1Block &block =
            bc1_levels_[level][static_cast<std::size_t>(wy / 4) * bw +
                               (wx / 4)];
        return decodeBc1Texel(block, wx % 4, wy % 4);
    }
    return unpackRGBA8(lv.at(wx, wy));
}

Color4f
TextureMap::fetchTexel(int level, int x, int y) const
{
    PARGPU_CHECK_RANGE(level, 0, numLevels() - 1, "fetchTexel level");
    const LevelGeom &g = geom_[static_cast<std::size_t>(level)];
    const MipLevel &lv = levels_[static_cast<std::size_t>(level)];
    int wx = wrapFast(x, g.wmask);
    int wy = wrapFast(y, g.hmask);
    return texelColor(level, lv, wx, wy);
}

void
TextureMap::fetchFootprintSlow(const LevelGeom &g, int level,
                               const int wx[2], const int wy[2],
                               Color4f color[4], Addr addr[4]) const
{
    const MipLevel &lv = levels_[static_cast<std::size_t>(level)];
    if (format_ == StorageFormat::RGBA8) {
        // Same math as texelOffset()/texelColor(), with the format and
        // storage dispatch hoisted out of the four-texel loop.
        const bool morton = lv.storage == TexelStorage::Morton &&
            lv.width >= 4 && lv.height >= 4;
        const RGBA8 *texels = lv.texels.data();
        for (int i = 0; i < 4; ++i) {
            int cx = wx[i & 1];
            int cy = wy[i >> 1];
            addr[i] = baseAddr_ + texelOffset(g, cx, cy);
            std::size_t idx;
            if (morton) {
                std::size_t tile = static_cast<std::size_t>(cy >> 2) *
                        static_cast<std::size_t>(lv.width >> 2) +
                    static_cast<std::size_t>(cx >> 2);
                idx = tile * 16 +
                    kMortonInTile4x4[((cy & 3) << 2) | (cx & 3)];
            } else {
                idx = static_cast<std::size_t>(cy) * lv.width + cx;
            }
            color[i] = unpackRGBA8(texels[idx]);
        }
        return;
    }
    for (int i = 0; i < 4; ++i) {
        int cx = wx[i & 1];
        int cy = wy[i >> 1];
        addr[i] = baseAddr_ + texelOffset(g, cx, cy);
        color[i] = texelColor(level, lv, cx, cy);
    }
}

} // namespace pargpu

#include "common/image.hh"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/logging.hh"

namespace pargpu
{

Image::Image(int width, int height, const Color4f &fill)
    : width_(width), height_(height),
      pixels_(static_cast<std::size_t>(width) * height, fill)
{
}

Image::Image(int width, int height, std::vector<Color4f> pixels)
    : width_(width), height_(height), pixels_(std::move(pixels))
{
    if (width < 0 || height < 0 ||
        pixels_.size() != static_cast<std::size_t>(width) * height)
        fatal("Image: pixel count does not match dimensions");
}

std::vector<float>
Image::lumaPlane() const
{
    std::vector<float> luma(pixels_.size());
    for (std::size_t i = 0; i < pixels_.size(); ++i)
        luma[i] = pixels_[i].luma();
    return luma;
}

bool
Image::writePPM(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    std::fprintf(f, "P6\n%d %d\n255\n", width_, height_);
    std::vector<unsigned char> row(static_cast<std::size_t>(width_) * 3);
    for (int y = 0; y < height_; ++y) {
        for (int x = 0; x < width_; ++x) {
            RGBA8 p = packRGBA8(at(x, y));
            row[x * 3 + 0] = p.r;
            row[x * 3 + 1] = p.g;
            row[x * 3 + 2] = p.b;
        }
        if (std::fwrite(row.data(), 1, row.size(), f) != row.size()) {
            std::fclose(f);
            return false;
        }
    }
    std::fclose(f);
    return true;
}

namespace
{

// Skip PPM whitespace and '#' comments; returns the next token in buf.
bool
readToken(std::FILE *f, char *buf, std::size_t cap)
{
    int c;
    do {
        c = std::fgetc(f);
        if (c == '#') {
            while (c != EOF && c != '\n')
                c = std::fgetc(f);
        }
    } while (c == ' ' || c == '\t' || c == '\n' || c == '\r');
    if (c == EOF)
        return false;
    std::size_t n = 0;
    while (c != EOF && c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        if (n + 1 < cap)
            buf[n++] = static_cast<char>(c);
        c = std::fgetc(f);
    }
    buf[n] = '\0';
    return n > 0;
}

// Read the next token as an int; all of it must be the number.
bool
readInt(std::FILE *f, int &out)
{
    char tok[32];
    if (!readToken(f, tok, sizeof(tok)))
        return false;
    const char *end = tok + std::strlen(tok);
    const std::from_chars_result r = std::from_chars(tok, end, out);
    return r.ec == std::errc{} && r.ptr == end;
}

// Bytes from the current position to the end of @p f, or -1.
long
bytesLeft(std::FILE *f)
{
    const long pos = std::ftell(f);
    if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0)
        return -1;
    const long end = std::ftell(f);
    if (end < pos || std::fseek(f, pos, SEEK_SET) != 0)
        return -1;
    return end - pos;
}

} // namespace

Image
Image::readPPM(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return {};
    char tok[32];
    if (!readToken(f, tok, sizeof(tok)) || std::strcmp(tok, "P6") != 0) {
        std::fclose(f);
        return {};
    }
    int w = 0, h = 0, maxval = 0;
    if (!readInt(f, w) || !readInt(f, h) || !readInt(f, maxval) ||
        w <= 0 || h <= 0 || maxval != 255) {
        std::fclose(f);
        return {};
    }
    // The header is untrusted: allocate only what the file can fill.
    const long left = bytesLeft(f);
    if (left < 0 ||
        static_cast<unsigned long long>(w) * static_cast<unsigned>(h) * 3 >
            static_cast<unsigned long long>(left)) {
        std::fclose(f);
        return {};
    }
    Image img(w, h);
    std::vector<unsigned char> row(static_cast<std::size_t>(w) * 3);
    for (int y = 0; y < h; ++y) {
        if (std::fread(row.data(), 1, row.size(), f) != row.size()) {
            std::fclose(f);
            return {};
        }
        for (int x = 0; x < w; ++x) {
            img.at(x, y) = unpackRGBA8(
                {row[x * 3 + 0], row[x * 3 + 1], row[x * 3 + 2], 255});
        }
    }
    std::fclose(f);
    return img;
}

} // namespace pargpu

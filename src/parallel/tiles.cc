#include "parallel/tiles.h"

#include <algorithm>
#include <stdexcept>

namespace ideal {
namespace parallel {

namespace {

/** ceil(n / d) for n >= 0 and d >= 1, without the signed overflow of
    (n + d - 1) / d when either operand is near INT_MAX. */
int
ceilDiv(int n, int d)
{
    return n / d + (n % d != 0 ? 1 : 0);
}

} // namespace

std::vector<Tile>
makeTiles(int nx, int ny, int grain)
{
    if (grain < 1)
        throw std::invalid_argument("makeTiles: grain must be >= 1");
    std::vector<Tile> tiles;
    if (nx <= 0 || ny <= 0)
        return tiles;
    const int tiles_x = ceilDiv(nx, grain);
    const int tiles_y = ceilDiv(ny, grain);
    tiles.reserve(static_cast<size_t>(tiles_x) * tiles_y);
    for (int ty = 0; ty < tiles_y; ++ty) {
        for (int tx = 0; tx < tiles_x; ++tx) {
            Tile t;
            t.x0 = tx * grain;
            t.x1 = t.x0 + std::min(grain, nx - t.x0);
            t.y0 = ty * grain;
            t.y1 = t.y0 + std::min(grain, ny - t.y0);
            tiles.push_back(t);
        }
    }
    return tiles;
}

std::vector<TileBand>
makeTileBands(int nx, int ny, int grain, int rows_per_band)
{
    if (grain < 1)
        throw std::invalid_argument("makeTileBands: grain must be >= 1");
    std::vector<TileBand> bands;
    if (nx <= 0 || ny <= 0)
        return bands;
    rows_per_band = std::max(1, rows_per_band);
    const int tiles_x = ceilDiv(nx, grain);
    const int tiles_y = ceilDiv(ny, grain);
    // Whole tile rows per band, covering at least rows_per_band
    // y-indices (each tile row spans `grain` of them, except the last).
    const int tile_rows = ceilDiv(rows_per_band, grain);
    for (int ty = 0; ty < tiles_y;) {
        const int ty_end = ty + std::min(tile_rows, tiles_y - ty);
        TileBand b;
        b.firstTile = ty * tiles_x;
        b.lastTile = ty_end * tiles_x;
        b.y0 = ty * grain;
        b.y1 = ty_end < tiles_y ? ty_end * grain : ny;
        bands.push_back(b);
        ty = ty_end;
    }
    return bands;
}

Region
expandTile(const Tile &tile, const std::vector<int> &xs,
           const std::vector<int> &ys, int halo, int max_x, int max_y)
{
    if (tile.width() <= 0 || tile.height() <= 0)
        throw std::invalid_argument("expandTile: empty tile");
    Region r;
    r.x0 = std::max(0, xs[tile.x0] - halo);
    r.x1 = std::min(max_x, xs[tile.x1 - 1] + halo);
    r.y0 = std::max(0, ys[tile.y0] - halo);
    r.y1 = std::min(max_y, ys[tile.y1 - 1] + halo);
    return r;
}

void
parallelForTiles(ThreadPool &pool, int nx, int ny, int grain, int parallelism,
                 const std::function<void(const Tile &, int)> &body)
{
    const std::vector<Tile> tiles = makeTiles(nx, ny, grain);
    pool.run(static_cast<int>(tiles.size()), parallelism,
             [&](int index, int slot) { body(tiles[index], slot); });
}

} // namespace parallel
} // namespace ideal

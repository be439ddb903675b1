/** @file
 * Property tests for the persisted column codecs (Raw/RLE/Dict/FOR):
 * every value shape must round-trip bit-exactly through encode ->
 * flash persist -> decode, the per-page zone maps must agree with
 * brute force and never prune a matching page, code-domain predicate
 * evaluation must match decoded evaluation, and compressed device
 * runs must stay bit-deterministic across thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "aquoman/device.hh"
#include "columnstore/encoding.hh"
#include "common/compress_mode.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "flash/flash_device.hh"
#include "tpch/dbgen.hh"
#include "tpch/queries.hh"

namespace aquoman {
namespace {

struct Shape
{
    const char *name;
    int width; ///< declared column width (4 for date-like, else 8)
    std::vector<std::int64_t> vals;
};

std::vector<Shape>
valueShapes()
{
    Rng rng(20260808);
    std::vector<Shape> shapes;
    shapes.push_back({"empty", 8, {}});
    shapes.push_back({"single", 8, {42}});
    shapes.push_back({"single_null", 8, {kEncodedNull}});
    shapes.push_back(
        {"all_nulls", 8,
         std::vector<std::int64_t>(5000, kEncodedNull)});

    Shape runs{"long_runs_with_nulls", 8, {}};
    for (std::int64_t i = 0; i < 40000; ++i) {
        std::int64_t run = i / 700;
        runs.vals.push_back(run % 9 == 0 ? kEncodedNull : run * 37);
    }
    shapes.push_back(std::move(runs));

    Shape lowcard{"low_cardinality_shuffle", 8, {}};
    for (std::int64_t i = 0; i < 30000; ++i)
        lowcard.vals.push_back(rng.uniform(0, 40) * 1'000'000'007ll);
    shapes.push_back(std::move(lowcard));

    Shape band{"dense_band", 8, {}};
    for (std::int64_t i = 0; i < 30000; ++i)
        band.vals.push_back(5'000'000'000ll + rng.uniform(0, 99999));
    shapes.push_back(std::move(band));

    Shape wide{"random_wide", 8, {}};
    for (std::int64_t i = 0; i < 20000; ++i)
        wide.vals.push_back(static_cast<std::int64_t>(
            rng.uniform(std::numeric_limits<std::int32_t>::min(),
                        std::numeric_limits<std::int32_t>::max()))
            * 1'000'003);
    shapes.push_back(std::move(wide));

    Shape dates{"sorted_dates_w4", 4, {}};
    for (std::int64_t i = 0; i < 25000; ++i)
        dates.vals.push_back(i % 1000 == 0 ? kEncodedNull
                                           : 8036 + i / 11);
    shapes.push_back(std::move(dates));

    Shape outliers{"sorted_with_outliers", 8, {}};
    for (std::int64_t i = 0; i < 20000; ++i)
        outliers.vals.push_back(
            i % 4096 == 17 ? (1ll << 60) + i : i * 3);
    shapes.push_back(std::move(outliers));
    return shapes;
}

/** Persist every page through a real flash device, read it back,
 *  decode, and compare with the original values. */
void
expectRoundTrip(const Shape &s)
{
    ColumnEncoding enc = encodeValues(
        s.vals.data(), static_cast<std::int64_t>(s.vals.size()),
        s.width);
    std::int64_t covered = 0;
    for (const EncodedPage &p : enc.pages) {
        EXPECT_EQ(p.firstRow, covered) << s.name;
        EXPECT_LE(static_cast<std::int64_t>(p.bytes.size()),
                  kFlashPageBytes)
            << s.name;
        covered += p.rows;
    }
    EXPECT_EQ(covered, static_cast<std::int64_t>(s.vals.size()))
        << s.name;

    FlashConfig fc;
    fc.capacityBytes = 64ll << 20;
    FlashDevice dev(fc);
    std::vector<std::int64_t> decoded;
    decoded.reserve(s.vals.size());
    for (const EncodedPage &p : enc.pages) {
        FlashExtent ext = dev.allocate(
            static_cast<std::int64_t>(p.bytes.size()));
        dev.write(ext, 0, p.bytes.data(),
                  static_cast<std::int64_t>(p.bytes.size()));
        std::vector<std::uint8_t> persisted(p.bytes.size());
        dev.read(ext, 0, persisted.data(),
                 static_cast<std::int64_t>(persisted.size()));
        ASSERT_EQ(persisted, p.bytes) << s.name;
        decodePage(persisted.data(), persisted.size(), decoded);
    }
    ASSERT_EQ(decoded, s.vals) << s.name;
}

TEST(EncodingProperty, RoundTripsEveryShapeThroughFlash)
{
    for (const Shape &s : valueShapes())
        expectRoundTrip(s);
}

TEST(EncodingProperty, ZoneMapsMatchBruteForce)
{
    for (const Shape &s : valueShapes()) {
        ColumnEncoding enc = encodeValues(
            s.vals.data(), static_cast<std::int64_t>(s.vals.size()),
            s.width);
        for (const EncodedPage &p : enc.pages) {
            PageZone brute;
            brute.rows = p.rows;
            for (std::int64_t i = 0; i < p.rows; ++i) {
                std::int64_t v = s.vals[p.firstRow + i];
                if (v == kEncodedNull) {
                    ++brute.nullCount;
                    continue;
                }
                brute.min = std::min(brute.min, v);
                brute.max = std::max(brute.max, v);
            }
            EXPECT_EQ(p.zone.rows, brute.rows) << s.name;
            EXPECT_EQ(p.zone.nullCount, brute.nullCount) << s.name;
            if (!brute.allNull()) {
                EXPECT_EQ(p.zone.min, brute.min) << s.name;
                EXPECT_EQ(p.zone.max, brute.max) << s.name;
            }
        }
    }
}

std::int64_t
bruteCount(const std::vector<std::int64_t> &vals, std::int64_t first,
           std::int64_t rows, ZoneOp op, std::int64_t c)
{
    std::int64_t count = 0;
    for (std::int64_t i = first; i < first + rows; ++i) {
        std::int64_t v = vals[i];
        if (v == kEncodedNull)
            continue;
        bool hit = false;
        switch (op) {
          case ZoneOp::Eq: hit = v == c; break;
          case ZoneOp::Ne: hit = v != c; break;
          case ZoneOp::Lt: hit = v < c; break;
          case ZoneOp::Le: hit = v <= c; break;
          case ZoneOp::Gt: hit = v > c; break;
          case ZoneOp::Ge: hit = v >= c; break;
        }
        count += hit;
    }
    return count;
}

/**
 * Zone verdicts must be sound (NonePass really excludes every row,
 * AllPass really admits every non-null row) and the code-domain
 * kernel must agree with evaluation over the decoded values, for
 * every codec, op and a constant sweep spanning each page's range.
 */
TEST(EncodingProperty, ZoneVerdictsAndCodeDomainEvalAreExact)
{
    constexpr ZoneOp kOps[] = {ZoneOp::Eq, ZoneOp::Ne, ZoneOp::Lt,
                               ZoneOp::Le, ZoneOp::Gt, ZoneOp::Ge};
    for (const Shape &s : valueShapes()) {
        ColumnEncoding enc = encodeValues(
            s.vals.data(), static_cast<std::int64_t>(s.vals.size()),
            s.width);
        for (const EncodedPage &p : enc.pages) {
            std::vector<std::int64_t> consts{0, 42};
            if (!p.zone.allNull()) {
                for (std::int64_t c :
                     {p.zone.min - 1, p.zone.min,
                      p.zone.min / 2 + p.zone.max / 2, p.zone.max,
                      p.zone.max + 1})
                    consts.push_back(c);
            }
            for (ZoneOp op : kOps) {
                for (std::int64_t c : consts) {
                    std::int64_t expected =
                        bruteCount(s.vals, p.firstRow, p.rows, op, c);
                    EXPECT_EQ(countMatchesEncoded(p, op, c), expected)
                        << s.name << " op "
                        << static_cast<int>(op) << " c " << c;
                    ZoneVerdict v = zoneCompare(p.zone, op, c);
                    if (v == ZoneVerdict::NonePass) {
                        EXPECT_EQ(expected, 0) << s.name;
                    }
                    if (v == ZoneVerdict::AllPass) {
                        EXPECT_EQ(expected, p.rows - p.zone.nullCount)
                            << s.name;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Byte-for-byte oracle: the original hash-set encoder, kept here (and
// only here) so the allocation-free encoder in src/ must reproduce
// every page it wrote.
// ---------------------------------------------------------------------

namespace ref {

using namespace enc_detail;

void
putBits(std::vector<std::uint8_t> &out, std::int64_t &bitpos,
        std::uint64_t v, int bits)
{
    for (int i = 0; i < bits; ++i, ++bitpos) {
        if ((bitpos >> 3) >= static_cast<std::int64_t>(out.size()))
            out.push_back(0);
        if ((v >> i) & 1)
            out[bitpos >> 3] |= static_cast<std::uint8_t>(
                1u << (bitpos & 7));
    }
}

struct PageStats
{
    std::int64_t rows = 0;
    std::int64_t nulls = 0;
    std::int64_t runs = 0;
    bool havePrev = false;
    std::int64_t prev = 0;
    PageZone zone;
    std::unordered_set<std::int64_t> distinct;
    bool dictOverflow = false;

    void
    add(std::int64_t v)
    {
        if (!havePrev || v != prev)
            ++runs;
        havePrev = true;
        prev = v;
        ++rows;
        zone.rows = rows;
        if (v == kEncodedNull) {
            ++nulls;
            zone.nullCount = nulls;
            return;
        }
        zone.min = std::min(zone.min, v);
        zone.max = std::max(zone.max, v);
        if (!dictOverflow) {
            distinct.insert(v);
            if (static_cast<std::int64_t>(distinct.size())
                > kMaxDictValues)
                dictOverflow = true;
        }
    }

    bool hasNulls() const { return nulls > 0; }
    std::int64_t bitmapBytes() const
    {
        return hasNulls() ? (rows + 7) / 8 : 0;
    }
    std::int64_t rawSize(int width) const
    {
        return kHeaderBytes + bitmapBytes() + rows * width;
    }
    std::int64_t rleSize() const
    {
        return kHeaderBytes + bitmapBytes() + runs * 12;
    }
    std::int64_t
    dictSize() const
    {
        if (dictOverflow)
            return -1;
        auto nd = static_cast<std::int64_t>(distinct.size());
        if (nd == 0)
            nd = 1;
        int bits = bitsForCount(static_cast<std::uint64_t>(nd));
        return kHeaderBytes + bitmapBytes() + nd * 8
            + packedBytes(rows, bits);
    }
    std::int64_t
    forSize() const
    {
        if (zone.min > zone.max)
            return kHeaderBytes + bitmapBytes() + packedBytes(rows, 1);
        std::uint64_t range = static_cast<std::uint64_t>(zone.max)
            - static_cast<std::uint64_t>(zone.min);
        int bits = bitsForRange(range);
        if (bits >= 64)
            return -1;
        return kHeaderBytes + bitmapBytes() + packedBytes(rows, bits);
    }
    std::pair<ColumnCodec, std::int64_t>
    best(int width) const
    {
        ColumnCodec codec = ColumnCodec::For;
        std::int64_t size = forSize();
        auto consider = [&](ColumnCodec c, std::int64_t s) {
            if (s >= 0 && (size < 0 || s < size)) {
                codec = c;
                size = s;
            }
        };
        consider(ColumnCodec::Dict, dictSize());
        consider(ColumnCodec::Rle, rleSize());
        consider(ColumnCodec::Raw, rawSize(width));
        return {codec, size};
    }
};

EncodedPage
encodePage(const std::int64_t *vals, std::int64_t first_row,
           const PageStats &stats, ColumnCodec codec, int width)
{
    const std::int64_t n = stats.rows;
    const std::int64_t *v = vals + first_row;
    EncodedPage page;
    page.codec = codec;
    page.firstRow = first_row;
    page.rows = n;
    page.zone = stats.zone;

    std::vector<std::uint8_t> &out = page.bytes;
    std::uint8_t bits = 0;
    std::int64_t param = 0;
    std::vector<std::int64_t> dict;
    switch (codec) {
      case ColumnCodec::Raw:
        bits = static_cast<std::uint8_t>(width * 8);
        break;
      case ColumnCodec::Rle:
        param = stats.runs;
        break;
      case ColumnCodec::Dict: {
        dict.assign(stats.distinct.begin(), stats.distinct.end());
        std::sort(dict.begin(), dict.end());
        if (dict.empty())
            dict.push_back(0);
        param = static_cast<std::int64_t>(dict.size());
        bits = static_cast<std::uint8_t>(
            bitsForCount(static_cast<std::uint64_t>(dict.size())));
        break;
      }
      case ColumnCodec::For: {
        param = stats.zone.min > stats.zone.max ? 0 : stats.zone.min;
        std::uint64_t range = stats.zone.min > stats.zone.max
            ? 0
            : static_cast<std::uint64_t>(stats.zone.max)
                - static_cast<std::uint64_t>(stats.zone.min);
        bits = static_cast<std::uint8_t>(bitsForRange(range));
        break;
      }
    }

    out.push_back(static_cast<std::uint8_t>(codec));
    out.push_back(bits);
    out.push_back(stats.hasNulls() ? 1 : 0);
    out.push_back(0);
    putScalar<std::uint32_t>(out, static_cast<std::uint32_t>(n));
    putScalar<std::int64_t>(out, param);

    if (stats.hasNulls()) {
        std::size_t at = out.size();
        out.resize(at + stats.bitmapBytes(), 0);
        for (std::int64_t i = 0; i < n; ++i) {
            if (v[i] == kEncodedNull)
                out[at + (i >> 3)] |= static_cast<std::uint8_t>(
                    1u << (i & 7));
        }
    }

    switch (codec) {
      case ColumnCodec::Raw: {
        std::size_t at = out.size();
        out.resize(at + n * width);
        for (std::int64_t i = 0; i < n; ++i) {
            if (width == 4) {
                auto x = static_cast<std::int32_t>(v[i]);
                std::memcpy(out.data() + at + i * 4, &x, 4);
            } else {
                std::memcpy(out.data() + at + i * 8, &v[i], 8);
            }
        }
        break;
      }
      case ColumnCodec::Rle: {
        std::int64_t i = 0;
        while (i < n) {
            std::int64_t j = i + 1;
            while (j < n && v[j] == v[i])
                ++j;
            putScalar<std::int64_t>(out, v[i]);
            putScalar<std::uint32_t>(
                out, static_cast<std::uint32_t>(j - i));
            i = j;
        }
        break;
      }
      case ColumnCodec::Dict: {
        for (std::int64_t d : dict)
            putScalar<std::int64_t>(out, d);
        std::int64_t bitpos =
            static_cast<std::int64_t>(out.size()) * 8;
        for (std::int64_t i = 0; i < n; ++i) {
            std::uint64_t code = 0;
            if (v[i] != kEncodedNull) {
                code = static_cast<std::uint64_t>(
                    std::lower_bound(dict.begin(), dict.end(), v[i])
                    - dict.begin());
            }
            putBits(out, bitpos, code, bits);
        }
        break;
      }
      case ColumnCodec::For: {
        std::int64_t bitpos =
            static_cast<std::int64_t>(out.size()) * 8;
        for (std::int64_t i = 0; i < n; ++i) {
            std::uint64_t delta = 0;
            if (v[i] != kEncodedNull) {
                delta = static_cast<std::uint64_t>(v[i])
                    - static_cast<std::uint64_t>(param);
            }
            putBits(out, bitpos, delta, bits);
        }
        break;
      }
    }
    return page;
}

} // namespace ref

/** The original encoder, verbatim: greedy 512-row fill over ref::PageStats. */
ColumnEncoding
referenceEncode(const std::int64_t *vals, std::int64_t n, int width,
                std::int64_t first_row)
{
    using namespace enc_detail;
    ColumnEncoding enc;
    enc.rows = n;
    std::int64_t at = 0;
    while (at < n) {
        ref::PageStats sealed;
        ref::PageStats trial;
        std::int64_t taken = 0;
        while (at + taken < n && taken < kMaxRowsPerPage) {
            std::int64_t group = std::min<std::int64_t>(
                {kGroupRows, n - at - taken, kMaxRowsPerPage - taken});
            for (std::int64_t i = 0; i < group; ++i)
                trial.add(vals[at + taken + i]);
            if (taken > 0
                && trial.best(width).second > kFlashPageBytes)
                break;
            sealed = trial;
            taken += group;
        }
        auto [codec, size] = sealed.best(width);
        (void)size;
        EncodedPage page = ref::encodePage(vals, at, sealed, codec, width);
        page.firstRow = first_row + at;
        enc.encodedBytes += static_cast<std::int64_t>(page.bytes.size());
        enc.pages.push_back(std::move(page));
        at += taken;
    }
    return enc;
}

/** One seeded oracle input: a value shape at a width and null rate. */
std::vector<std::int64_t>
oracleValues(Rng &rng, const std::string &shape, std::int64_t n,
             int width, int null_pct)
{
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    constexpr std::int64_t kMin = kEncodedNull + 1;
    // Width-4 columns hold int32 values, as on flash.
    const std::int64_t base = width == 4 ? -20'000 : 7'000'000'000ll;
    std::vector<std::int64_t> v(n);
    std::int64_t run = base;
    for (std::int64_t i = 0; i < n; ++i) {
        std::int64_t x = 0;
        if (shape == "runs") {
            if (rng.uniform(0, 199) == 0)
                run = base + rng.uniform(0, 1000);
            x = run;
        } else if (shape.rfind("range", 0) == 0) {
            int log2 = std::stoi(shape.substr(5));
            x = base + rng.uniform(0, (1ll << log2) - 1);
        } else if (shape.rfind("distinct", 0) == 0) {
            // Every one of k values inside one FOR-sized page, in a
            // shuffled order, so the dictionary cap is crossed mid-page.
            std::int64_t k = std::stoll(shape.substr(8));
            x = base + (i * 2'654'435'761ll) % k;
        } else if (shape == "lowcard") {
            x = base
                + rng.uniform(0, 40) * (width == 4 ? 4'099 : 1'000'000'007ll);
        } else if (shape == "extremes") {
            x = rng.uniform(0, 1) ? kMin + rng.uniform(0, 1ll << 40)
                                  : kMax - rng.uniform(0, 1ll << 40);
        } else if (shape == "int32") {
            // Full int32 range: FOR's 32-bit deltas tie Raw at width 4.
            x = rng.uniform(std::numeric_limits<std::int32_t>::min(),
                            std::numeric_limits<std::int32_t>::max());
        } else if (shape == "high_extremes") {
            x = kMax - rng.uniform(0, 1ll << 20);
        } else { // low_extremes
            x = kMin + rng.uniform(0, 1ll << 20);
        }
        if (null_pct == 100 || (null_pct > 0 && rng.uniform(0, 99) < null_pct))
            x = kEncodedNull;
        v[i] = x;
    }
    return v;
}

void
expectSameEncoding(const ColumnEncoding &got, const ColumnEncoding &want,
                   const std::string &what)
{
    ASSERT_EQ(got.rows, want.rows) << what;
    ASSERT_EQ(got.encodedBytes, want.encodedBytes) << what;
    ASSERT_EQ(got.pages.size(), want.pages.size()) << what;
    for (std::size_t p = 0; p < got.pages.size(); ++p) {
        const EncodedPage &a = got.pages[p];
        const EncodedPage &b = want.pages[p];
        ASSERT_EQ(a.codec, b.codec) << what << " page " << p;
        ASSERT_EQ(a.firstRow, b.firstRow) << what << " page " << p;
        ASSERT_EQ(a.rows, b.rows) << what << " page " << p;
        ASSERT_EQ(a.zone.min, b.zone.min) << what << " page " << p;
        ASSERT_EQ(a.zone.max, b.zone.max) << what << " page " << p;
        ASSERT_EQ(a.zone.rows, b.zone.rows) << what << " page " << p;
        ASSERT_EQ(a.zone.nullCount, b.zone.nullCount)
            << what << " page " << p;
        ASSERT_EQ(a.bytes, b.bytes) << what << " page " << p;
    }
}

/**
 * The encoder must write exactly the pages the original hash-set
 * encoder wrote, over a seeded sweep of widths, null densities, value
 * shapes (runs, ranges up to 2^40, the 4096-value dictionary cap,
 * int64 extremes), sizes around the 512-row group and 65536-row page
 * caps, and nonzero stripe offsets.
 */
TEST(EncodingOracle, PagesMatchReferenceEncoderByteForByte)
{
    const std::vector<std::int64_t> sizes{
        0, 1, 511, 512, 513, 4'095, 4'097, 20'000,
        65'535, 65'536, 65'537, 2 * 65'536 + 512};
    const std::vector<std::string> shapes{
        "runs", "range0", "range1", "range8", "range16", "range40",
        "distinct4095", "distinct4096", "distinct4097", "lowcard",
        "int32", "extremes", "high_extremes", "low_extremes"};
    Rng rng(20261020);
    int codecs_seen[4] = {0, 0, 0, 0};
    std::size_t k = 0;
    for (int width : {4, 8}) {
        for (int null_pct : {0, 10, 100}) {
            for (const std::string &shape : shapes) {
                bool wide = shape == "range40"
                    || shape.find("extremes") != std::string::npos;
                if (width == 4 && wide)
                    continue; // int32 columns cannot hold these
                bool dict_cap = shape.rfind("distinct", 0) == 0;
                std::int64_t n = dict_cap ? 4'200 + rng.uniform(0, 800)
                                          : sizes[k++ % sizes.size()];
                std::int64_t first_row = k % 2 ? 0 : 12'345 + k;
                auto vals = oracleValues(rng, shape, n, width, null_pct);
                std::string what = shape + " w" + std::to_string(width)
                    + " nulls" + std::to_string(null_pct) + " n"
                    + std::to_string(n);
                ColumnEncoding got =
                    encodeValues(vals.data(), n, width, first_row);
                expectSameEncoding(
                    got, referenceEncode(vals.data(), n, width, first_row),
                    what);
                for (const EncodedPage &p : got.pages)
                    ++codecs_seen[static_cast<int>(p.codec)];
            }
        }
    }
    for (std::int64_t n : sizes) { // every size, long constant runs
        std::vector<std::int64_t> vals(n, 99);
        expectSameEncoding(encodeValues(vals.data(), n, 8, 7),
                           referenceEncode(vals.data(), n, 8, 7),
                           "constant n" + std::to_string(n));
    }
    for (const Shape &s : valueShapes()) {
        auto n = static_cast<std::int64_t>(s.vals.size());
        expectSameEncoding(encodeValues(s.vals.data(), n, s.width),
                           referenceEncode(s.vals.data(), n, s.width, 0),
                           s.name);
    }
    for (int c = 0; c < 4; ++c)
        EXPECT_GT(codecs_seen[c], 0) << "codec " << c << " not covered";
}

// ---------------------------------------------------------------------
// Decode hardening: a page read back from flash is outside input.
// ---------------------------------------------------------------------

/** Decode @p page; true when decodePage rejected it with a panic. */
bool
decodeRejects(const std::vector<std::uint8_t> &page)
{
    std::vector<std::int64_t> out;
    try {
        decodePage(page.data(), page.size(), out);
    } catch (const PanicError &) {
        return true;
    }
    EXPECT_LE(static_cast<std::int64_t>(out.size()),
              enc_detail::kMaxRowsPerPage);
    return false;
}

std::vector<EncodedPage>
mutationCorpus()
{
    // valueShapes() plus a full-int64-range column, which only Raw fits.
    std::vector<Shape> shapes = valueShapes();
    Rng rng(77);
    Shape extremes{"int64_extremes", 8, {}};
    for (std::int64_t i = 0; i < 3000; ++i)
        extremes.vals.push_back(
            i % 2 ? std::numeric_limits<std::int64_t>::max()
                    - rng.uniform(0, 1ll << 40)
                  : kEncodedNull + 1 + rng.uniform(0, 1ll << 40));
    shapes.push_back(std::move(extremes));
    std::vector<EncodedPage> pages;
    for (const Shape &s : shapes) {
        ColumnEncoding enc = encodeValues(
            s.vals.data(), static_cast<std::int64_t>(s.vals.size()),
            s.width);
        for (EncodedPage &p : enc.pages)
            pages.push_back(std::move(p));
    }
    return pages;
}

/**
 * Seeded byte flips and truncations of real pages of every codec:
 * each mutant either throws PanicError or decodes within bounds (the
 * ASan/UBSan builds check the "within bounds" half).
 */
TEST(EncodingHardening, MutatedPagesThrowOrDecodeInBounds)
{
    Rng rng(4242);
    int codecs_seen[4] = {0, 0, 0, 0};
    int rejected = 0, mutants = 0;
    for (const EncodedPage &p : mutationCorpus()) {
        ++codecs_seen[static_cast<int>(p.codec)];
        ASSERT_FALSE(decodeRejects(p.bytes));
        const auto size = static_cast<std::int64_t>(p.bytes.size());
        for (int m = 0; m < 24; ++m) {
            std::vector<std::uint8_t> mutant = p.bytes;
            // Half the flips land in the 16-byte header.
            std::int64_t at = m % 2
                ? rng.uniform(0, enc_detail::kHeaderBytes - 1)
                : rng.uniform(0, size - 1);
            mutant[at] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
            rejected += decodeRejects(mutant);
            ++mutants;
        }
        for (std::int64_t len :
             {std::int64_t{0}, enc_detail::kHeaderBytes - 1,
              enc_detail::kHeaderBytes, rng.uniform(0, size - 1),
              size - 1}) {
            if (len < 0 || len >= size)
                continue;
            std::vector<std::uint8_t> cut(p.bytes.begin(),
                                          p.bytes.begin() + len);
            rejected += decodeRejects(cut);
            ++mutants;
        }
    }
    for (int c = 0; c < 4; ++c)
        EXPECT_GT(codecs_seen[c], 0) << "codec " << c << " not covered";
    EXPECT_GT(rejected, mutants / 4);
}

TEST(EncodingHardening, InflatedRunCountThrows)
{
    int checked = 0;
    for (const EncodedPage &p : mutationCorpus()) {
        if (p.codec != ColumnCodec::Rle)
            continue;
        const std::size_t payload = enc_detail::kHeaderBytes
            + (p.bytes[2] ? (p.rows + 7) / 8 : 0);
        for (std::uint32_t extra : {1u, 1000u, 0xFFFF'FFFFu}) {
            std::vector<std::uint8_t> mutant = p.bytes;
            std::uint32_t cnt;
            std::memcpy(&cnt, mutant.data() + payload + 8, 4);
            cnt += extra;
            std::memcpy(mutant.data() + payload + 8, &cnt, 4);
            EXPECT_TRUE(decodeRejects(mutant)) << "extra " << extra;
            ++checked;
        }
    }
    EXPECT_GT(checked, 0);
}

TEST(EncodingHardening, DictCodePastDictionaryThrows)
{
    int checked = 0;
    for (const EncodedPage &p : mutationCorpus()) {
        std::int64_t nd;
        std::memcpy(&nd, p.bytes.data() + 8, 8);
        int bits = p.bytes[1];
        if (p.codec != ColumnCodec::Dict || nd == (1ll << bits))
            continue; // every code value is a valid index
        const std::size_t codes = enc_detail::kHeaderBytes
            + (p.bytes[2] ? (p.rows + 7) / 8 : 0) + nd * 8;
        // Last row's code becomes all ones: 2^bits - 1 >= nd.
        std::vector<std::uint8_t> mutant = p.bytes;
        std::int64_t bitpos = (p.rows - 1) * bits;
        for (int b = 0; b < bits; ++b, ++bitpos)
            mutant[codes + (bitpos >> 3)] |=
                static_cast<std::uint8_t>(1u << (bitpos & 7));
        EXPECT_TRUE(decodeRejects(mutant));
        ++checked;
    }
    EXPECT_GT(checked, 0);
}

/** Canonical multiset-of-rows form for result comparison. */
std::vector<std::string>
canonicalRows(const RelTable &t)
{
    std::vector<std::string> rows;
    for (std::int64_t r = 0; r < t.numRows(); ++r) {
        std::ostringstream os;
        for (int c = 0; c < t.numColumns(); ++c) {
            const RelColumn &col = t.col(c);
            if (col.type == ColumnType::Varchar)
                os << col.str(r);
            else
                os << col.get(r);
            os << "|";
        }
        rows.push_back(os.str());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
}

/**
 * Compressed device runs are part of the simulator's determinism
 * contract: results, modelled seconds, flash bytes, and the zone-map
 * counters must be bit-identical whether the pool runs with 1 worker
 * or 4 (AQUOMAN_THREADS={1,4}), with compression on or off.
 */
TEST(EncodingDeterminism, DeviceRunsAreThreadCountInvariant)
{
    bool saved = compressionEnabled();
    tpch::TpchConfig cfg;
    cfg.scaleFactor = 0.01;
    auto db = tpch::TpchDatabase::generate(cfg);

    for (bool compress : {true, false}) {
        setCompressionEnabled(compress);
        FlashConfig fc;
        fc.capacityBytes = 4ll << 30;
        FlashDevice dev(fc);
        ControllerSwitch sw(dev);
        TableStore store(sw);
        Catalog cat;
        db.installInto(cat, store);

        for (int q : {1, 6}) {
            std::vector<OffloadedQueryResult> runs;
            for (int threads : {1, 4}) {
                ThreadPool::setGlobalParallelism(threads);
                AquomanDevice device(cat, sw,
                                     AquomanConfig::paper40());
                runs.push_back(
                    device.runQuery(tpch::tpchQuery(q, 0.01)));
            }
            const AquomanRunStats &a = runs[0].stats;
            const AquomanRunStats &b = runs[1].stats;
            EXPECT_EQ(canonicalRows(runs[0].result),
                      canonicalRows(runs[1].result))
                << "q" << q << " compress " << compress;
            EXPECT_EQ(a.deviceSeconds, b.deviceSeconds) << "q" << q;
            EXPECT_EQ(a.deviceFlashBytes, b.deviceFlashBytes)
                << "q" << q;
            EXPECT_EQ(a.zonePagesConsidered, b.zonePagesConsidered)
                << "q" << q;
            EXPECT_EQ(a.zonePagesSkipped, b.zonePagesSkipped)
                << "q" << q;
            if (!compress) {
                EXPECT_EQ(a.zonePagesConsidered, 0) << "q" << q;
                EXPECT_EQ(a.zonePagesSkipped, 0) << "q" << q;
            }
        }
    }
    ThreadPool::setGlobalParallelism(
        ThreadPool::configuredParallelism());
    setCompressionEnabled(saved);
}

} // namespace
} // namespace aquoman

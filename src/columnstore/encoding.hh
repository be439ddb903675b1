/**
 * @file
 * Lightweight column encodings for the on-flash layout: RLE,
 * per-page sorted dictionary, frame-of-reference (FOR), and a raw
 * fallback. A column is cut into page blocks, each independently
 * decodable and sized to fit one flash page (kFlashPageBytes), with a
 * greedy variable rows-per-page fill: runs of near-constant values
 * pack tens of thousands of rows into a single 8KB page, random data
 * degrades gracefully to raw. Every page carries a zone map (min/max
 * over non-null values, null count) so a scan can skip whole pages
 * whose range cannot satisfy a predicate.
 *
 * All codecs are order-preserving over the stored domain (the
 * dictionary is sorted per page, FOR deltas are monotone in the
 * value), so comparison predicates can be evaluated directly on
 * dictionary codes and FOR deltas without materializing values —
 * countMatchesEncoded() is that decode-free kernel.
 *
 * Null handling: the encoder treats the engine's null sentinel
 * (INT64_MIN, relalg's kNullValue) as NULL. Null positions are
 * recorded in a bit-packed bitmap ahead of the payload and excluded
 * from zone maps and codec domains, which keeps FOR ranges finite and
 * makes the round trip exact for every int64 input.
 *
 * Page block layout (little-endian):
 *   [0]  u8  codec            (ColumnCodec)
 *   [1]  u8  bits             code/delta width; raw value width in bits
 *   [2]  u8  hasNulls         0/1
 *   [3]  u8  reserved
 *   [4]  u32 rows
 *   [8]  i64 param            FOR base / dict size / RLE run count
 *   [16] optional null bitmap, ceil(rows/8) bytes
 *   then the codec payload.
 */

#ifndef AQUOMAN_COLUMNSTORE_ENCODING_HH
#define AQUOMAN_COLUMNSTORE_ENCODING_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/logging.hh"
#include "flash/flash_config.hh"

namespace aquoman {

/** Per-page storage codec. */
enum class ColumnCodec : std::uint8_t
{
    Raw = 0,  ///< values at their on-flash width
    Rle = 1,  ///< (value, count) runs
    Dict = 2, ///< per-page sorted dictionary + bit-packed codes
    For = 3,  ///< frame of reference: base + bit-packed deltas
};

inline const char *
columnCodecName(ColumnCodec c)
{
    switch (c) {
      case ColumnCodec::Raw: return "raw";
      case ColumnCodec::Rle: return "rle";
      case ColumnCodec::Dict: return "dict";
      case ColumnCodec::For: return "for";
    }
    return "?";
}

/** The null sentinel the encoder recognises (relalg kNullValue). */
inline constexpr std::int64_t kEncodedNull =
    std::numeric_limits<std::int64_t>::min();

/** Zone map of one page: min/max over non-null values, null count. */
struct PageZone
{
    std::int64_t min = std::numeric_limits<std::int64_t>::max();
    std::int64_t max = std::numeric_limits<std::int64_t>::min();
    std::int64_t rows = 0;
    std::int64_t nullCount = 0;

    bool allNull() const { return nullCount == rows; }
};

/** Comparison ops the zone maps understand (mirrors relalg CmpOp). */
enum class ZoneOp { Eq, Ne, Lt, Le, Gt, Ge };

/** Can any / every non-null row of @p z satisfy `value op c`? */
enum class ZoneVerdict { NonePass, SomePass, AllPass };

inline ZoneVerdict
zoneCompare(const PageZone &z, ZoneOp op, std::int64_t c)
{
    if (z.allNull())
        return ZoneVerdict::NonePass; // null comparisons never pass
    bool any = false, all = false;
    switch (op) {
      case ZoneOp::Lt: any = z.min < c;  all = z.max < c;  break;
      case ZoneOp::Le: any = z.min <= c; all = z.max <= c; break;
      case ZoneOp::Gt: any = z.max > c;  all = z.min > c;  break;
      case ZoneOp::Ge: any = z.max >= c; all = z.min >= c; break;
      case ZoneOp::Eq:
        any = z.min <= c && c <= z.max;
        all = z.min == c && z.max == c;
        break;
      case ZoneOp::Ne:
        any = !(z.min == c && z.max == c);
        all = c < z.min || c > z.max;
        break;
    }
    if (!any)
        return ZoneVerdict::NonePass;
    // A page with nulls can never report AllPass: the null rows fail.
    if (all && z.nullCount == 0)
        return ZoneVerdict::AllPass;
    return ZoneVerdict::SomePass;
}

/** Zone verdict for `value IN (list)`. */
inline ZoneVerdict
zoneInList(const PageZone &z, const std::vector<std::int64_t> &list)
{
    if (z.allNull())
        return ZoneVerdict::NonePass;
    bool any = false;
    for (std::int64_t v : list)
        any = any || (z.min <= v && v <= z.max);
    if (!any)
        return ZoneVerdict::NonePass;
    return ZoneVerdict::SomePass;
}

/** One encoded page block plus its metadata. */
struct EncodedPage
{
    ColumnCodec codec = ColumnCodec::Raw;
    std::int64_t firstRow = 0;
    std::int64_t rows = 0;
    PageZone zone;
    std::vector<std::uint8_t> bytes; ///< self-describing block
};

/** A whole column cut into page blocks. */
struct ColumnEncoding
{
    std::int64_t rows = 0;
    std::int64_t encodedBytes = 0; ///< sum of page block sizes
    std::vector<EncodedPage> pages; ///< firstRow ascending

    std::int64_t numPages() const
    {
        return static_cast<std::int64_t>(pages.size());
    }
};

namespace enc_detail {

inline constexpr std::int64_t kHeaderBytes = 16;
/// Granularity of the greedy page fill; one group always fits a page.
inline constexpr std::int64_t kGroupRows = 512;
/// Rows-per-page cap: bounds zone-map granularity (and the u32 rows
/// field) even for perfectly compressible columns.
inline constexpr std::int64_t kMaxRowsPerPage = 1 << 16;
/// Dictionary candidates stop tracking past this many distinct values.
inline constexpr std::int64_t kMaxDictValues = 4096;

inline int
bitsForCount(std::uint64_t n) // codes 0..n-1
{
    int b = 1;
    while (n > (1ull << b))
        ++b;
    return b;
}

inline int
bitsForRange(std::uint64_t range) // deltas 0..range
{
    if (range == 0)
        return 1;
    int b = 0;
    while (b < 64 && range >> b)
        ++b;
    return b;
}

inline std::int64_t
packedBytes(std::int64_t rows, int bits)
{
    return (rows * bits + 7) / 8;
}

/**
 * LSB-first bit packer, the encode twin of getBitsFast: fields are
 * OR-ed into a 64-bit accumulator that leaves for the stream a whole
 * word at a time. Writes exactly packedBytes(fields, bits) bytes.
 */
class BitPacker
{
  public:
    explicit BitPacker(std::vector<std::uint8_t> &out) : out_(out) {}

    /** Append the low @p bits (1..63) of @p v; higher bits must be 0. */
    void
    put(std::uint64_t v, int bits)
    {
        acc_ |= v << fill_;
        fill_ += bits;
        if (fill_ >= 64) {
            putWord(acc_, 8);
            fill_ -= 64;
            // The field's spilled high bits; bits < 64 put at least
            // one bit in the full word, so the shift is in 1..63.
            acc_ = v >> (bits - fill_);
        }
    }

    /** Write the partial last word; call once, after the last put. */
    void
    flush()
    {
        putWord(acc_, (fill_ + 7) / 8);
    }

  private:
    void
    putWord(std::uint64_t w, int bytes)
    {
        std::size_t at = out_.size();
        out_.resize(at + bytes);
        std::memcpy(out_.data() + at, &w, bytes);
    }

    std::vector<std::uint8_t> &out_;
    std::uint64_t acc_ = 0;
    int fill_ = 0;
};

inline std::uint64_t
getBits(const std::uint8_t *p, std::int64_t bitpos, int bits)
{
    std::uint64_t v = 0;
    for (int i = 0; i < bits; ++i, ++bitpos) {
        if ((p[bitpos >> 3] >> (bitpos & 7)) & 1)
            v |= 1ull << i;
    }
    return v;
}

/**
 * Word-wise getBits. Bit-identical to getBits on little-endian hosts
 * (the stream is LSB-first, so a 64-bit load sees bit `bitpos & 7`
 * of the field at shift position 0). Only legal when the 8 bytes at
 * `p + (bitpos >> 3)` are in bounds and bits <= 57 (field + intra-byte
 * shift must fit one load); callers gate with fastUnpackCount.
 */
inline std::uint64_t
getBitsFast(const std::uint8_t *p, std::int64_t bitpos, int bits)
{
    std::uint64_t w;
    std::memcpy(&w, p + (bitpos >> 3), 8);
    w >>= (bitpos & 7);
    return w & ((1ull << bits) - 1);
}

/**
 * How many leading fields of a packed stream of @p n fields of
 * @p bits bits each can be read with getBitsFast given @p avail bytes
 * of stream. The remainder must fall back to getBits.
 */
inline std::int64_t
fastUnpackCount(std::int64_t n, int bits, std::int64_t avail)
{
    if (bits <= 0 || bits > 57 || avail < 9)
        return 0;
    return std::min<std::int64_t>(n, 8 * (avail - 8) / bits);
}

template <typename T>
inline void
putScalar(std::vector<std::uint8_t> &out, T v)
{
    std::size_t at = out.size();
    out.resize(at + sizeof(T));
    std::memcpy(out.data() + at, &v, sizeof(T));
}

template <typename T>
inline T
getScalar(const std::uint8_t *p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
}

/**
 * Set of the non-null values seen on the page being filled: flat open
 * addressing, sized once per column and emptied per page by bumping a
 * generation stamp, so no insert allocates. Holds at most the
 * max_values it was sized for (the page fill stops inserting past
 * kMaxDictValues + 1 distinct values).
 */
class DistinctSet
{
  public:
    explicit DistinctSet(std::int64_t max_values)
    {
        int log2 = 4;
        while ((std::int64_t{1} << log2) < 2 * max_values)
            ++log2;
        shift_ = 64 - log2;
        slots_.resize(std::size_t{1} << log2);
    }

    void clear() { ++gen_; }

    /** Insert @p v; true when it was not yet in the set. */
    bool
    insert(std::int64_t v)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = (static_cast<std::uint64_t>(v)
                         * 0x9e3779b97f4a7c15ull) >> shift_;
        for (;; i = (i + 1) & mask) {
            Slot &s = slots_[i];
            if (s.gen != gen_) {
                s = {v, gen_};
                return true;
            }
            if (s.value == v)
                return false;
        }
    }

  private:
    struct Slot
    {
        std::int64_t value = 0;
        std::uint64_t gen = 0; ///< slot is live when equal to gen_
    };
    std::vector<Slot> slots_;
    int shift_ = 0;
    std::uint64_t gen_ = 1;
};

/**
 * Incremental per-page statistics driving the codec choice: scalars
 * only, so the page fill seals a 512-row group by plain copy. The
 * page's distinct values live in the caller's DistinctSet.
 */
struct PageStats
{
    std::int64_t rows = 0;
    std::int64_t nulls = 0;
    std::int64_t runs = 0; ///< over all rows, nulls included
    bool havePrev = false;
    std::int64_t prev = 0;
    PageZone zone;
    /// Distinct non-null values; counting stops past kMaxDictValues.
    std::int64_t distinct = 0;
    bool dictOverflow = false;

    void
    add(std::int64_t v, DistinctSet &seen)
    {
        const bool repeat = havePrev && v == prev;
        runs += !repeat;
        havePrev = true;
        prev = v;
        ++rows;
        zone.rows = rows;
        if (v == kEncodedNull) {
            ++nulls;
            zone.nullCount = nulls;
            return;
        }
        if (repeat)
            return; // already in the zone and the distinct set
        zone.min = std::min(zone.min, v);
        zone.max = std::max(zone.max, v);
        if (!dictOverflow && seen.insert(v)
            && ++distinct > kMaxDictValues)
            dictOverflow = true;
    }

    bool hasNulls() const { return nulls > 0; }

    std::int64_t
    bitmapBytes() const
    {
        return hasNulls() ? (rows + 7) / 8 : 0;
    }

    std::int64_t
    rawSize(int width) const
    {
        return kHeaderBytes + bitmapBytes() + rows * width;
    }

    std::int64_t
    rleSize() const
    {
        return kHeaderBytes + bitmapBytes() + runs * 12;
    }

    /// Negative when the codec is not applicable.
    std::int64_t
    dictSize() const
    {
        if (dictOverflow)
            return -1;
        std::int64_t nd = distinct;
        if (nd == 0)
            nd = 1; // all-null page: one-entry placeholder dict
        int bits = bitsForCount(static_cast<std::uint64_t>(nd));
        return kHeaderBytes + bitmapBytes() + nd * 8
            + packedBytes(rows, bits);
    }

    std::int64_t
    forSize() const
    {
        if (zone.min > zone.max) // all null
            return kHeaderBytes + bitmapBytes() + packedBytes(rows, 1);
        std::uint64_t range = static_cast<std::uint64_t>(zone.max)
            - static_cast<std::uint64_t>(zone.min);
        int bits = bitsForRange(range);
        if (bits >= 64)
            return -1; // range needs full width: raw is never worse
        return kHeaderBytes + bitmapBytes() + packedBytes(rows, bits);
    }

    /**
     * Smallest applicable codec and its size. Deterministic tie
     * order: For, Dict, Rle, Raw (cheapest decode among equals).
     */
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

/**
 * Encode rows [first_row, first_row + stats.rows) of @p vals with the
 * smallest codec for @p stats. A Dict page rebuilds its sorted
 * dictionary from its own values through @p seen, which this clears.
 */
inline EncodedPage
encodePage(const std::int64_t *vals, std::int64_t first_row,
           const PageStats &stats, int width, DistinctSet &seen)
{
    const std::int64_t n = stats.rows;
    const std::int64_t *v = vals + first_row;
    const auto [codec, size] = stats.best(width);
    EncodedPage page;
    page.codec = codec;
    page.firstRow = first_row;
    page.rows = n;
    page.zone = stats.zone;

    std::vector<std::uint8_t> &out = page.bytes;
    out.reserve(static_cast<std::size_t>(size));
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
        dict.reserve(static_cast<std::size_t>(stats.distinct));
        seen.clear();
        for (std::int64_t i = 0; i < n; ++i) {
            if (v[i] != kEncodedNull && seen.insert(v[i]))
                dict.push_back(v[i]);
        }
        std::sort(dict.begin(), dict.end());
        if (dict.empty())
            dict.push_back(0); // all-null placeholder
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
        BitPacker pack(out);
        for (std::int64_t i = 0; i < n; ++i) {
            std::uint64_t code = 0;
            if (v[i] != kEncodedNull) {
                // Branch-free lower_bound: shuffled values defeat the
                // branch predictor of std::lower_bound.
                const std::int64_t *at = dict.data();
                for (std::size_t len = dict.size(); len > 1;) {
                    std::size_t half = len / 2;
                    at = at[half] < v[i] ? at + half : at;
                    len -= half;
                }
                code = static_cast<std::uint64_t>(at - dict.data())
                    + (*at < v[i]);
            }
            pack.put(code, bits);
        }
        pack.flush();
        break;
      }
      case ColumnCodec::For: {
        BitPacker pack(out);
        for (std::int64_t i = 0; i < n; ++i) {
            std::uint64_t delta = 0;
            if (v[i] != kEncodedNull) {
                delta = static_cast<std::uint64_t>(v[i])
                    - static_cast<std::uint64_t>(param);
            }
            pack.put(delta, bits);
        }
        pack.flush();
        break;
      }
    }
    AQ_ASSERT(static_cast<std::int64_t>(out.size())
                  <= kFlashPageBytes,
              "encoded page block exceeds the flash page size");
    return page;
}

} // namespace enc_detail

/**
 * Encode @p n values (on-flash width @p width, 4 or 8) into page
 * blocks with a greedy variable rows-per-page fill. Row numbers in the
 * page metadata start at @p first_row.
 */
inline ColumnEncoding
encodeValues(const std::int64_t *vals, std::int64_t n, int width,
             std::int64_t first_row = 0)
{
    using namespace enc_detail;
    ColumnEncoding enc;
    enc.rows = n;
    DistinctSet seen(std::min(n, kMaxDictValues + 1));
    std::int64_t at = 0;
    while (at < n) {
        seen.clear();
        PageStats sealed; // stats of the page accepted so far
        PageStats trial;
        std::int64_t taken = 0;
        while (at + taken < n && taken < kMaxRowsPerPage) {
            std::int64_t group = std::min<std::int64_t>(
                {kGroupRows, n - at - taken, kMaxRowsPerPage - taken});
            for (std::int64_t i = 0; i < group; ++i)
                trial.add(vals[at + taken + i], seen);
            if (taken > 0
                && trial.best(width).second > kFlashPageBytes)
                break; // the new group would overflow the page
            sealed = trial;
            taken += group;
        }
        AQ_ASSERT(taken > 0, "page fill made no progress");
        EncodedPage page = encodePage(vals, at, sealed, width, seen);
        page.firstRow = first_row + at;
        enc.encodedBytes += static_cast<std::int64_t>(
            page.bytes.size());
        enc.pages.push_back(std::move(page));
        at += taken;
    }
    return enc;
}

/**
 * Decode one page block produced by encodeValues back into int64
 * values (appended to @p out). Exact inverse of the encoder for every
 * input, nulls (kEncodedNull) included. The block comes back from
 * flash, so it is checked before use: header fields, that the payload
 * fits in @p len, each RLE run before it is written and each dict
 * code. A malformed block throws PanicError.
 */
inline void
decodePage(const std::uint8_t *p, std::size_t len,
           std::vector<std::int64_t> &out)
{
    using namespace enc_detail;
    AQ_ASSERT(len >= static_cast<std::size_t>(kHeaderBytes),
              "page block shorter than its header");
    AQ_ASSERT(p[0] <= static_cast<std::uint8_t>(ColumnCodec::For),
              "unknown page codec ", static_cast<int>(p[0]));
    AQ_ASSERT(p[2] <= 1 && p[3] == 0, "corrupt page header flags");
    auto codec = static_cast<ColumnCodec>(p[0]);
    int bits = p[1];
    bool has_nulls = p[2] != 0;
    std::int64_t n = getScalar<std::uint32_t>(p + 4);
    std::int64_t param = getScalar<std::int64_t>(p + 8);
    AQ_ASSERT(n <= kMaxRowsPerPage, "page block claims ", n, " rows");
    const std::int64_t bitmap_bytes = has_nulls ? (n + 7) / 8 : 0;
    // Payload bytes present, and the payload bytes the header implies.
    const std::int64_t avail =
        static_cast<std::int64_t>(len) - kHeaderBytes - bitmap_bytes;
    std::int64_t need = 0;
    switch (codec) {
      case ColumnCodec::Raw:
        AQ_ASSERT(bits == 32 || bits == 64, "raw page of ", bits,
                  "-bit values");
        need = n * (bits / 8);
        break;
      case ColumnCodec::Rle:
        AQ_ASSERT(param >= 0
                      && param <= std::max<std::int64_t>(avail, 0) / 12,
                  "RLE page claims ", param, " runs");
        need = param * 12;
        break;
      case ColumnCodec::Dict:
        AQ_ASSERT(bits >= 1 && bits < 64, "dict page of ", bits,
                  "-bit codes");
        AQ_ASSERT(param >= 1
                      && param <= std::max<std::int64_t>(avail, 0) / 8,
                  "dict page claims ", param, " entries");
        need = param * 8 + packedBytes(n, bits);
        break;
      case ColumnCodec::For:
        AQ_ASSERT(bits >= 1 && bits < 64, "FOR page of ", bits,
                  "-bit deltas");
        need = packedBytes(n, bits);
        break;
    }
    AQ_ASSERT(need <= avail, "page payload overruns the ", len,
              "-byte block");

    const std::uint8_t *bitmap = has_nulls ? p + kHeaderBytes : nullptr;
    const std::uint8_t *cursor = p + kHeaderBytes + bitmap_bytes;
    auto is_null = [&](std::int64_t i) {
        return bitmap && ((bitmap[i >> 3] >> (i & 7)) & 1);
    };
    std::size_t base_out = out.size();
    out.resize(base_out + n);
    std::int64_t *dst = out.data() + base_out;

    switch (codec) {
      case ColumnCodec::Raw: {
        int width = bits / 8;
        for (std::int64_t i = 0; i < n; ++i) {
            if (width == 4)
                dst[i] = getScalar<std::int32_t>(cursor + i * 4);
            else
                dst[i] = getScalar<std::int64_t>(cursor + i * 8);
        }
        break;
      }
      case ColumnCodec::Rle: {
        std::int64_t i = 0;
        for (std::int64_t r = 0; r < param; ++r) {
            auto v = getScalar<std::int64_t>(cursor);
            auto cnt = getScalar<std::uint32_t>(cursor + 8);
            cursor += 12;
            AQ_ASSERT(cnt <= n - i, "RLE runs overrun the page's ", n,
                      " rows");
            std::fill(dst + i, dst + i + cnt, v);
            i += cnt;
        }
        AQ_ASSERT(i == n, "RLE run counts disagree with page rows");
        break;
      }
      case ColumnCodec::Dict: {
        const std::uint8_t *dict = cursor;
        const std::uint8_t *codes = cursor + param * 8;
        auto entry = [&](std::uint64_t code) {
            AQ_ASSERT(code < static_cast<std::uint64_t>(param),
                      "dict code ", code, " past the ", param,
                      "-entry dictionary");
            return getScalar<std::int64_t>(
                dict + static_cast<std::int64_t>(code) * 8);
        };
        std::int64_t fast = fastUnpackCount(n, bits, avail - param * 8);
        std::int64_t bitpos = 0;
        for (std::int64_t i = 0; i < fast; ++i, bitpos += bits)
            dst[i] = entry(getBitsFast(codes, bitpos, bits));
        for (std::int64_t i = fast; i < n; ++i, bitpos += bits)
            dst[i] = entry(getBits(codes, bitpos, bits));
        break;
      }
      case ColumnCodec::For: {
        std::int64_t fast = fastUnpackCount(n, bits, avail);
        std::int64_t bitpos = 0;
        for (std::int64_t i = 0; i < fast; ++i, bitpos += bits) {
            dst[i] = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(param)
                + getBitsFast(cursor, bitpos, bits));
        }
        for (std::int64_t i = fast; i < n; ++i, bitpos += bits) {
            dst[i] = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(param)
                + getBits(cursor, bitpos, bits));
        }
        break;
      }
    }
    if (bitmap) {
        for (std::int64_t i = 0; i < n; ++i) {
            if (is_null(i))
                dst[i] = kEncodedNull;
        }
    }
}

/**
 * Decode-free predicate kernel: rows of the page satisfying
 * `value op c`, evaluated directly on the encoded representation —
 * dictionary codes and FOR deltas are compared in the code domain
 * (both are order-preserving), RLE compares once per run. Null rows
 * never match. Used by the selector-kernel benches and the encoding
 * tests to prove code-domain evaluation matches decoded evaluation.
 */
inline std::int64_t
countMatchesEncoded(const EncodedPage &page, ZoneOp op,
                    std::int64_t c)
{
    using namespace enc_detail;
    ZoneVerdict zv = zoneCompare(page.zone, op, c);
    if (zv == ZoneVerdict::NonePass)
        return 0;
    if (zv == ZoneVerdict::AllPass)
        return page.rows; // zone map proves every (non-null) row passes

    const std::uint8_t *p = page.bytes.data();
    int bits = p[1];
    bool has_nulls = p[2] != 0;
    std::int64_t n = getScalar<std::uint32_t>(p + 4);
    std::int64_t param = getScalar<std::int64_t>(p + 8);
    const std::uint8_t *cursor = p + kHeaderBytes;
    const std::uint8_t *bitmap = nullptr;
    if (has_nulls) {
        bitmap = cursor;
        cursor += (n + 7) / 8;
    }
    auto is_null = [&](std::int64_t i) {
        return bitmap && ((bitmap[i >> 3] >> (i & 7)) & 1);
    };
    auto pass = [&](std::int64_t v) {
        switch (op) {
          case ZoneOp::Eq: return v == c;
          case ZoneOp::Ne: return v != c;
          case ZoneOp::Lt: return v < c;
          case ZoneOp::Le: return v <= c;
          case ZoneOp::Gt: return v > c;
          case ZoneOp::Ge: return v >= c;
        }
        return false;
    };

    std::int64_t count = 0;
    switch (page.codec) {
      case ColumnCodec::Raw: {
        int width = bits / 8;
        for (std::int64_t i = 0; i < n; ++i) {
            std::int64_t v = width == 4
                ? getScalar<std::int32_t>(cursor + i * 4)
                : getScalar<std::int64_t>(cursor + i * 8);
            if (!is_null(i) && pass(v))
                ++count;
        }
        break;
      }
      case ColumnCodec::Rle: {
        std::int64_t i = 0;
        for (std::int64_t r = 0; r < param; ++r) {
            auto v = getScalar<std::int64_t>(cursor);
            auto cnt = getScalar<std::uint32_t>(cursor + 8);
            cursor += 12;
            // One comparison per run; nulls are a sentinel run value.
            bool hit = v != kEncodedNull && pass(v);
            if (hit)
                count += cnt;
            i += cnt;
        }
        break;
      }
      case ColumnCodec::Dict: {
        // Map the constant into the code domain with one binary
        // search, then compare bit-packed codes only.
        const std::uint8_t *dict_bytes = cursor;
        const std::uint8_t *codes = cursor + param * 8;
        std::vector<std::int64_t> dict(param);
        for (std::int64_t d = 0; d < param; ++d)
            dict[d] = getScalar<std::int64_t>(dict_bytes + d * 8);
        // lo = first code with dict[code] >= c; exact = dict[lo] == c.
        std::int64_t lo =
            std::lower_bound(dict.begin(), dict.end(), c)
            - dict.begin();
        bool exact = lo < param && dict[lo] == c;
        auto code_pass = [&](std::uint64_t code) {
            auto k = static_cast<std::int64_t>(code);
            switch (op) {
              case ZoneOp::Eq: return exact && k == lo;
              case ZoneOp::Ne: return !(exact && k == lo);
              case ZoneOp::Lt: return k < lo;
              case ZoneOp::Le: return exact ? k <= lo : k < lo;
              case ZoneOp::Gt: return exact ? k > lo : k >= lo;
              case ZoneOp::Ge: return k >= lo;
            }
            return false;
        };
        std::int64_t fast = fastUnpackCount(
            n, bits,
            static_cast<std::int64_t>(page.bytes.size())
                - (codes - p));
        std::int64_t bitpos = 0;
        for (std::int64_t i = 0; i < n; ++i, bitpos += bits) {
            auto code = i < fast ? getBitsFast(codes, bitpos, bits)
                                 : getBits(codes, bitpos, bits);
            if (!is_null(i) && code_pass(code))
                ++count;
        }
        break;
      }
      case ColumnCodec::For: {
        // Compare deltas against c - base in the unsigned delta
        // domain; out-of-range constants were settled by the zone map
        // (SomePass implies min <= c-ish overlap) but re-check anyway.
        std::int64_t fast = fastUnpackCount(
            n, bits,
            static_cast<std::int64_t>(page.bytes.size())
                - (cursor - p));
        std::int64_t bitpos = 0;
        for (std::int64_t i = 0; i < n; ++i, bitpos += bits) {
            auto delta = i < fast ? getBitsFast(cursor, bitpos, bits)
                                  : getBits(cursor, bitpos, bits);
            auto v = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(param) + delta);
            if (!is_null(i) && pass(v))
                ++count;
        }
        break;
      }
    }
    return count;
}

} // namespace aquoman

#endif // AQUOMAN_COLUMNSTORE_ENCODING_HH

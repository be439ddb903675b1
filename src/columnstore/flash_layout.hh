/**
 * @file
 * Persistence of column files onto the simulated flash device. With
 * compression enabled (the default, see common/compress_mode.hh) each
 * column becomes one extent of independently decodable encoded page
 * blocks — dictionary / RLE / frame-of-reference chosen per page, one
 * block per 8KB flash page, each with a zone map — plus one raw extent
 * for the table's string heap. With AQUOMAN_COMPRESS=0 the layout is
 * the raw one: values at their on-flash width (4B for int32/date, 8B
 * for int64/decimal and varchar heap offsets), contiguous.
 *
 * Both the host I/O path and the AQUOMAN path read columns back
 * through the flash controller switch, so all traffic — compressed
 * bytes when compressed — is accounted.
 */

#ifndef AQUOMAN_COLUMNSTORE_FLASH_LAYOUT_HH
#define AQUOMAN_COLUMNSTORE_FLASH_LAYOUT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "columnstore/encoding.hh"
#include "columnstore/table.hh"
#include "common/compress_mode.hh"
#include "flash/controller_switch.hh"

namespace aquoman {

/** Where one encoded page block lives inside its column extent. */
struct PageBlockMeta
{
    ColumnCodec codec = ColumnCodec::Raw;
    std::int64_t firstRow = 0;
    std::int64_t rows = 0;
    std::int64_t byteOffset = 0; ///< page-aligned offset in the extent
    std::int64_t byteLen = 0;    ///< encoded block bytes
    PageZone zone;
};

/** Persisted encoding of one column (empty pages == stored raw). */
struct ColumnLayoutMeta
{
    std::int64_t rows = 0;
    std::int64_t encodedBytes = 0;
    std::vector<PageBlockMeta> pages;

    bool encoded() const { return !pages.empty(); }

    std::int64_t numPages() const
    {
        return static_cast<std::int64_t>(pages.size());
    }
};

/** Flash extents backing one persisted table. */
struct TableLayout
{
    std::vector<FlashExtent> columnExtents; ///< one per column
    FlashExtent heapExtent;                 ///< string heap bytes

    /**
     * Per-column page-block metadata (parallel to columnExtents) when
     * the table was persisted compressed; empty for the raw layout.
     */
    std::vector<ColumnLayoutMeta> columnEncodings;
};

/**
 * A table persisted to flash. The in-memory Table remains the string
 * authority; numeric reads decode real bytes from the device.
 */
class FlashResidentTable
{
  public:
    FlashResidentTable(std::shared_ptr<const Table> tbl, TableLayout lay)
        : tablePtr(std::move(tbl)), layout(std::move(lay))
    {
    }

    const Table &table() const { return *tablePtr; }
    const TableLayout &extents() const { return layout; }

    /**
     * Page-block metadata of column @p col, or nullptr when the
     * column is stored raw.
     */
    const ColumnLayoutMeta *
    encodingMeta(int col) const
    {
        if (static_cast<std::size_t>(col)
                >= layout.columnEncodings.size()
            || !layout.columnEncodings[col].encoded())
            return nullptr;
        return &layout.columnEncodings[col];
    }

    /**
     * Read rows [row_begin, row_end) of column @p col from flash through
     * @p sw on behalf of @p port, decoding into int64 values. Encoded
     * columns read and decode whole page blocks (only the blocks
     * overlapping the range); raw columns read the exact value bytes.
     */
    void
    readColumnRange(ControllerSwitch &sw, FlashPort port, int col,
                    std::int64_t row_begin, std::int64_t row_end,
                    std::vector<std::int64_t> &out) const
    {
        const Column &c = tablePtr->col(col);
        AQ_ASSERT(row_begin >= 0 && row_end <= c.size()
                  && row_begin <= row_end);
        std::int64_t n = row_end - row_begin;
        out.resize(n);
        if (n == 0)
            return;
        if (const ColumnLayoutMeta *meta = encodingMeta(col)) {
            readEncodedRange(sw, port, col, *meta, row_begin, row_end,
                             out);
            return;
        }
        int width = columnTypeWidth(c.type());
        std::vector<std::uint8_t> buf(n * width);
        sw.read(port, layout.columnExtents.at(col), row_begin * width,
                buf.data(), n * width);
        if (width == 4) {
            for (std::int64_t i = 0; i < n; ++i) {
                std::int32_t v;
                std::memcpy(&v, buf.data() + i * 4, 4);
                out[i] = v;
            }
        } else {
            for (std::int64_t i = 0; i < n; ++i) {
                std::int64_t v;
                std::memcpy(&v, buf.data() + i * 8, 8);
                out[i] = v;
            }
        }
    }

  private:
    void
    readEncodedRange(ControllerSwitch &sw, FlashPort port, int col,
                     const ColumnLayoutMeta &meta,
                     std::int64_t row_begin, std::int64_t row_end,
                     std::vector<std::int64_t> &out) const
    {
        const FlashExtent &ext = layout.columnExtents.at(col);
        // First block whose rows extend past row_begin.
        std::size_t lo = 0, hi = meta.pages.size();
        while (lo < hi) {
            std::size_t mid = (lo + hi) / 2;
            const PageBlockMeta &p = meta.pages[mid];
            if (p.firstRow + p.rows <= row_begin)
                lo = mid + 1;
            else
                hi = mid;
        }
        std::vector<std::uint8_t> buf;
        std::vector<std::int64_t> vals;
        for (std::size_t pi = lo; pi < meta.pages.size(); ++pi) {
            const PageBlockMeta &p = meta.pages[pi];
            if (p.firstRow >= row_end)
                break;
            buf.resize(p.byteLen);
            sw.read(port, ext, p.byteOffset, buf.data(), p.byteLen);
            vals.clear();
            decodePage(buf.data(), buf.size(), vals);
            AQ_ASSERT(static_cast<std::int64_t>(vals.size())
                          == p.rows,
                      "decoded row count disagrees with page meta");
            std::int64_t b = std::max(row_begin, p.firstRow);
            std::int64_t e =
                std::min(row_end, p.firstRow + p.rows);
            for (std::int64_t r = b; r < e; ++r)
                out[r - row_begin] = vals[r - p.firstRow];
        }
    }

    std::shared_ptr<const Table> tablePtr;
    TableLayout layout;
};

/** Writes tables onto a flash device and hands back resident handles. */
class TableStore
{
  public:
    explicit TableStore(ControllerSwitch &sw_) : sw(sw_) {}

    /**
     * Persist @p table (host-port writes: loading a database is a host
     * activity) and return the flash-resident handle.
     */
    std::shared_ptr<FlashResidentTable>
    store(std::shared_ptr<const Table> table)
    {
        table->checkConsistent();
        bool compress = compressionEnabled();
        TableLayout layout;
        FlashDevice &dev = sw.dev();
        for (int i = 0; i < table->numColumns(); ++i) {
            const Column &c = table->col(i);
            if (compress) {
                storeEncoded(dev, c, layout);
                continue;
            }
            int width = columnTypeWidth(c.type());
            std::int64_t bytes = c.size() * width;
            FlashExtent ext = dev.allocate(bytes);
            std::vector<std::uint8_t> buf(bytes);
            if (width == 4) {
                for (std::int64_t r = 0; r < c.size(); ++r) {
                    auto v = static_cast<std::int32_t>(c.get(r));
                    std::memcpy(buf.data() + r * 4, &v, 4);
                }
            } else {
                for (std::int64_t r = 0; r < c.size(); ++r) {
                    std::int64_t v = c.get(r);
                    std::memcpy(buf.data() + r * 8, &v, 8);
                }
            }
            if (bytes > 0)
                sw.write(FlashPort::Host, ext, 0, buf.data(), bytes);
            layout.columnExtents.push_back(ext);
        }
        const auto &heap = table->strings().raw();
        layout.heapExtent = dev.allocate(
            static_cast<std::int64_t>(heap.size()));
        if (!heap.empty()) {
            sw.write(FlashPort::Host, layout.heapExtent, 0, heap.data(),
                     static_cast<std::int64_t>(heap.size()));
        }
        return std::make_shared<FlashResidentTable>(std::move(table),
                                                    std::move(layout));
    }

    ControllerSwitch &controller() { return sw; }

  private:
    /** Encode @p c into page blocks, one block per flash page. */
    void
    storeEncoded(FlashDevice &dev, const Column &c, TableLayout &layout)
    {
        int width = columnTypeWidth(c.type());
        std::vector<std::int64_t> vals(c.size());
        for (std::int64_t r = 0; r < c.size(); ++r)
            vals[r] = c.get(r);
        ColumnEncoding enc = encodeValues(
            vals.data(), static_cast<std::int64_t>(vals.size()), width);
        FlashExtent ext =
            dev.allocate(enc.numPages() * kFlashPageBytes);
        ColumnLayoutMeta meta;
        meta.rows = enc.rows;
        meta.encodedBytes = enc.encodedBytes;
        for (std::int64_t p = 0; p < enc.numPages(); ++p) {
            const EncodedPage &page = enc.pages[p];
            PageBlockMeta pm;
            pm.codec = page.codec;
            pm.firstRow = page.firstRow;
            pm.rows = page.rows;
            pm.byteOffset = p * kFlashPageBytes;
            pm.byteLen =
                static_cast<std::int64_t>(page.bytes.size());
            pm.zone = page.zone;
            sw.write(FlashPort::Host, ext, pm.byteOffset,
                     page.bytes.data(), pm.byteLen);
            meta.pages.push_back(pm);
        }
        layout.columnExtents.push_back(ext);
        layout.columnEncodings.resize(layout.columnExtents.size());
        layout.columnEncodings.back() = std::move(meta);
    }

    ControllerSwitch &sw;
};

} // namespace aquoman

#endif // AQUOMAN_COLUMNSTORE_FLASH_LAYOUT_HH

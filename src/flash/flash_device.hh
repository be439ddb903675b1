/**
 * @file
 * Functional + timing model of a NAND flash device. Pages are allocated
 * in extents (contiguous page ranges) by the column-store layout layer.
 * Reads and writes move real bytes so that everything downstream (the
 * baseline engine and the AQUOMAN pipeline) computes on data that truly
 * round-tripped through the device, while counters feed the timing model.
 */

#ifndef AQUOMAN_FLASH_FLASH_DEVICE_HH
#define AQUOMAN_FLASH_FLASH_DEVICE_HH

#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "flash/flash_config.hh"

namespace aquoman {

/** Identifier of one flash page. */
using PageId = std::int64_t;

/** A contiguous run of flash pages backing one column file. */
struct FlashExtent
{
    PageId firstPage = 0;
    std::int64_t numPages = 0;
    std::int64_t byteLength = 0; ///< valid bytes (may end mid-page)
};

/**
 * Simulated NAND flash array. Storage is allocated lazily per page; the
 * device enforces its configured capacity and tracks read/write traffic
 * for the performance models.
 */
class FlashDevice
{
  public:
    explicit FlashDevice(const FlashConfig &cfg = FlashConfig{})
        : config(cfg)
    {
    }

    /** Device configuration. */
    const FlashConfig &cfg() const { return config; }

    /**
     * Allocate a fresh extent able to hold @p bytes. Requests are
     * rounded up to page granularity here — and only here: callers
     * pass their exact byte need (zero included, for an empty column
     * file) and always receive at least one whole page.
     * @throws FatalError when the device is full.
     */
    FlashExtent
    allocate(std::int64_t bytes)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (bytes < 0)
            bytes = 0;
        std::int64_t pages = (bytes + config.pageBytes - 1)
            / config.pageBytes;
        if (pages == 0)
            pages = 1;
        if (nextFreePage + pages > config.numPages()) {
            std::int64_t free_pages = config.numPages() - nextFreePage;
            fatal("flash device '", config.name, "' full: requested ",
                  bytes, " bytes (", pages, " pages), remaining "
                  "capacity ", free_pages * config.pageBytes, " bytes (",
                  free_pages, " of ", config.numPages(), " pages)");
        }
        FlashExtent ext{nextFreePage, pages, bytes};
        nextFreePage += pages;
        if (static_cast<std::int64_t>(pageStore.size()) < nextFreePage)
            pageStore.resize(nextFreePage);
        return ext;
    }

    /** Write @p bytes at byte offset @p offset inside @p ext. */
    void
    write(const FlashExtent &ext, std::int64_t offset, const void *data,
          std::int64_t bytes)
    {
        AQ_ASSERT(offset >= 0 && offset + bytes <= ext.numPages
                  * config.pageBytes);
        {
            // The mutex only serialises the page store; the ledger
            // below is lock-free.
            std::lock_guard<std::mutex> lock(mu);
            const auto *src = static_cast<const std::uint8_t *>(data);
            std::int64_t pos = offset;
            std::int64_t remaining = bytes;
            while (remaining > 0) {
                PageId page = ext.firstPage + pos / config.pageBytes;
                std::int64_t in_page = pos % config.pageBytes;
                std::int64_t chunk =
                    std::min(remaining, config.pageBytes - in_page);
                ensurePage(page);
                std::memcpy(pageStore[page].data() + in_page, src,
                            chunk);
                src += chunk;
                pos += chunk;
                remaining -= chunk;
            }
        }
        std::int64_t pages_touched =
            (bytes + config.pageBytes - 1) / config.pageBytes;
        // Hot-path ledger: relaxed atomics, no ordering needed — the
        // counters are pure sums read after the writers joined.
        bytesWrittenCtr.fetch_add(bytes, std::memory_order_relaxed);
        pagesWrittenCtr.fetch_add(pages_touched,
                                  std::memory_order_relaxed);
    }

    /** Read @p bytes at byte offset @p offset inside @p ext. */
    void
    read(const FlashExtent &ext, std::int64_t offset, void *out,
         std::int64_t bytes) const
    {
        AQ_ASSERT(offset >= 0 && offset + bytes <= ext.numPages
                  * config.pageBytes);
        {
            std::lock_guard<std::mutex> lock(mu);
            auto *dst = static_cast<std::uint8_t *>(out);
            std::int64_t pos = offset;
            std::int64_t remaining = bytes;
            while (remaining > 0) {
                PageId page = ext.firstPage + pos / config.pageBytes;
                std::int64_t in_page = pos % config.pageBytes;
                std::int64_t chunk =
                    std::min(remaining, config.pageBytes - in_page);
                if (page < static_cast<PageId>(pageStore.size())
                        && !pageStore[page].empty()) {
                    std::memcpy(dst, pageStore[page].data() + in_page,
                                chunk);
                } else {
                    std::memset(dst, 0, chunk); // erased reads as zero
                }
                dst += chunk;
                pos += chunk;
                remaining -= chunk;
            }
        }
        std::int64_t pages_touched =
            (bytes + config.pageBytes - 1) / config.pageBytes;
        bytesReadCtr.fetch_add(bytes, std::memory_order_relaxed);
        pagesReadCtr.fetch_add(pages_touched,
                               std::memory_order_relaxed);
    }

    /**
     * Snapshot of the traffic counters (flash.bytesRead/bytesWritten/
     * pagesRead/pagesWritten). The hot-path ledgers are relaxed
     * atomics; each is an exact sum of the increments that happened
     * before the call.
     */
    StatSet
    stats() const
    {
        StatSet s;
        s.add("flash.bytesRead",
              static_cast<double>(
                  bytesReadCtr.load(std::memory_order_relaxed)));
        s.add("flash.bytesWritten",
              static_cast<double>(
                  bytesWrittenCtr.load(std::memory_order_relaxed)));
        s.add("flash.pagesRead",
              static_cast<double>(
                  pagesReadCtr.load(std::memory_order_relaxed)));
        s.add("flash.pagesWritten",
              static_cast<double>(
                  pagesWrittenCtr.load(std::memory_order_relaxed)));
        return s;
    }

    /** Pages currently allocated. */
    std::int64_t allocatedPages() const { return nextFreePage; }

  private:
    void
    ensurePage(PageId page)
    {
        AQ_ASSERT(page >= 0
                  && page < static_cast<PageId>(pageStore.size()));
        if (pageStore[page].empty())
            pageStore[page].resize(config.pageBytes, 0);
    }

    FlashConfig config;
    /// One device serves concurrent host/AQUOMAN streams; the command
    /// queue serialises page operations. The traffic counters are
    /// lock-free so the ledger adds no serialisation of their own.
    mutable std::mutex mu;
    std::vector<std::vector<std::uint8_t>> pageStore;
    PageId nextFreePage = 0;
    mutable std::atomic<std::int64_t> bytesReadCtr{0};
    mutable std::atomic<std::int64_t> bytesWrittenCtr{0};
    mutable std::atomic<std::int64_t> pagesReadCtr{0};
    mutable std::atomic<std::int64_t> pagesWrittenCtr{0};
};

} // namespace aquoman

#endif // AQUOMAN_FLASH_FLASH_DEVICE_HH

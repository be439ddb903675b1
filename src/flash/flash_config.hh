/**
 * @file
 * Configuration of the simulated NAND flash device. Defaults reproduce
 * the BlueDBM custom flash card used by the AQUOMAN prototype (Sec. VII):
 * 8KB pages and 2.4 GB/s sequential read. Modelled flash time is bytes
 * over readBandwidth.
 */

#ifndef AQUOMAN_FLASH_FLASH_CONFIG_HH
#define AQUOMAN_FLASH_FLASH_CONFIG_HH

#include <cstdint>
#include <string>

namespace aquoman {

/**
 * Flash page access granularity in bytes (paper: 8KB). The single
 * authority for the page size: FlashConfig defaults to it, the column
 * encoder sizes its page blocks by it, and FlashDevice::allocate
 * rounds every request up to this granularity.
 */
inline constexpr std::int64_t kFlashPageBytes = 8 * 1024;

/** Static parameters of a simulated flash device. */
struct FlashConfig
{
    /** Device name, used in diagnostics (e.g. "ssd0" in a multi-SSD
     *  service array). */
    std::string name = "flash";

    /** Page access granularity in bytes (paper: 8KB). */
    std::int64_t pageBytes = kFlashPageBytes;

    /** Sequential read bandwidth in bytes/second (paper: 2.4 GB/s). */
    double readBandwidth = 2.4e9;

    /** Total device capacity in bytes (paper: 1TB; tests shrink this). */
    std::int64_t capacityBytes = 1ll << 40;

    /** Number of pages the device can hold. */
    std::int64_t numPages() const { return capacityBytes / pageBytes; }
};

} // namespace aquoman

#endif // AQUOMAN_FLASH_FLASH_CONFIG_HH

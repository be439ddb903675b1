/** @file Unit tests for the NAND flash device model. */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "flash/controller_switch.hh"
#include "flash/flash_device.hh"

namespace aquoman {
namespace {

FlashConfig
smallConfig()
{
    FlashConfig cfg;
    cfg.capacityBytes = 16 << 20; // 16MB device for tests
    return cfg;
}

TEST(FlashDeviceTest, WriteReadRoundTrip)
{
    FlashDevice dev(smallConfig());
    FlashExtent ext = dev.allocate(100000);
    std::vector<std::uint8_t> data(100000);
    std::iota(data.begin(), data.end(), 0);
    dev.write(ext, 0, data.data(), data.size());
    std::vector<std::uint8_t> back(data.size());
    dev.read(ext, 0, back.data(), back.size());
    EXPECT_EQ(data, back);
}

TEST(FlashDeviceTest, UnalignedOffsetsCrossPages)
{
    FlashDevice dev(smallConfig());
    FlashExtent ext = dev.allocate(3 * 8192);
    std::vector<std::uint8_t> data(10000, 0xab);
    dev.write(ext, 5000, data.data(), data.size()); // spans two pages
    std::vector<std::uint8_t> back(10000);
    dev.read(ext, 5000, back.data(), back.size());
    EXPECT_EQ(back, data);
    // Data before the write reads back as erased zeroes.
    std::uint8_t head[16];
    dev.read(ext, 0, head, 16);
    for (auto b : head)
        EXPECT_EQ(b, 0);
}

TEST(FlashDeviceTest, TrafficCountersAccumulate)
{
    FlashDevice dev(smallConfig());
    FlashExtent ext = dev.allocate(8192 * 4);
    std::vector<std::uint8_t> data(8192 * 4, 1);
    dev.write(ext, 0, data.data(), data.size());
    dev.read(ext, 0, data.data(), 8192);
    dev.read(ext, 0, data.data(), 8192);
    EXPECT_EQ(dev.stats().get("flash.bytesWritten"), 8192 * 4);
    EXPECT_EQ(dev.stats().get("flash.bytesRead"), 8192 * 2);
    EXPECT_EQ(dev.stats().get("flash.pagesRead"), 2);
}

TEST(FlashDeviceTest, CapacityEnforced)
{
    FlashConfig cfg = smallConfig();
    FlashDevice dev(cfg);
    dev.allocate(cfg.capacityBytes / 2);
    EXPECT_THROW(dev.allocate(cfg.capacityBytes), FatalError);
}

TEST(FlashDeviceTest, FullDeviceErrorNamesDeviceAndCapacity)
{
    FlashConfig cfg = smallConfig();
    cfg.name = "ssd3";
    FlashDevice dev(cfg);
    dev.allocate(cfg.capacityBytes - 4 * cfg.pageBytes);
    try {
        dev.allocate(cfg.capacityBytes);
        FAIL() << "allocate past capacity must throw";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        // The diagnostic names the device and quantifies the failure:
        // requested bytes and remaining capacity.
        EXPECT_NE(msg.find("'ssd3'"), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::to_string(cfg.capacityBytes)),
                  std::string::npos) << msg;
        EXPECT_NE(msg.find(std::to_string(4 * cfg.pageBytes)),
                  std::string::npos) << msg;
    }
}

TEST(FlashDeviceTest, ExtentsDoNotOverlap)
{
    FlashDevice dev(smallConfig());
    FlashExtent a = dev.allocate(8192);
    FlashExtent b = dev.allocate(8192);
    std::uint8_t va = 0x11, vb = 0x22;
    dev.write(a, 0, &va, 1);
    dev.write(b, 0, &vb, 1);
    std::uint8_t ra, rb;
    dev.read(a, 0, &ra, 1);
    dev.read(b, 0, &rb, 1);
    EXPECT_EQ(ra, 0x11);
    EXPECT_EQ(rb, 0x22);
    EXPECT_NE(a.firstPage, b.firstPage);
}

TEST(ControllerSwitchTest, PerPortAccounting)
{
    FlashDevice dev(smallConfig());
    ControllerSwitch sw(dev);
    FlashExtent ext = dev.allocate(8192);
    std::uint8_t buf[128] = {};
    sw.write(FlashPort::Host, ext, 0, buf, 128);
    sw.read(FlashPort::Aquoman, ext, 0, buf, 64);
    sw.read(FlashPort::Host, ext, 0, buf, 32);
    EXPECT_EQ(sw.stats().get("host.bytesWritten"), 128);
    EXPECT_EQ(sw.stats().get("aquoman.bytesRead"), 64);
    EXPECT_EQ(sw.stats().get("host.bytesRead"), 32);
}

TEST(ControllerSwitchTest, FairArbitrationHalvesBandwidth)
{
    FlashDevice dev(smallConfig());
    ControllerSwitch sw(dev);
    EXPECT_DOUBLE_EQ(sw.effectiveReadBandwidth(false),
                     dev.cfg().readBandwidth);
    EXPECT_DOUBLE_EQ(sw.effectiveReadBandwidth(true),
                     dev.cfg().readBandwidth / 2);
}

} // namespace
} // namespace aquoman

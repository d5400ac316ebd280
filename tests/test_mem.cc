/** Memory system, SRAM and shared-port arbitration tests. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sim/clint.hh"
#include "sim/hostio.hh"
#include "sim/mem.hh"
#include "sim/memmap.hh"

namespace rtu {
namespace {

TEST(Sram, ByteHalfWordAccess)
{
    Sram ram("ram", 0x1000, 0x100);
    ram.write(0x1000, 0xDEADBEEF, MemSize::kWord);
    EXPECT_EQ(ram.read(0x1000, MemSize::kWord), 0xDEADBEEFu);
    EXPECT_EQ(ram.read(0x1000, MemSize::kByte), 0xEFu);
    EXPECT_EQ(ram.read(0x1001, MemSize::kByte), 0xBEu);
    EXPECT_EQ(ram.read(0x1002, MemSize::kHalf), 0xDEADu);

    ram.write(0x1001, 0x42, MemSize::kByte);
    EXPECT_EQ(ram.read(0x1000, MemSize::kWord), 0xDEAD42EFu);
}

TEST(Sram, LoadWords)
{
    Sram ram("ram", 0, 64);
    ram.loadWords(8, {1, 2, 3});
    EXPECT_EQ(ram.read(8, MemSize::kWord), 1u);
    EXPECT_EQ(ram.read(12, MemSize::kWord), 2u);
    EXPECT_EQ(ram.read(16, MemSize::kWord), 3u);
}

TEST(MemSystem, RoutesByAddress)
{
    Sram a("a", 0x0, 0x100);
    Sram b("b", 0x1000, 0x100);
    MemSystem sys;
    sys.addDevice(&a);
    sys.addDevice(&b);
    sys.write32(0x10, 11);
    sys.write32(0x1010, 22);
    EXPECT_EQ(sys.read32(0x10), 11u);
    EXPECT_EQ(sys.read32(0x1010), 22u);
    EXPECT_EQ(sys.deviceAt(0x1010), &b);
    EXPECT_EQ(sys.deviceAt(0x5000), nullptr);
}

TEST(MemSystemGuestFault, UnmappedAccessThrows)
{
    // Bus errors are guest faults, not simulator panics: the run loop
    // classifies them (fault-injected guests crash routinely), and a
    // test can assert on them directly.
    MemSystem sys;
    EXPECT_THROW(sys.read32(0x42), GuestFault);
    try {
        sys.read32(0x42);
        FAIL() << "unmapped read did not throw";
    } catch (const GuestFault &gf) {
        EXPECT_NE(std::string(gf.what()).find("unmapped"),
                  std::string::npos);
    }
}

TEST(MemSystemGuestFault, StraddlingAccessIsACleanBusError)
{
    // A word access whose start lies in one device but whose last
    // byte falls off its end must fault in the bus layer (clean
    // error naming the range), not trip device-internal asserts.
    Sram a("a", 0x0, 0x100);
    Sram b("b", 0x1000, 0x100);
    MemSystem sys;
    sys.addDevice(&a);
    sys.addDevice(&b);
    EXPECT_THROW(sys.read(0xFE, MemSize::kWord), GuestFault);
    EXPECT_THROW(sys.write(0xFF, 1, MemSize::kHalf), GuestFault);
    EXPECT_THROW(sys.read(0x10FE, MemSize::kWord), GuestFault);
    try {
        sys.read(0xFE, MemSize::kWord);
        FAIL() << "straddling read did not throw";
    } catch (const GuestFault &gf) {
        EXPECT_NE(std::string(gf.what()).find("straddles"),
                  std::string::npos);
    }
    // The last in-bounds word access still works.
    sys.write(0xFC, 0x11223344, MemSize::kWord);
    EXPECT_EQ(sys.read(0xFC, MemSize::kWord), 0x11223344u);
    // Byte access to the last device byte is fine.
    EXPECT_EQ(sys.read(0xFF, MemSize::kByte), 0x11u);
}

TEST(MemSystemGuestFault, ClintBadAccessesThrow)
{
    // A guest (fault-corrupted pointers included) reaches every device
    // register with any size: an access the CLINT does not decode is
    // an access fault, not a host abort.
    IrqLines irq;
    Clint clint(irq);
    MemSystem sys;
    sys.addDevice(&clint);
    EXPECT_THROW(sys.read(memmap::kClintMtime, MemSize::kHalf), GuestFault);
    EXPECT_THROW(sys.read32(memmap::kClintBase + 0x5c0), GuestFault);
    EXPECT_THROW(sys.write(memmap::kClintMsip, 1, MemSize::kByte),
                 GuestFault);
    EXPECT_THROW(sys.write32(memmap::kClintMtime, 1), GuestFault);
    // The registers themselves still work.
    sys.write32(memmap::kClintMtimecmp, 7);
    EXPECT_EQ(sys.read32(memmap::kClintMtimecmp), 7u);
}

TEST(MemSystemGuestFault, HostIoBadAccessesThrow)
{
    IrqLines irq;
    ExtIrqDriver ext(irq);
    HostIo hostio(irq, ext);
    MemSystem sys;
    sys.addDevice(&hostio);
    EXPECT_THROW(sys.read(memmap::kHostRand, MemSize::kByte), GuestFault);
    EXPECT_THROW(sys.read32(memmap::kHostExit), GuestFault);
    EXPECT_THROW(sys.write(memmap::kHostExit, 1, MemSize::kHalf),
                 GuestFault);
    EXPECT_THROW(sys.write32(memmap::kHostRand, 1), GuestFault);
    EXPECT_FALSE(hostio.exited());
    // A byte store to the console register is legal, and so is a
    // word read of the PRNG.
    sys.write(memmap::kHostPutchar, 'k', MemSize::kByte);
    EXPECT_EQ(hostio.consoleOutput(), "k");
    EXPECT_NE(sys.read32(memmap::kHostRand), sys.read32(memmap::kHostRand));
}

TEST(SharedPort, CoreHasPriority)
{
    SharedPort port("p");
    port.beginCycle();
    EXPECT_TRUE(port.available());
    port.claim();
    EXPECT_FALSE(port.available());
    EXPECT_FALSE(port.tryUse());

    port.beginCycle();
    EXPECT_TRUE(port.tryUse());
    EXPECT_FALSE(port.tryUse());  // one secondary access per cycle

    port.beginCycle();
    EXPECT_TRUE(port.available());
}

TEST(MemMap, ContextRegionAddressing)
{
    EXPECT_EQ(memmap::ctxAddr(0), memmap::kCtxBase);
    EXPECT_EQ(memmap::ctxAddr(1), memmap::kCtxBase + 128);
    EXPECT_EQ(memmap::ctxAddr(7), memmap::kCtxBase + 7 * 128);
}

} // namespace
} // namespace rtu

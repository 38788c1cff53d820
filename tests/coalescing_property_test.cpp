// Parameterized property tests for the memory-system model — the
// machinery behind guideline V's numbers.  For strided warp accesses,
// the number of touched sectors has a closed form; the simulator must
// match it for every (element size, stride) combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "vsparse/common/rng.hpp"
#include "vsparse/fp16/vec.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/gpusim/engine/lanes.hpp"
#include "vsparse/gpusim/engine/launch.hpp"
#include "vsparse/gpusim/engine/launch_config.hpp"

namespace vsparse::gpusim {
namespace {

DeviceConfig small_config() {
  DeviceConfig cfg;
  cfg.dram_capacity = 32 << 20;
  cfg.num_sms = 2;
  return cfg;
}

/// Expected unique 32 B sectors for 32 lanes of `width`-byte accesses
/// with byte stride `stride` from a 256-aligned base.
std::uint64_t expected_sectors(int width, int stride) {
  std::set<std::uint64_t> sectors;
  for (int lane = 0; lane < 32; ++lane) {
    sectors.insert(static_cast<std::uint64_t>(lane) * stride / 32);
  }
  (void)width;  // naturally aligned accesses never straddle sectors
  return sectors.size();
}

class CoalescingSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CoalescingSweep, SectorCountMatchesClosedForm) {
  const auto [width, stride_mult] = GetParam();
  const int stride = width * stride_mult;
  Device dev(small_config());
  auto buf = dev.alloc<std::uint8_t>(static_cast<std::size_t>(stride) * 64 +
                                     256);
  LaunchConfig cfg;
  KernelStats s = launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    AddrLanes addr;
    for (int lane = 0; lane < 32; ++lane) {
      addr[static_cast<std::size_t>(lane)] =
          buf.addr(static_cast<std::size_t>(lane) *
                   static_cast<std::size_t>(stride));
    }
    switch (width) {
      case 2: {
        Lanes<half_t> d;
        w.ldg_span(addr.data(), 32, 1, 0, d);
        break;
      }
      case 4: {
        Lanes<float> d;
        w.ldg_span(addr.data(), 32, 1, 0, d);
        break;
      }
      case 8: {
        Lanes<half4> d;
        w.ldg_span(addr.data(), 32, 1, 0, d);
        break;
      }
      default: {
        Lanes<half8> d;
        w.ldg_span(addr.data(), 32, 1, 0, d);
        break;
      }
    }
  });
  EXPECT_EQ(s.global_load_sectors, expected_sectors(width, stride))
      << "width=" << width << " stride=" << stride;
  EXPECT_EQ(s.global_load_requests, 1u);
  // Every touched sector either hit or missed in L1.
  EXPECT_EQ(s.l1_sector_hits + s.l1_sector_misses, s.global_load_sectors);
  // And every L1 miss either hit or missed in L2 (conservation).
  EXPECT_EQ(s.l2_sector_hits + s.l2_sector_misses, s.l1_sector_misses);
  // Cold caches: everything misses all the way to DRAM.
  EXPECT_EQ(s.dram_read_bytes, s.global_load_sectors * 32);
}

INSTANTIATE_TEST_SUITE_P(
    WidthStride, CoalescingSweep,
    ::testing::Combine(::testing::Values(2, 4, 8, 16),
                       ::testing::Values(1, 2, 4, 8, 16)));

// Property: repeating any access pattern back-to-back hits 100% in L1
// (the working set of one warp request always fits).
class ReuseSweep : public ::testing::TestWithParam<int> {};

TEST_P(ReuseSweep, ImmediateReuseAlwaysHits) {
  const int stride = GetParam();
  Device dev(small_config());
  auto buf = dev.alloc<std::uint8_t>(static_cast<std::size_t>(stride) * 64 +
                                     256);
  LaunchConfig cfg;
  KernelStats s = launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    AddrLanes addr;
    Lanes<float> d;
    for (int lane = 0; lane < 32; ++lane) {
      addr[static_cast<std::size_t>(lane)] =
          buf.addr(static_cast<std::size_t>(lane) *
                   static_cast<std::size_t>(stride));
    }
    w.ldg_span(addr.data(), 32, 1, 0, d);
    w.ldg_span(addr.data(), 32, 1, 0, d);
  });
  EXPECT_EQ(s.l1_sector_hits, s.global_load_sectors / 2) << stride;
}

INSTANTIATE_TEST_SUITE_P(Strides, ReuseSweep,
                         ::testing::Values(4, 16, 64, 256, 1024));

// Property: a randomly-generated batch of naturally-aligned accesses
// never reports more sectors than active lanes nor fewer than
// ceil(total unique bytes / 32).
TEST(CoalescingRandom, SectorBoundsHold) {
  Rng rng(99);
  Device dev(small_config());
  auto buf = dev.alloc<std::uint8_t>(1 << 20);
  LaunchConfig cfg;
  for (int trial = 0; trial < 200; ++trial) {
    KernelStats s = launch(dev, cfg, [&](Cta& cta) {
      Warp w = cta.warp(0);
      AddrLanes addr;
      Lanes<float> d;
      std::uint32_t mask = 0;
      int active = 0;
      for (int lane = 0; lane < 32; ++lane) {
        if (rng.bernoulli(0.7f)) {
          addr[static_cast<std::size_t>(lane)] =
              buf.addr(rng.uniform_u64((1 << 18)) * 4);
          mask |= 1u << lane;
          ++active;
        }
      }
      if (mask == 0) {
        addr[0] = buf.addr(0);
        mask = 1;
        active = 1;
      }
      w.ldg_span(addr.data(), 32, 1, 0, d, mask);
      EXPECT_LE(active, 32);
    });
    EXPECT_LE(s.global_load_sectors, 32u);
    EXPECT_GE(s.global_load_sectors, 1u);
  }
}

}  // namespace
}  // namespace vsparse::gpusim

// Thread-count sweep for the sharded execution engine: the same
// kernel launched with 1, 2, and 8 host threads must produce
// bit-identical functional results and bit-identical per-SM counters
// (the determinism contract of engine/launch.hpp).  Also covers the
// Scheduler's round-robin assignment, the counter-preserving L2
// slicing, SimOptions inheritance from the device, and exception
// propagation out of worker threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/gpusim/cache.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/gpusim/engine/scheduler.hpp"
#include "vsparse/gpusim/engine/launch.hpp"
#include "vsparse/gpusim/engine/launch_config.hpp"
#include "vsparse/gpusim/engine/sim_options.hpp"
#include "vsparse/gpusim/faults.hpp"
#include "vsparse/gpusim/trace/counters.hpp"
#include "vsparse/kernels/sddmm/sddmm_octet.hpp"
#include "vsparse/kernels/spmm/spmm_octet.hpp"

#include "span_corpus.hpp"

namespace vsparse::kernels {
namespace {

gpusim::DeviceConfig test_config() {
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 256 << 20;
  cfg.num_sms = 8;
  return cfg;
}

struct SweepRun {
  std::vector<std::uint16_t> out_bits;      ///< downloaded result payload
  gpusim::KernelStats total;                ///< merged launch counters
  std::vector<gpusim::KernelStats> per_sm;  ///< one block per device SM
};

/// Run the octet SpMM end to end with `threads` workers.
SweepRun run_spmm(int threads, const Cvs& a_host,
                  const DenseMatrix<half_t>& b_host) {
  SweepRun run;
  gpusim::Device dev(test_config());
  gpusim::SimOptions sim{.threads = threads, .per_sm_stats = &run.per_sm};
  auto a = to_device(dev, a_host);
  auto b = to_device(dev, b_host);
  DenseMatrix<half_t> ch(a_host.rows, b_host.cols());
  auto c = to_device(dev, ch);
  run.total = spmm_octet(dev, a, b, c, {}, sim).stats;
  for (half_t h : c.buf.host()) run.out_bits.push_back(h.bits());
  return run;
}

/// Run the octet SDDMM end to end with `threads` workers.
SweepRun run_sddmm(int threads, const DenseMatrix<half_t>& a_host,
                   const DenseMatrix<half_t>& b_host, const Cvs& mask_host) {
  SweepRun run;
  gpusim::Device dev(test_config());
  gpusim::SimOptions sim{.threads = threads, .per_sm_stats = &run.per_sm};
  auto a = to_device(dev, a_host);
  auto b = to_device(dev, b_host);
  auto mask = to_device(dev, mask_host);
  auto out = dev.alloc<half_t>(mask_host.col_idx.size() *
                               static_cast<std::size_t>(mask_host.v));
  run.total = sddmm_octet(dev, a, b, mask, out, {}, sim).stats;
  for (half_t h : out.host()) run.out_bits.push_back(h.bits());
  return run;
}

/// The determinism contract between a serial baseline and an N-thread
/// run of the same launch.
void expect_thread_invariant(const SweepRun& base, const SweepRun& run,
                             int threads) {
  ASSERT_EQ(base.out_bits.size(), run.out_bits.size());
  for (std::size_t i = 0; i < base.out_bits.size(); ++i) {
    ASSERT_EQ(base.out_bits[i], run.out_bits[i])
        << "output word " << i << " differs at threads=" << threads;
  }
  ASSERT_EQ(base.per_sm.size(), run.per_sm.size());
  for (std::size_t sm = 0; sm < base.per_sm.size(); ++sm) {
    EXPECT_TRUE(base.per_sm[sm].sm_local_equal(run.per_sm[sm]))
        << "per-SM counters differ on SM " << sm << " at threads=" << threads
        << "\nserial:\n"
        << base.per_sm[sm].to_string() << "\nthreaded:\n"
        << run.per_sm[sm].to_string();
  }
  EXPECT_TRUE(base.total.sm_local_equal(run.total))
      << "merged SM-local counters differ at threads=" << threads;
  // The L2 hit/miss *split* may shift under concurrent interleaving,
  // but every L1 miss reaches the L2 exactly once, so the sum cannot.
  EXPECT_EQ(base.total.l2_sector_hits + base.total.l2_sector_misses,
            run.total.l2_sector_hits + run.total.l2_sector_misses);
}

/// Per-SM blocks must sum to the merged total on the SM-local fields.
void expect_per_sm_sums_to_total(const SweepRun& run) {
  gpusim::KernelStats sum;
  for (const auto& sm : run.per_sm) sum += sm;
  EXPECT_TRUE(sum.sm_local_equal(run.total));
  EXPECT_EQ(sum.l2_sector_hits, run.total.l2_sector_hits);
  EXPECT_EQ(sum.l2_sector_misses, run.total.l2_sector_misses);
}

TEST(EngineThreadSweep, SpmmBitExactAcrossThreadCounts) {
  Rng rng(99);
  Cvs a = make_cvs(128, 96, 4, 0.6, rng);
  for (half_t& h : a.values) {
    h = half_t(static_cast<float>(rng.uniform_int(-3, 3)));
  }
  DenseMatrix<half_t> b(96, 64);
  b.fill_random_int(rng);

  const SweepRun serial = run_spmm(1, a, b);
  expect_per_sm_sums_to_total(serial);
  EXPECT_GT(serial.total.ctas_launched, 1u);  // sweep exercises > 1 SM
  for (int threads : {2, 8}) {
    const SweepRun threaded = run_spmm(threads, a, b);
    expect_thread_invariant(serial, threaded, threads);
    expect_per_sm_sums_to_total(threaded);
  }
}

TEST(EngineThreadSweep, SddmmBitExactAcrossThreadCounts) {
  Rng rng(7);
  DenseMatrix<half_t> a(64, 96);
  DenseMatrix<half_t> b(96, 128, Layout::kColMajor);
  a.fill_random_int(rng);
  b.fill_random_int(rng);
  Cvs mask = make_cvs_mask(64, 128, 4, 0.5, rng);

  const SweepRun serial = run_sddmm(1, a, b, mask);
  expect_per_sm_sums_to_total(serial);
  for (int threads : {2, 8}) {
    const SweepRun threaded = run_sddmm(threads, a, b, mask);
    expect_thread_invariant(serial, threaded, threads);
    expect_per_sm_sums_to_total(threaded);
  }
}

TEST(EngineThreadSweep, PerSmStatsSizedToDeviceWithIdleSmsZero) {
  gpusim::Device dev(test_config());
  std::vector<gpusim::KernelStats> per_sm;
  gpusim::LaunchConfig cfg;
  cfg.grid = 3;  // fewer CTAs than SMs: SMs 3..7 stay idle
  cfg.cta_threads = 32;
  gpusim::launch(
      dev, cfg, [](gpusim::Cta&) {},
      gpusim::SimOptions{.threads = 8, .per_sm_stats = &per_sm});
  ASSERT_EQ(per_sm.size(), 8u);
  for (int sm = 0; sm < 3; ++sm) {
    EXPECT_EQ(per_sm[static_cast<std::size_t>(sm)].ctas_launched, 1u);
  }
  for (int sm = 3; sm < 8; ++sm) {
    EXPECT_EQ(per_sm[static_cast<std::size_t>(sm)].ctas_launched, 0u);
    EXPECT_EQ(per_sm[static_cast<std::size_t>(sm)].total_instructions(), 0u);
  }
}

TEST(EngineThreadSweep, DeviceDefaultThreadsInherited) {
  // threads = 0 in the per-launch options defers to the device-wide
  // policy installed by Device::set_sim_options (what the bench
  // drivers' --threads flag sets).
  Rng rng(11);
  Cvs a = make_cvs(64, 96, 4, 0.5, rng);
  DenseMatrix<half_t> b(96, 64);
  b.fill_random_int(rng);

  const SweepRun serial = run_spmm(1, a, b);

  gpusim::Device dev(test_config());
  dev.set_sim_options(gpusim::SimOptions{.threads = 8});
  EXPECT_EQ(dev.sim_options().threads, 8);
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ch(a.rows, b.cols());
  auto dc = to_device(dev, ch);
  spmm_octet(dev, da, db, dc);  // no explicit SimOptions: inherit
  std::size_t i = 0;
  for (half_t h : dc.buf.host()) {
    ASSERT_EQ(h.bits(), serial.out_bits[i]) << "word " << i;
    ++i;
  }
}

TEST(EngineThreadSweep, WorkerExceptionsPropagate) {
  gpusim::Device dev(test_config());
  gpusim::LaunchConfig cfg;
  cfg.grid = 16;
  cfg.cta_threads = 32;
  auto body = [](gpusim::Cta& cta) {
    if (cta.cta_id() == 13) throw std::runtime_error("cta 13 failed");
  };
  EXPECT_THROW(
      gpusim::launch(dev, cfg, body, gpusim::SimOptions{.threads = 8}),
      std::runtime_error);
  // The engine must stay usable after a failed launch.
  gpusim::KernelStats stats = gpusim::launch(
      dev, cfg, [](gpusim::Cta&) {}, gpusim::SimOptions{.threads = 8});
  EXPECT_EQ(stats.ctas_launched, 16u);
}

struct LaunchFailure {
  ErrorCode code;
  std::string site;
  std::string what;
};

/// One 16-CTA launch on 8 SMs (CTA c runs on SM c % 8) in which CTA
/// `ecc_cta` reads a word with a double-bit upset under ECC and CTA
/// `watchdog_cta` overruns its op budget.  The lower of the two sleeps
/// first, so under threads > 1 the other one fails first in wall time.
LaunchFailure run_two_failures(int threads, int ecc_cta, int watchdog_cta) {
  gpusim::Device dev(test_config());
  auto buf = dev.alloc<std::int32_t>(32);
  gpusim::FaultPlan plan(/*seed=*/1, /*ecc_enabled=*/true);
  gpusim::FaultTarget t;
  t.site = gpusim::FaultSite::kDramRead;
  t.addr = buf.addr(0);
  t.n_bits = 2;
  plan.add_target(t);
  dev.set_fault_plan(&plan);
  gpusim::LaunchConfig cfg;
  cfg.grid = 16;
  cfg.cta_threads = 32;
  const int first = std::min(ecc_cta, watchdog_cta);
  try {
    gpusim::launch(
        dev, cfg,
        [&](gpusim::Cta& cta) {
          gpusim::Warp w = cta.warp(0);
          if (cta.cta_id() == first) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
          if (cta.cta_id() == ecc_cta) {
            gpusim::Lanes<std::int32_t> d{};
            w.ldg_span(buf.addr(0), 4, d, 0x1u);
          }
          if (cta.cta_id() == watchdog_cta) w.count(gpusim::Op::kImad, 1000);
        },
        gpusim::SimOptions{.threads = threads, .watchdog_cta_ops = 100});
  } catch (const Error& e) {
    return {e.code(), e.site(), e.what()};
  }
  ADD_FAILURE() << "launch did not fail at threads=" << threads;
  return {};
}

TEST(EngineThreadSweep, AbortedLaunchReportsLowestFailingCta) {
  // ECC on SM 3, watchdog on SM 5: the serial engine stops at CTA 3.
  const LaunchFailure ecc = run_two_failures(1, /*ecc_cta=*/3, 5);
  EXPECT_EQ(ecc.code, ErrorCode::kEccUncorrectable);
  // Watchdog on SM 2, ECC on SM 5: it stops at CTA 2.  The timeout
  // message appends per-SM progress, which differs once other SMs run
  // on, so only its first line is compared.
  const auto head = [](const std::string& s) { return s.substr(0, s.find('\n')); };
  const LaunchFailure timeout = run_two_failures(1, /*ecc_cta=*/5, 2);
  EXPECT_EQ(timeout.code, ErrorCode::kLaunchTimeout);
  for (int threads : {2, 8}) {
    const LaunchFailure e = run_two_failures(threads, 3, 5);
    EXPECT_EQ(e.code, ecc.code) << "threads=" << threads;
    EXPECT_EQ(e.site, ecc.site) << "threads=" << threads;
    EXPECT_EQ(e.what, ecc.what) << "threads=" << threads;
    const LaunchFailure w = run_two_failures(threads, 5, 2);
    EXPECT_EQ(w.code, timeout.code) << "threads=" << threads;
    EXPECT_EQ(w.site, timeout.site) << "threads=" << threads;
    EXPECT_EQ(head(w.what), head(timeout.what)) << "threads=" << threads;
  }
}

TEST(Scheduler, RoundRobinMatchesHistoricalAssignment) {
  gpusim::Scheduler sched(/*grid=*/19, /*num_sms=*/8);
  EXPECT_EQ(sched.num_active_sms(), 8);
  for (int cta = 0; cta < 19; ++cta) EXPECT_EQ(sched.sm_of(cta), cta % 8);
  // Walking one SM's list visits exactly the CTAs whose home it is,
  // in increasing order.
  for (int sm = 0; sm < 8; ++sm) {
    int prev = -1;
    for (int cta = sched.first_cta(sm); cta < 19; cta += sched.cta_stride()) {
      EXPECT_EQ(sched.sm_of(cta), sm);
      EXPECT_GT(cta, prev);
      prev = cta;
    }
  }
}

TEST(Scheduler, SmallGridActivatesOnlyGridSms) {
  gpusim::Scheduler sched(/*grid=*/3, /*num_sms=*/8);
  EXPECT_EQ(sched.num_active_sms(), 3);
  // Each active SM is claimed exactly once, then the cursor drains.
  std::vector<bool> claimed(3, false);
  for (int i = 0; i < 3; ++i) {
    const int sm = sched.next_sm();
    ASSERT_GE(sm, 0);
    ASSERT_LT(sm, 3);
    EXPECT_FALSE(claimed[static_cast<std::size_t>(sm)]);
    claimed[static_cast<std::size_t>(sm)] = true;
  }
  EXPECT_EQ(sched.next_sm(), -1);
  EXPECT_EQ(sched.next_sm(), -1);
}

TEST(ShardedCache, SerialStreamMatchesSectorCacheForAnySliceCount) {
  // The L2 slicing is counter-preserving: on a serial access stream
  // the hit/miss outcome sequence is bit-identical to the unsliced
  // model for every slice count, because the set mapping is unchanged
  // and LRU order only ever compares lines within one set.
  constexpr std::size_t kCapacity = 32 << 10;
  constexpr int kLine = 128, kSector = 32, kWays = 4;

  Rng rng(42);
  std::vector<std::uint64_t> stream(20000);
  for (auto& addr : stream) {
    // ~4x the cache capacity so the stream forces evictions.
    addr = static_cast<std::uint64_t>(rng.uniform_int(0, 4096)) * kSector;
  }

  gpusim::SectorCache ref(kCapacity, kLine, kSector, kWays);
  std::vector<bool> want;
  want.reserve(stream.size());
  for (std::uint64_t addr : stream) want.push_back(ref.access(addr));

  for (int slices : {1, 2, 7, 16}) {
    gpusim::ShardedCache l2(kCapacity, kLine, kSector, kWays, slices);
    EXPECT_EQ(l2.num_slices(), slices);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ASSERT_EQ(l2.access(stream[i]), want[i])
          << "access " << i << " with " << slices << " slices";
    }
  }
}

TEST(ShardedCache, InvalidateSectorMatchesSectorCache) {
  constexpr std::size_t kCapacity = 8 << 10;
  constexpr int kLine = 128, kSector = 32, kWays = 2;

  Rng rng(5);
  gpusim::SectorCache ref(kCapacity, kLine, kSector, kWays);
  gpusim::ShardedCache l2(kCapacity, kLine, kSector, kWays, 7);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t addr =
        static_cast<std::uint64_t>(rng.uniform_int(0, 512)) * kSector;
    if (rng.uniform_int(0, 4) == 0) {
      ref.invalidate_sector(addr);
      l2.invalidate_sector(addr);
    } else {
      ASSERT_EQ(l2.access(addr), ref.access(addr)) << "access " << i;
    }
  }
}

// ---------------------------------------------------------------------
// Span corpus golden pins (DESIGN.md §2h): both forms of the corpus —
// stated descriptors and one-lane segments — must reproduce the output
// bits and counters the per-lane ops produced, serially, across thread
// counts, and under fault injection.

void expect_pinned(const gpusim::SpanCorpusRun& run,
                   const gpusim::CorpusPin& pin, bool one_lane,
                   const char* what) {
  const char* form = one_lane ? "one-lane segments" : "span descriptors";
  const gpusim::CorpusPin got = gpusim::corpus_pin(run);
  EXPECT_EQ(got.dst_bits, pin.dst_bits) << what << ", " << form
                                        << ": output bits differ";
  EXPECT_EQ(got.total, pin.total)
      << what << ", " << form << ": merged counters differ\n"
      << run.total.to_string();
  EXPECT_EQ(got.per_sm, pin.per_sm)
      << what << ", " << form << ": per-SM counters differ";
}

TEST(SpanCorpus, BitAndCounterIdenticalToPerLaneSerial) {
  for (bool one_lane : {false, true}) {
    gpusim::Device dev(test_config());
    expect_pinned(run_span_corpus(dev, one_lane, {.threads = 1}),
                  gpusim::kCorpusPinPlain, one_lane, "serial");
  }
}

TEST(SpanCorpus, ThreadInvariantAndEqualToPerLaneAtEveryThreadCount) {
  for (int threads : {2, 8}) {
    for (bool one_lane : {false, true}) {
      gpusim::Device dev(test_config());
      expect_pinned(run_span_corpus(dev, one_lane, {.threads = threads}),
                    gpusim::kCorpusPinPlain, one_lane,
                    threads == 2 ? "threads=2" : "threads=8");
    }
  }
}

TEST(SpanCorpus, EquivalentUnderFaultInjection) {
  // A sticky DRAM-read upset inside the affine pattern's footprint: the
  // span ops run their fault hooks lane by lane, and results and
  // counters must match the pinned per-lane run under the same plan.
  for (bool one_lane : {false, true}) {
    gpusim::Device probe(test_config());
    const auto probed = run_span_corpus(probe, one_lane, {.threads = 1});
    gpusim::Device dev(test_config());
    gpusim::FaultPlan plan(7);
    gpusim::FaultTarget t;
    t.site = gpusim::FaultSite::kDramRead;
    t.addr = probed.src_addr + 2 * 40;  // half #40: inside the prefix
    t.bit = 3;
    t.sticky = true;
    plan.add_target(t);
    dev.set_fault_plan(&plan);
    const auto faulted = run_span_corpus(dev, one_lane, {.threads = 1});
    expect_pinned(faulted, gpusim::kCorpusPinFaulted, one_lane, "faulted");
    // The upset must actually have landed (the corpus reads half #40).
    EXPECT_NE(gpusim::corpus_pin(faulted).dst_bits,
              gpusim::kCorpusPinPlain.dst_bits);
  }
}

}  // namespace
}  // namespace vsparse::kernels

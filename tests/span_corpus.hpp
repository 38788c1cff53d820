// Shared span access corpus: one kernel body issuing uniform, affine
// and segmented warp accesses either as stated span descriptors or
// expanded into per-lane address arrays issued as one-lane segments,
// plus golden pins of its output bits and counters.  The pins were
// recorded from the per-lane expansion run on the separate per-lane
// ops before those were folded into the span ops (DESIGN.md §2h), so
// either form drifting from those semantics — on plain runs, under
// fault injection, or under the sanitizer — fails them.  Used by
// engine_threads_test.cpp and sanitizer_test.cpp.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "vsparse/fp16/vec.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/gpusim/engine/lanes.hpp"
#include "vsparse/gpusim/engine/launch.hpp"
#include "vsparse/gpusim/engine/launch_config.hpp"
#include "vsparse/gpusim/engine/sim_options.hpp"

namespace vsparse::gpusim {

/// Result of one corpus launch: the functional output plus counters.
struct SpanCorpusRun {
  std::vector<std::uint16_t> dst_bits;
  KernelStats total;
  std::vector<KernelStats> per_sm;
  std::uint64_t src_addr = 0;  ///< device address of src[0] (fault targets)
};

/// Launch the corpus on `dev`.  Every CTA works a private 1024-half
/// region and exercises: a uniform (stride-0) global broadcast, an
/// affine vector load under a prefix mask, a four-segment gather, an
/// affine smem round-trip plus a stride-0 smem broadcast, an affine
/// writeback, and a two-segment store with per-segment prefix masks.
/// With `one_lane` the same addresses are expanded into per-lane arrays
/// and issued as 32 one-lane segments — the divergent form.
inline SpanCorpusRun run_span_corpus(Device& dev, bool one_lane,
                                     const SimOptions& sim_in) {
  SpanCorpusRun run;
  SimOptions sim = sim_in;
  sim.per_sm_stats = &run.per_sm;

  constexpr int kCtas = 4;
  constexpr std::size_t kRegion = 1024;  // halves per CTA
  std::vector<half_t> init(kCtas * kRegion);
  for (std::size_t i = 0; i < init.size(); ++i) {
    init[i] = half_t::from_bits(static_cast<std::uint16_t>(0x3C00u + i * 7));
  }
  auto src = dev.alloc_copy<half_t>(init, "corpus_src");
  auto dst = dev.alloc<half_t>(init.size(), "corpus_dst");
  run.src_addr = src.addr();

  LaunchConfig cfg;
  cfg.grid = kCtas;
  cfg.cta_threads = 32;
  cfg.smem_bytes = 1024;
  cfg.profile.name = one_lane ? "lane_corpus" : "span_corpus";

  run.total = launch(dev, cfg, [&](Cta& cta) {
    const std::size_t base =
        static_cast<std::size_t>(cta.cta_id()) * kRegion;
    Warp w = cta.warp(0);

    // -- uniform: every lane reads the same half (stride 0) ------------
    Lanes<half_t> u{};
    if (!one_lane) {
      w.ldg_span(src.addr(base), 0, u);
    } else {
      AddrLanes addr{};
      for (int l = 0; l < 32; ++l) addr[static_cast<std::size_t>(l)] =
          src.addr(base);
      w.ldg_span(addr.data(), 32, 1, 0, u);
    }

    // -- affine half2 load, 20-lane prefix mask ------------------------
    const std::uint32_t pmask = (1u << 20) - 1u;
    Lanes<half2> av{};
    if (!one_lane) {
      w.ldg_span(src.addr(base + 32), 4, av, pmask);
    } else {
      AddrLanes addr{};
      for (int l = 0; l < 20; ++l) {
        addr[static_cast<std::size_t>(l)] =
            src.addr(base + 32 + 2 * static_cast<std::size_t>(l));
      }
      w.ldg_span(addr.data(), 32, 1, 0, av, pmask);
    }

    // -- segmented gather: 4 segments x 8 lanes, 16 B stride,
    //    irregularly spaced (16 B aligned) bases ----------------------
    std::uint64_t gbase[4];
    for (int seg = 0; seg < 4; ++seg) {
      gbase[seg] = src.addr(base + 128 + 168 * static_cast<std::size_t>(seg));
    }
    Lanes<half8> sv{};
    if (!one_lane) {
      w.ldg_span(gbase, 4, 8, 16, sv);
    } else {
      AddrLanes addr{};
      for (int l = 0; l < 32; ++l) {
        addr[static_cast<std::size_t>(l)] =
            gbase[l / 8] + 16u * static_cast<std::uint32_t>(l % 8);
      }
      w.ldg_span(addr.data(), 32, 1, 0, sv);
    }

    // -- smem round-trip: affine sts/lds + stride-0 broadcast ----------
    if (!one_lane) {
      w.sts_span(0, 16, sv);
    } else {
      Lanes<std::uint32_t> off{};
      for (int l = 0; l < 32; ++l) off[static_cast<std::size_t>(l)] =
          16u * static_cast<std::uint32_t>(l);
      w.sts_span(off.data(), 32, 1, 0, sv);
    }
    cta.sync();
    Lanes<half8> rv{};
    Lanes<half8> bv{};
    if (!one_lane) {
      w.lds_span(0, 16, rv);
      w.lds_span(64, 0, bv);  // uniform smem broadcast
    } else {
      Lanes<std::uint32_t> off{};
      for (int l = 0; l < 32; ++l) off[static_cast<std::size_t>(l)] =
          16u * static_cast<std::uint32_t>(l);
      w.lds_span(off.data(), 32, 1, 0, rv);
      Lanes<std::uint32_t> uoff{};
      for (int l = 0; l < 32; ++l) uoff[static_cast<std::size_t>(l)] = 64u;
      w.lds_span(uoff.data(), 32, 1, 0, bv);
    }

    // -- combine (pure per-lane bit math, identical in both forms) -----
    Lanes<half8> outv{};
    for (int l = 0; l < 32; ++l) {
      for (int e = 0; e < 8; ++e) {
        const std::uint16_t bits =
            static_cast<std::uint16_t>(rv[static_cast<std::size_t>(l)][e].bits() ^
                                       bv[static_cast<std::size_t>(l)][e].bits() ^
                                       u[static_cast<std::size_t>(l)].bits());
        outv[static_cast<std::size_t>(l)][e] = half_t::from_bits(bits);
      }
    }

    // -- affine writeback ----------------------------------------------
    if (!one_lane) {
      w.stg_span(dst.addr(base), 16, outv);
    } else {
      AddrLanes addr{};
      for (int l = 0; l < 32; ++l) {
        addr[static_cast<std::size_t>(l)] =
            dst.addr(base + 8 * static_cast<std::size_t>(l));
      }
      w.stg_span(addr.data(), 32, 1, 0, outv);
    }

    // -- segmented store: 2 segments x 16 lanes, 14-lane prefixes ------
    const std::uint32_t smask = 0x3FFFu | (0x3FFFu << 16);
    std::uint64_t sbase[2] = {dst.addr(base + 512), dst.addr(base + 600)};
    if (!one_lane) {
      w.stg_span(sbase, 2, 16, 4, av, smask);
    } else {
      AddrLanes addr{};
      for (int l = 0; l < 32; ++l) {
        if (!(smask & (1u << l))) continue;
        addr[static_cast<std::size_t>(l)] =
            sbase[l / 16] + 4u * static_cast<std::uint32_t>(l % 16);
      }
      w.stg_span(addr.data(), 32, 1, 0, av, smask);
    }
  }, sim);

  for (half_t h : dst.host()) run.dst_bits.push_back(h.bits());
  return run;
}

/// FNV-1a over raw bytes: the fingerprint the golden pins compare.
inline std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

// KernelStats is all uint64_t counters, so its bytes are its value.
static_assert(std::has_unique_object_representations_v<KernelStats>);

/// Fingerprint of one corpus run: output bits, merged counters, and the
/// per-SM counter blocks in SM order.
struct CorpusPin {
  std::uint64_t dst_bits;
  std::uint64_t total;
  std::uint64_t per_sm;
  bool operator==(const CorpusPin&) const = default;
};

inline CorpusPin corpus_pin(const SpanCorpusRun& run) {
  return {fnv1a(run.dst_bits.data(), run.dst_bits.size() * sizeof(std::uint16_t)),
          fnv1a(&run.total, sizeof(KernelStats)),
          fnv1a(run.per_sm.data(), run.per_sm.size() * sizeof(KernelStats))};
}

/// Golden pins, recorded from the per-lane expansion of the corpus.
/// 8-SM device (any thread count), fault-free:
inline constexpr CorpusPin kCorpusPinPlain{
    0x89661dcfa7fcb4b5ull, 0xd56072c2da71c1a2ull, 0x9049f7c38dbc3b45ull};
/// 8-SM device, threads=1, sticky DRAM-read upset (bit 3) on byte 80 of
/// corpus_src — half #40, inside CTA 0's affine prefix:
inline constexpr CorpusPin kCorpusPinFaulted{
    0x99f76e2e0329310dull, 0xfc081bfe97dbac03ull, 0xa9089b90a62a3618ull};
/// 4-SM device, threads=1, with or without the full sanitizer:
inline constexpr CorpusPin kCorpusPinSanitized{
    0x89661dcfa7fcb4b5ull, 0xd56072c2da71c1a2ull, 0xd26ac0d0a76e3ec5ull};

}  // namespace vsparse::gpusim

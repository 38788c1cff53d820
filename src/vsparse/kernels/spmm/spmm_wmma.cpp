#include "vsparse/kernels/spmm/spmm_wmma.hpp"

#include <string>

#include "vsparse/common/math.hpp"
#include "vsparse/fp16/vec.hpp"
#include "vsparse/gpusim/tensorcore.hpp"

namespace vsparse::kernels {

namespace {

using gpusim::Cta;
using gpusim::Lanes;
using gpusim::Op;
using gpusim::Warp;

constexpr int kTileN = 64;
constexpr int kTileK = 16;  // WMMA k — residue pads to 16 (§5.2)

}  // namespace

KernelRun spmm_wmma_warp(gpusim::Device& dev, const CvsDevice& a,
                         const DenseDevice<half_t>& b,
                         DenseDevice<half_t>& c,
                         const gpusim::SimOptions& sim) {
  const int m = a.rows, k = a.cols, n = b.cols;
  const int v = a.v;
  VSPARSE_CHECK(b.rows == k && c.rows == m && c.cols == n);
  VSPARSE_CHECK(b.layout == Layout::kRowMajor &&
                c.layout == Layout::kRowMajor);
  VSPARSE_CHECK(v == 2 || v == 4 || v == 8);
  VSPARSE_CHECK_MSG(n % kTileN == 0, "spmm_wmma requires N % 64 == 0");

  const int vec_rows = a.vec_rows();
  const int n_tiles = n / kTileN;

  gpusim::LaunchConfig cfg;
  cfg.grid = vec_rows * n_tiles;
  cfg.cta_threads = 32;
  cfg.smem_bytes = 0;  // everything lives in registers (classic layout)
  cfg.profile = {
      .name = "spmm_wmma_v" + std::to_string(v),
      .regs_per_thread = 40 + 2 * v,
      .static_instrs = 460 + 8 * v,
      .icache_pressure = 1.0,
      .ilp_factor = 0.9,
  };

  auto row_ptr = a.row_ptr.host();
  auto col_host = a.col_idx.host();
  auto val_host = a.values.host();

  gpusim::KernelStats stats = gpusim::launch(dev, cfg, [&](Cta& cta) {
    const int vr = cta.cta_id() % vec_rows;  // rows fastest (B-slice reuse)
    const int n0 = (cta.cta_id() / vec_rows) * kTileN;
    Warp w = cta.warp(0);

    {
      Lanes<std::int32_t> d{};
      w.ldg_span(a.row_ptr.addr(static_cast<std::size_t>(vr)), 4, d, 0x3u);
      w.count(Op::kImad, 3);
    }
    const std::int32_t begin = row_ptr[static_cast<std::size_t>(vr)];
    const std::int32_t end = row_ptr[static_cast<std::size_t>(vr) + 1];

    float acc[8][kTileN] = {};

    // TileK must be a multiple of 16: the last chunk is ZERO-PADDED and
    // the wmma still executes (the §5.2 residue overhead).
    for (std::int32_t i0 = begin; i0 < end; i0 += kTileK) {
      const int cnt = std::min<std::int32_t>(kTileK, end - i0);

      // ---- load 16 column indices (LDG.32, <=16 lanes) ---------------
      {
        Lanes<std::int32_t> d{};
        w.ldg_span(a.col_idx.addr(static_cast<std::size_t>(i0)), 4, d,
                   (1u << cnt) - 1u);
        w.count(Op::kImad, 2);
      }

      // ---- load the V x 16 sparse-value fragment to registers --------
      // Contiguous in CVS storage: ceil(cnt*v/8) lanes of LDG.128-class
      // loads; small, so a single request.
      {
        Lanes<half8> d{};
        // Align the vector loads down to a 16 B boundary (the hardware
        // requirement LDG.128 imposes on the real kernel too).
        const std::int64_t vbase =
            round_down<std::int64_t>(static_cast<std::int64_t>(i0) * v, 8);
        const int lanes_needed = static_cast<int>(ceil_div<std::int64_t>(
            static_cast<std::int64_t>(i0 + cnt) * v - vbase, 8));
        const std::uint32_t mask =
            lanes_needed >= 32 ? gpusim::kFullMask : (1u << lanes_needed) - 1u;
        w.ldg_span(a.values.addr(static_cast<std::size_t>(vbase)), 16, d,
                   mask);
      }

      // Assemble the logical LHS tile (8 x 16, zero-padded rows/k).
      half_t afrag[8][16] = {};
      for (int j = 0; j < cnt; ++j) {
        for (int t = 0; t < v; ++t) {
          afrag[t][j] =
              val_host[(static_cast<std::size_t>(i0 + j)) *
                           static_cast<std::size_t>(v) +
                       static_cast<std::size_t>(t)];
        }
      }

      // ---- load the 16 x 64 B fragment with the CLASSIC layout -------
      // Fig. 10: each lane holds 4 consecutive halves of one B row
      // (LDG.64), 8 lanes per row => 64 B coalesced at best: four 8-lane
      // segments, one per gathered fragment row.
      half_t bfrag[16][kTileN] = {};
      for (int pass = 0; pass < 8; ++pass) {
        std::uint64_t gbase[4] = {};
        std::uint32_t mask = 0;
        for (int seg = 0; seg < 4; ++seg) {
          const int j = 4 * (pass % 4) + seg;  // fragment row
          if (j >= cnt) continue;
          const std::int32_t col = col_host[static_cast<std::size_t>(i0 + j)];
          gbase[seg] = b.addr(col, n0 + 32 * (pass / 4));
          mask |= 0xFFu << (8 * seg);
        }
        Lanes<half4> d{};
        w.count(Op::kImad, 1);
        w.ldg_span(gbase, 4, 8, 8, d, mask);
        for (int lane = 0; lane < 32; ++lane) {
          if (!(mask & (1u << lane))) continue;
          const int j = 4 * (pass % 4) + lane / 8;
          const int nn = 32 * (pass / 4) + 4 * (lane % 8);
          for (int e = 0; e < 4; ++e) {
            bfrag[j][nn + e] = d[static_cast<std::size_t>(lane)][e];
          }
        }
      }

      // ---- two wmma.m8n32k16 cover the V x 64 tile (V < 8 wasted) ----
      for (int ct = 0; ct < 2; ++ct) {
        half_t bsub[16][32];
        for (int j = 0; j < 16; ++j) {
          for (int nn = 0; nn < 32; ++nn) bsub[j][nn] = bfrag[j][32 * ct + nn];
        }
        float csub[8][32];
        for (int r = 0; r < 8; ++r) {
          for (int nn = 0; nn < 32; ++nn) csub[r][nn] = acc[r][32 * ct + nn];
        }
        w.wmma_m8n32k16(afrag, bsub, csub);
        for (int r = 0; r < 8; ++r) {
          for (int nn = 0; nn < 32; ++nn) acc[r][32 * ct + nn] = csub[r][nn];
        }
      }
    }

    // ---- writeback ----------------------------------------------------
    w.count(Op::kCvt, static_cast<std::uint64_t>(v * kTileN / 32));
    // Each 8-lane segment writes one 64-half output row at 16 B/lane.
    for (int g = 0; g < ceil_div(v * kTileN, 32 * 8); ++g) {
      std::uint64_t gbase[4] = {};
      Lanes<half8> frag{};
      std::uint32_t mask = 0;
      for (int seg = 0; seg < 4; ++seg) {
        const int t = 4 * g + seg;
        if (t >= v) continue;
        gbase[seg] = c.addr(vr * v + t, n0);
        for (int l = 0; l < 8; ++l) {
          for (int e = 0; e < 8; ++e) {
            frag[static_cast<std::size_t>(8 * seg + l)][e] =
                half_t(acc[t][8 * l + e]);
          }
        }
        mask |= 0xFFu << (8 * seg);
      }
      w.stg_span(gbase, 4, 8, 16, frag, mask);
    }
    (void)row_ptr;
  }, sim);

  return {stats, cfg};
}

}  // namespace vsparse::kernels

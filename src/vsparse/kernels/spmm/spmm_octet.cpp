#include "vsparse/kernels/spmm/spmm_octet.hpp"

#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "vsparse/common/math.hpp"
#include "vsparse/fp16/vec.hpp"

namespace vsparse::kernels {

namespace {

using gpusim::Cta;
using gpusim::Lanes;
using gpusim::Op;
using gpusim::Warp;

constexpr int kTileN = 64;

/// One staged B fragment: 4 B rows x 64 columns, loaded by a single
/// LDG.128 (lane l holds B[k_{l/8}][n0 + 8*(l%8) .. +8)).
struct BFrag {
  Lanes<half8> lanes;
  int valid = 0;  ///< how many of the 4 rows are real (residue handling)
};

}  // namespace

KernelRun spmm_octet(gpusim::Device& dev, const CvsDevice& a,
                     const DenseDevice<half_t>& b, DenseDevice<half_t>& c,
                     const SpmmOctetParams& params,
                     const gpusim::SimOptions& sim) {
  const int m = a.rows, k = a.cols, n = b.cols;
  const int v = a.v;
  VSPARSE_CHECK(b.rows == k && c.rows == m && c.cols == n);
  VSPARSE_CHECK(b.layout == Layout::kRowMajor);
  VSPARSE_CHECK(c.layout == Layout::kRowMajor);
  VSPARSE_CHECK_MSG(v == 2 || v == 4 || v == 8,
                    "spmm_octet supports V in {2,4,8}; got " << v);
  VSPARSE_CHECK_MSG(n % kTileN == 0, "spmm_octet requires N % 64 == 0");
  VSPARSE_CHECK(params.tile_k >= 4 && params.tile_k % 4 == 0 &&
                params.tile_k <= 32);

  const int tile_k = params.tile_k;
  const int vec_rows = a.vec_rows();
  const int n_tiles = n / kTileN;

  gpusim::LaunchConfig cfg;
  cfg.grid = vec_rows * n_tiles;
  cfg.cta_threads = 32;
  // smem: staged indices (tile_k ints) + values (tile_k * v halves).
  cfg.smem_bytes =
      static_cast<std::size_t>(tile_k) * (4 + static_cast<std::size_t>(v) * 2);
  // Profile calibrated to the paper's SASS statistics (§7.2.2): 384 /
  // 416 SASS lines for V = 4 / 8 at TileK = 32; registers hold the V*64
  // fp32 accumulator split across 32 lanes (2V each) plus operands.
  cfg.profile = {
      .name = "spmm_octet_v" + std::to_string(v),
      .regs_per_thread = 26 + 2 * v + tile_k / 4,
      .static_instrs = 352 + 8 * v + 2 * (tile_k - 32),
      .icache_pressure = 1.0,
      .ilp_factor = params.batch_loads ? 0.5 : 1.0,
      // Without the §5.4 batching, the compiler's register reuse
      // serializes the B-fragment loads behind the MMAs: fewer loads in
      // flight -> a fraction of peak memory bandwidth.
      .mlp_factor = params.batch_loads ? 1.0 : 0.65,
  };

  auto row_ptr = a.row_ptr.host();

  gpusim::KernelStats stats = gpusim::launch(dev, cfg, [&](Cta& cta) {
    // Rows enumerate fastest: consecutive CTAs on an SM share the same
    // 64-wide B slice, which then lives in that SM's L1 (K x 64 x 2 B
    // = at most 128 KiB) — the reuse structure §4 counts on.
    const int vr = cta.cta_id() % vec_rows;
    const int n0 = (cta.cta_id() / vec_rows) * kTileN;
    Warp w = cta.warp(0);

    // Row extent: two scalar loads of csrRowPtr (one LDG.32, affine).
    {
      Lanes<std::int32_t> dst{};
      w.ldg_span(a.row_ptr.addr(static_cast<std::size_t>(vr)), 4, dst, 0x3u);
      w.count(Op::kImad, 3);  // vr/n0 decomposition + pointer math
    }
    const std::int32_t begin = row_ptr[static_cast<std::size_t>(vr)];
    const std::int32_t end = row_ptr[static_cast<std::size_t>(vr) + 1];

    // fp32 accumulator for the V x 64 output tile (2V registers/lane);
    // zero only the v rows in use.
    float acc[8][kTileN];
    std::memset(acc, 0, static_cast<std::size_t>(v) * kTileN * sizeof(float));

    BFrag frags[8];  // tile_k <= 32 => at most 8 steps

    for (std::int32_t i0 = begin; i0 < end; i0 += tile_k) {
      const int cnt = std::min<std::int32_t>(tile_k, end - i0);

      // ---- stage the LHS fragment (indices + values) into smem ------
      // Both staging reads are pure affine spans: `cnt` consecutive
      // vectors of the CVS stream, one lane each.
      const int nstage = std::min(cnt, 32);
      const std::uint32_t stage_mask =
          nstage >= 32 ? 0xFFFFFFFFu : (1u << nstage) - 1u;
      {
        // Indices: one lane per staged vector, LDG.32 coalesced.
        Lanes<std::int32_t> idx{};
        w.ldg_span(a.col_idx.addr(static_cast<std::size_t>(i0)), 4, idx,
                   stage_mask);
        w.sts_span(0, 4, idx, stage_mask);
        w.count(Op::kImad, 2);
      }
      {
        // Values: one V-wide vector per lane; the CVS layout keeps the
        // whole stride contiguous, so this is 128 B coalesced.
        const std::uint64_t vbase = a.values.addr(
            static_cast<std::size_t>(i0) * static_cast<std::size_t>(v));
        const std::uint32_t vstride = static_cast<std::uint32_t>(v) * 2;
        const std::uint32_t voff = static_cast<std::uint32_t>(tile_k * 4);
        switch (v) {
          case 2: {
            Lanes<half2> val;
            w.ldg_span(vbase, vstride, val, stage_mask);
            w.sts_span(voff, vstride, val, stage_mask);
            break;
          }
          case 4: {
            Lanes<half4> val;
            w.ldg_span(vbase, vstride, val, stage_mask);
            w.sts_span(voff, vstride, val, stage_mask);
            break;
          }
          default: {
            Lanes<half8> val;
            w.ldg_span(vbase, vstride, val, stage_mask);
            w.sts_span(voff, vstride, val, stage_mask);
            break;
          }
        }
        w.count(Op::kImad, 2);
      }

      const int steps = ceil_div(cnt, 4);
      const bool full_stride = cnt == tile_k;
      const bool batch = params.batch_loads && full_stride;

      // Reads back the staged column indices (broadcast LDS).
      const auto staged_col = [&](int j) -> std::int32_t {
        return *reinterpret_cast<const std::int32_t*>(cta.smem() + j * 4);
      };
      const auto staged_val = [&](int j, int t) -> float {
        return static_cast<float>(*reinterpret_cast<const half_t*>(
            cta.smem() + tile_k * 4 + (j * v + t) * 2));
      };

      // ---- per 4-vector step: load the 64x4 B fragment ---------------
      // Four 8-lane segments, one per staged B row, each striding
      // through 64 half columns (8 halves per lane).
      const auto load_bfrag = [&](int s, BFrag& f) {
        f.valid = std::min(4, cnt - 4 * s);
        std::uint64_t gbase[4] = {};
        for (int j = 0; j < f.valid; ++j) {
          gbase[j] = b.addr(staged_col(4 * s + j), n0);
        }
        const std::uint32_t mask =
            f.valid >= 4 ? 0xFFFFFFFFu : (1u << (8 * f.valid)) - 1u;
        w.count(Op::kImad, 1);
        w.ldg_span(gbase, 4, 8, 16, f.lanes, mask);
      };

      // ---- the octet-tiling MMA: (64x4)·(4xV) -------------------------
      const auto issue_mma = [&](int s, const BFrag& f) {
        // LDS of the staged A values for this step (4 vectors x V
        // halves, held once per octet).
        {
          // The step's values span 8*v bytes of smem; lanes broadcast
          // over it in half2 units, predicated to the vectors actually
          // staged (a residue step stages fewer than 4, and the slots
          // beyond f.valid were never written).
          // Lanes broadcast over the step's 8V bytes in half2 units:
          // 32/(2V) repeated segments of width 2V, stride 4.  Active
          // lanes are a per-segment prefix when a residue step staged
          // fewer than 4 vectors.
          const int swidth = 2 * v;
          const int nseg = 32 / swidth;
          std::uint32_t soff[16];
          const std::uint32_t sbase =
              static_cast<std::uint32_t>(tile_k * 4 + 4 * s * v * 2);
          for (int seg = 0; seg < nseg; ++seg) soff[seg] = sbase;
          std::uint32_t lmask;
          if (f.valid >= 4) {
            lmask = 0xFFFFFFFFu;
          } else {
            const int nt = std::min(swidth, f.valid * v / 2);
            const std::uint32_t seg_bits = (1u << nt) - 1u;
            lmask = 0;
            for (int seg = 0; seg < nseg; ++seg) {
              lmask |= seg_bits << (seg * swidth);
            }
          }
          Lanes<half2> d;
          w.lds_span(soff, nseg, swidth, 4, d, lmask);
        }
        // Two mma.m8n8k4 (8 HMMA) cover the 64 output rows; with the
        // future-work SASS edit, STEP 2&3 vanish for V <= 4.
        const unsigned steps_mask =
            (params.skip_steps_for_small_v && v <= 4) ? 0x3u : 0xFu;
        w.count(Op::kHmma,
                2 * static_cast<std::uint64_t>(std::popcount(steps_mask)));
        // Functional math: acc[t][nn] += A[k_j][t] * B[k_j][nn].  Each
        // accumulator element receives exactly one += of the same
        // product as the naive loop; widening the B lane once (exact)
        // and running e innermost only reorders independent updates.
        for (int j = 0; j < f.valid; ++j) {
          float avals[8];
          for (int t = 0; t < v; ++t) avals[t] = staged_val(4 * s + j, t);
          for (int lz = 0; lz < 8; ++lz) {
            const int lane = 8 * j + lz;
            const int nn0 = 8 * lz;
            float bf[8];
            half_to_float_n(f.lanes[static_cast<std::size_t>(lane)].v.data(),
                            bf, 8);
            for (int t = 0; t < v; ++t) {
              const float at = avals[t];
              for (int e = 0; e < 8; ++e) {
                acc[t][nn0 + e] += at * bf[e];
              }
            }
          }
        }
      };

      if (batch) {
        // §5.4: all loads first, a fence, then all MMAs — prevents the
        // compiler from serializing loads behind MMAs on shared regs.
        for (int s = 0; s < steps; ++s) load_bfrag(s, frags[static_cast<std::size_t>(s)]);
        w.fence();
        for (int s = 0; s < steps; ++s) issue_mma(s, frags[static_cast<std::size_t>(s)]);
      } else {
        // Residue stride: interleave load and compute per 4 vectors.
        for (int s = 0; s < steps; ++s) {
          load_bfrag(s, frags[0]);
          issue_mma(s, frags[0]);
        }
      }
    }

    // ---- writeback: shuffle-reorganize, convert, vector stores -------
    w.count(Op::kShfl, static_cast<std::uint64_t>(2 * v));
    w.count(Op::kCvt, static_cast<std::uint64_t>(v * kTileN / 32));
    const int row_groups = ceil_div(v * kTileN, 32 * 8);  // rows per STG.128
    for (int g = 0; g < row_groups; ++g) {
      // Each 8-lane group covers one full 64-wide output row: a
      // 4-segment span, stride 16 B, prefix-active in the rows left.
      std::uint64_t gbase[4] = {};
      Lanes<half8> frag{};
      std::uint32_t mask = 0;
      for (int seg = 0; seg < 4; ++seg) {
        const int t = g * 4 + seg;
        if (t >= v) continue;
        gbase[seg] = c.addr(vr * v + t, n0);
        mask |= 0xFFu << (8 * seg);
        for (int lz = 0; lz < 8; ++lz) {
          const int lane = 8 * seg + lz;
          const int nn = 8 * lz;
          for (int e = 0; e < 8; ++e) {
            frag[static_cast<std::size_t>(lane)][e] = half_t(acc[t][nn + e]);
          }
        }
      }
      w.stg_span(gbase, 4, 8, 16, frag, mask);
    }
  }, sim);

  return {stats, cfg};
}

}  // namespace vsparse::kernels

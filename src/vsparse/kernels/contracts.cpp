// Static launch contracts for every registered kernel (+ the dense
// GEMM and softmax entry points the fig05 suites run).
//
// Each contract replays the span descriptors its kernel issues — read
// side by side with the kernel source — at the extremes that bound the
// address behaviour:
//
//   * CTA coordinates at their first and last grid values,
//   * staging loops at their first and last trip,
//   * per-row nonzero counts at {0, max, max-1} (the odd tail is what
//     exercises the pair-rounded index loads),
//   * the worst tail placement begin = nnz - cnt (a row's extent
//     ending exactly at the allocation's last element),
//   * data-dependent gather columns as whole-range intervals.
//
// Every address expression is monotone in each of these, so the
// extremes bound all intermediate shapes/iterations (the corner
// argument of shape_class.hpp, applied once more to the loop space).
#include "vsparse/kernels/contracts.hpp"

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "vsparse/common/math.hpp"
#include "vsparse/gpusim/config.hpp"
#include "vsparse/gpusim/verify/machine.hpp"
#include "vsparse/gpusim/verify/shape_class.hpp"

namespace vsparse::kernels::contracts {

namespace {

using verify::CtaModel;
using verify::Ival;
using verify::prefix_mask;
using verify::ShapeCorner;
using verify::SpanPattern;

/// Repeat an `nt`-lane prefix over `segs` segments of `width` lanes.
std::uint32_t rep_prefix(int segs, int width, int nt) {
  std::uint32_t mask = 0;
  for (int s = 0; s < segs; ++s) {
    mask |= prefix_mask(nt) << (s * width);
  }
  return mask;
}

/// Distinct per-row nonzero-vector counts worth probing: empty, the
/// row-capacity maximum, and the odd value just under it (pair-rounded
/// index loads behave differently on odd tails).
std::vector<std::int64_t> cnt_probes(std::int64_t cnt_max) {
  std::vector<std::int64_t> out{0};
  if (cnt_max > 0) out.push_back(cnt_max);
  if (cnt_max > 1) out.push_back(cnt_max - 1);
  return out;
}

/// The CVS operand of an SpMM (cols = K) or the mask of an SDDMM
/// (cols = N), with the PR 5 tail-slack contracts of formats/cvs.cpp:
/// +1 element on col_idx (pair-rounded LDG.64), +7 halves on values
/// (16 B-aligned LDG.128).
struct CvsBufs {
  int row_ptr = -1, col_idx = -1, values = -1;
  std::int64_t vec_rows = 0;
  std::int64_t nnzv = 0;     ///< stored vectors (worst case: every slot)
  std::int64_t cnt_max = 0;  ///< per-vector-row maximum
};

CvsBufs declare_cvs(CtaModel& m, int rows, int cols, int v,
                    const char* prefix) {
  CvsBufs b;
  b.vec_rows = rows / v;
  b.nnzv = b.vec_rows * cols;
  b.cnt_max = cols;
  b.row_ptr = m.gbuf(std::string(prefix) + ".row_ptr", (b.vec_rows + 1) * 4);
  b.col_idx =
      m.gbuf(std::string(prefix) + ".col_idx", b.nnzv * 4, /*slack=*/4);
  b.values =
      m.gbuf(std::string(prefix) + ".values", b.nnzv * v * 2, /*slack=*/14);
  return b;
}

/// Dense half operand with the to_device tail slack (15 halves; covers
/// the TCU kernels' 8/16-half K-rounding on the last row/column).
int declare_dense(CtaModel& m, const char* name, std::int64_t rows,
                  std::int64_t cols) {
  return m.gbuf(name, rows * cols * 2, /*slack=*/30);
}

}  // namespace

// ---- SpMM ----------------------------------------------------------

void spmm_octet(CtaModel& m, const ShapeCorner& s,
                const gpusim::DeviceConfig& hw) {
  (void)hw;
  if (!m.require(s.v == 2 || s.v == 4 || s.v == 8, "spmm_octet.v",
                 "requires V in {2,4,8}")) {
    return;
  }
  if (!m.require(s.n % 64 == 0 && s.m % s.v == 0, "spmm_octet.shape",
                 "requires N % 64 == 0 and M % V == 0")) {
    return;
  }
  const int tile_k = 32;  // SpmmOctetParams default
  m.launch(1, tile_k * (4 + s.v * 2));
  const CvsBufs a = declare_cvs(m, s.m, s.k, s.v, "a");
  const int b = declare_dense(m, "b", s.k, s.n);
  const int c = declare_dense(m, "c", s.m, s.n);

  for (std::int64_t vr : {std::int64_t{0}, a.vec_rows - 1}) {
    for (std::int64_t n0 : {std::int64_t{0}, std::int64_t{s.n - 64}}) {
      for (std::int64_t cnt : cnt_probes(a.cnt_max)) {
        const std::int64_t begin = a.nnzv - cnt;  // worst tail placement
        m.ldg1(a.row_ptr, Ival(vr * 4), 4, 4, 0x3u, "spmm_octet.row_ptr");
        const std::int64_t last_i0 =
            cnt > 0 ? ((cnt - 1) / tile_k) * tile_k : 0;
        for (std::int64_t i0 : {std::int64_t{0}, last_i0}) {
          const int nstage =
              static_cast<int>(std::min<std::int64_t>(cnt - i0, tile_k));
          if (nstage <= 0) continue;
          // Stage indices + values for this stride.
          m.ldg1(a.col_idx, Ival((begin + i0) * 4), 4, 4,
                 prefix_mask(nstage), "spmm_octet.stage_idx");
          m.sts(0, {0}, 32, 4, 4, prefix_mask(nstage),
                "spmm_octet.stage_idx.sts");
          m.ldg1(a.values, Ival((begin + i0) * s.v * 2), s.v * 2, s.v * 2,
                 prefix_mask(nstage), "spmm_octet.stage_val");
          m.sts(0, {tile_k * 4}, 32, s.v * 2, s.v * 2, prefix_mask(nstage),
                "spmm_octet.stage_val.sts");
          const int last_step = (nstage - 1) / 4;
          for (int step : {0, last_step}) {
            const int valid = std::min(4, nstage - 4 * step);
            // B fragment: 4 column segments of one LDG.128 each, the
            // staged column as a whole-range gather interval.
            const Ival col_base(n0 * 2,
                                static_cast<std::int64_t>(s.k - 1) * s.n * 2 +
                                    n0 * 2);
            m.ldg(b, {col_base, col_base, col_base, col_base}, 8, 16, 16,
                  prefix_mask(8 * valid), "spmm_octet.b_frag");
            // Broadcast LDS of the step's staged A values.
            const int nseg = 32 / (2 * s.v);
            const std::vector<std::int64_t> off(
                static_cast<std::size_t>(nseg),
                tile_k * 4 + 4 * step * s.v * 2);
            const int nt = std::min(2 * s.v, valid * s.v / 2);
            m.lds(0, off, 2 * s.v, 4, 4, rep_prefix(nseg, 2 * s.v, nt),
                  "spmm_octet.a_lds");
          }
        }
        // Writeback: V rows x 64 columns in 4-row groups of LDG.128
        // segments.
        const int row_groups = std::max(1, s.v / 4);
        for (int g = 0; g < row_groups; ++g) {
          std::vector<Ival> bases;
          const int active = std::min(4, s.v - 4 * g);
          for (int t = 0; t < 4; ++t) {
            const std::int64_t r = vr * s.v + 4 * g + std::min(t, active - 1);
            bases.push_back(Ival(r * s.n * 2 + n0 * 2));
          }
          m.stg(c, bases, 8, 16, 16, prefix_mask(8 * active),
                "spmm_octet.writeback");
        }
      }
    }
  }
  m.finish();
}

void spmm_wmma_warp(CtaModel& m, const ShapeCorner& s,
                    const gpusim::DeviceConfig& hw) {
  (void)hw;
  if (!m.require(s.v == 2 || s.v == 4 || s.v == 8, "spmm_wmma.v",
                 "requires V in {2,4,8}")) {
    return;
  }
  if (!m.require(s.n % 64 == 0 && s.m % s.v == 0, "spmm_wmma.shape",
                 "requires N % 64 == 0 and M % V == 0")) {
    return;
  }
  m.launch(1, 0);
  const CvsBufs a = declare_cvs(m, s.m, s.k, s.v, "a");
  const int b = declare_dense(m, "b", s.k, s.n);
  const int c = declare_dense(m, "c", s.m, s.n);

  for (std::int64_t vr : {std::int64_t{0}, a.vec_rows - 1}) {
    for (std::int64_t n0 : {std::int64_t{0}, std::int64_t{s.n - 64}}) {
      for (std::int64_t cnt : cnt_probes(a.cnt_max)) {
        const std::int64_t begin = a.nnzv - cnt;
        m.ldg1(a.row_ptr, Ival(vr * 4), 4, 4, 0x3u, "spmm_wmma.row_ptr");
        // The nonzero loop at its first and last 16-wide chunk.
        const std::int64_t last_i0 = cnt > 0 ? ((cnt - 1) / 16) * 16 : 0;
        for (std::int64_t i0 : {std::int64_t{0}, last_i0}) {
          const std::int64_t nc = std::min<std::int64_t>(16, cnt - i0);
          if (nc <= 0) continue;
          m.ldg1(a.col_idx, Ival((begin + i0) * 4), 4, 4,
                 prefix_mask(static_cast<int>(nc)), "spmm_wmma.col_idx");
          // Values stream in 16 B-aligned LDG.128s: the base rounds
          // down, the final fragment rounds up (PR 5 values slack).
          const std::int64_t vbase = (begin + i0) * s.v / 8 * 8;
          const std::int64_t lanes =
              ceil_div<std::int64_t>((begin + i0 + nc) * s.v - vbase, 8);
          m.ldg1(a.values, Ival(vbase * 2), 16, 16,
                 prefix_mask(static_cast<int>(lanes)), "spmm_wmma.values");
          // B gather: per pass, four 8-lane segments each reading 32
          // consecutive halves of one gathered row.
          for (int pass = 0; pass < 8; ++pass) {
            const int rows = static_cast<int>(
                std::clamp<std::int64_t>(nc - 4 * (pass % 4), 0, 4));
            if (rows == 0) continue;
            const Ival row_base(
                n0 * 2 + 64 * (pass / 4),
                static_cast<std::int64_t>(s.k - 1) * s.n * 2 + n0 * 2 +
                    64 * (pass / 4));
            m.ldg(b, std::vector<Ival>(4, row_base), 8, 8, 8,
                  prefix_mask(8 * rows), "spmm_wmma.b_gather");
          }
        }
        // Writeback: one 8-lane segment per output row, 16 B per lane.
        for (int g = 0; g < ceil_div(s.v * 64, 256); ++g) {
          std::vector<Ival> bases;
          for (int t = 4 * g; t < std::min(4 * g + 4, s.v); ++t) {
            bases.push_back(Ival((vr * s.v + t) * s.n * 2 + n0 * 2));
          }
          const int live = static_cast<int>(bases.size());
          bases.resize(4, Ival(0));
          m.stg(c, bases, 8, 16, 16, prefix_mask(8 * live),
                "spmm_wmma.writeback");
        }
      }
    }
  }
  m.finish();
}

void spmm_fpu_subwarp(CtaModel& m, const ShapeCorner& s,
                      const gpusim::DeviceConfig& hw) {
  (void)hw;
  const int tile_n = 16, tile_k = 16;  // SpmmFpuParams defaults
  if (!m.require(s.v == 1 || s.v == 2 || s.v == 4 || s.v == 8, "spmm_fpu.v",
                 "requires V in {1,2,4,8}")) {
    return;
  }
  if (!m.require(s.n % tile_n == 0 && s.m % s.v == 0, "spmm_fpu.shape",
                 "requires N % TileN == 0 and M % V == 0")) {
    return;
  }
  const int vbytes = s.v * 2;
  m.launch(1, 4 * tile_k * (4 + vbytes) + 16);
  const CvsBufs a = declare_cvs(m, s.m, s.k, s.v, "a");
  const int b = declare_dense(m, "b", s.k, s.n);
  const int c = declare_dense(m, "c", s.m, s.n);

  const std::int64_t row_groups = ceil_div<std::int64_t>(a.vec_rows, 4);
  const auto idx_off = [&](int sg, int j) {
    return static_cast<std::int64_t>((sg * tile_k + j) * 4);
  };
  const auto val_off = [&](int sg, int j) {
    return static_cast<std::int64_t>(4 * tile_k * 4 +
                                     (sg * tile_k + j) * vbytes);
  };

  for (std::int64_t rg : {std::int64_t{0}, row_groups - 1}) {
    const std::int64_t vr0 = rg * 4;
    const int live =
        static_cast<int>(std::min<std::int64_t>(4, a.vec_rows - vr0));
    for (std::int64_t n0 : {std::int64_t{0}, std::int64_t{s.n - tile_n}}) {
      // Row extents: one 5-lane LDG.32 prefix (clamped at the table end).
      const int nl =
          static_cast<int>(std::min<std::int64_t>(5, a.vec_rows - vr0 + 1));
      m.ldg1(a.row_ptr, Ival(vr0 * 4), 4, 4, prefix_mask(nl),
             "spmm_fpu.row_ptr");
      for (std::int64_t cnt : cnt_probes(a.cnt_max)) {
        const std::int64_t begin = a.nnzv - cnt;
        const std::int64_t last_i0 =
            cnt > 0 ? ((cnt - 1) / tile_k) * tile_k : 0;
        for (std::int64_t i0 : {std::int64_t{0}, last_i0}) {
          const std::int64_t rem = cnt - i0;
          if (rem <= 0) continue;
          // Index staging: per-subwarp pair-rounded LDG.64 prefixes.
          // The kernel issues one 4-segment span; segments only differ
          // in their (row-dependent) base, so per-segment replay is
          // bounds-equivalent.
          const int nt = static_cast<int>(
              std::clamp<std::int64_t>((rem + 1) / 2, 0, 8));
          for (int sg : {0, live - 1}) {
            m.ldg1(a.col_idx, Ival((begin + i0) * 4), 8, 8, prefix_mask(nt),
                   "spmm_fpu.stage_idx");
            m.sts(0, {idx_off(sg, 0)}, 32, 8, 8, prefix_mask(nt),
                  "spmm_fpu.stage_idx.sts");
            // Value staging: two 8-lane passes per stride, exact.
            for (int j0 : {0, 8}) {
              const int nv = static_cast<int>(
                  std::clamp<std::int64_t>(rem - j0, 0, 8));
              if (nv == 0) continue;
              m.ldg1(a.values, Ival((begin + i0 + j0) * vbytes), vbytes,
                     vbytes, prefix_mask(nv), "spmm_fpu.stage_val");
              m.sts(0, {val_off(sg, j0)}, 32, vbytes, vbytes,
                    prefix_mask(nv), "spmm_fpu.stage_val.sts");
            }
            // Inner walk at its first and last staged entry: broadcast
            // LDS of the staged value, B-row slice to registers.
            for (int kk : {0, static_cast<int>(rem - 1) % tile_k}) {
              m.lds(0, {val_off(sg, kk)}, 8, 0, std::min(vbytes, 4),
                    prefix_mask(8), "spmm_fpu.a_lds");
              const Ival col_base(
                  n0 * 2, static_cast<std::int64_t>(s.k - 1) * s.n * 2 +
                              n0 * 2);
              m.ldg(b, {col_base}, 8, 4, 4, prefix_mask(8),
                    "spmm_fpu.b_slice");
            }
          }
        }
        // Writeback: V passes of 4-segment TileN/8-wide slices for the
        // live subwarps.
        for (int vv : {0, s.v - 1}) {
          std::vector<Ival> bases;
          for (int sg = 0; sg < live; ++sg) {
            bases.push_back(
                Ival(((vr0 + sg) * s.v + vv) * s.n * 2 + n0 * 2));
          }
          m.stg(c, bases, 8, 4, 4, rep_prefix(live, 8, 8),
                "spmm_fpu.writeback");
        }
      }
    }
  }
  m.finish();
}

void spmm_csr_fine(CtaModel& m, const ShapeCorner& s,
                   const gpusim::DeviceConfig& hw) {
  (void)hw;
  if (!m.require(s.v == 1, "spmm_csr_fine.v", "requires V == 1")) return;
  if (!m.require(s.n % 32 == 0, "spmm_csr_fine.shape",
                 "requires N % 32 == 0")) {
    return;
  }
  m.launch(1, 0);
  const CvsBufs a = declare_cvs(m, s.m, s.k, 1, "a");
  const int b = declare_dense(m, "b", s.k, s.n);
  const int c = declare_dense(m, "c", s.m, s.n);

  for (std::int64_t row : {std::int64_t{0}, std::int64_t{s.m - 1}}) {
    for (std::int64_t n0 : {std::int64_t{0}, std::int64_t{s.n - 32}}) {
      for (std::int64_t cnt : cnt_probes(a.cnt_max)) {
        const std::int64_t begin = a.nnzv - cnt;
        m.ldg1(a.row_ptr, Ival(row * 4), 4, 4, 0x3u,
               "spmm_csr_fine.row_ptr");
        // The nonzero loop at its first and last 32-wide chunk.
        const std::int64_t last_i0 = cnt > 0 ? ((cnt - 1) / 32) * 32 : 0;
        for (std::int64_t i0 : {std::int64_t{0}, last_i0}) {
          const int nc =
              static_cast<int>(std::min<std::int64_t>(32, cnt - i0));
          if (nc <= 0) continue;
          m.ldg1(a.col_idx, Ival((begin + i0) * 4), 4, 4, prefix_mask(nc),
                 "spmm_csr_fine.col_idx");
          m.ldg1(a.values, Ival((begin + i0) * 2), 2, 2, prefix_mask(nc),
                 "spmm_csr_fine.values");
          // Per nonzero: 32 consecutive halves of one gathered B row.
          m.ldg1(b,
                 Ival(n0 * 2,
                      static_cast<std::int64_t>(s.k - 1) * s.n * 2 + n0 * 2),
                 2, 2, 0xFFFFFFFFu, "spmm_csr_fine.b_row");
        }
        m.stg1(c, Ival(row * s.n * 2 + n0 * 2), 2, 2, 0xFFFFFFFFu,
               "spmm_csr_fine.writeback");
      }
    }
  }
  m.finish();
}

void spmm_blocked_ell(CtaModel& m, const ShapeCorner& s,
                      const gpusim::DeviceConfig& hw) {
  (void)hw;
  const int blk = s.v;  // the serve ladder re-encodes with block = V
  if (!m.require(blk == 2 || blk == 4 || blk == 8 || blk == 16,
                 "spmm_blocked_ell.blk", "requires block in {2,4,8,16}")) {
    return;
  }
  if (!m.require(s.n % 64 == 0 && s.m % blk == 0 && s.k % blk == 0,
                 "spmm_blocked_ell.shape",
                 "requires N % 64 == 0 and M, K % block == 0")) {
    return;
  }
  const int tile_n = (s.n % 128 == 0) ? 128 : 64;
  m.launch(1, blk * blk * 2 + blk * 128 * 2);
  const std::int64_t block_rows = s.m / blk;
  const std::int64_t block_cols = s.k / blk;
  const int b = declare_dense(m, "b", s.k, s.n);
  const int c = declare_dense(m, "c", s.m, s.n);
  const auto block_off = [&](std::int64_t r, std::int64_t cc) {
    return (r * blk + cc) * 2;
  };
  const auto btile_off = [&](std::int64_t r, std::int64_t nn) {
    return blk * blk * 2 + (r * 128 + nn) * 2;
  };

  // blocks_per_row is data-dependent (the max nonzero-block count over
  // block-rows); the ELL buffers are sized by the same value the slot
  // loop runs to, so one probe at each extreme covers all encodings.
  for (std::int64_t bpr : {std::int64_t{1}, block_cols}) {
    const int col_idx = m.gbuf("ell.col_idx", block_rows * bpr * 4);
    const int values =
        m.gbuf("ell.values", block_rows * bpr * blk * blk * 2);
    for (std::int64_t brow : {std::int64_t{0}, block_rows - 1}) {
      for (std::int64_t n0 :
           {std::int64_t{0}, std::int64_t{s.n - tile_n}}) {
        // Up-front column-index gather, 32 slots per pass.
        const std::int64_t cpasses = ceil_div<std::int64_t>(bpr, 32);
        for (std::int64_t p : {std::int64_t{0}, cpasses - 1}) {
          const int nl =
              static_cast<int>(std::min<std::int64_t>(32, bpr - 32 * p));
          m.ldg1(col_idx, Ival((brow * bpr + 32 * p) * 4), 4, 4,
                 prefix_mask(nl), "spmm_blocked_ell.col_idx");
        }
        for (std::int64_t slot : {std::int64_t{0}, bpr - 1}) {
          // Value block through smem: one chunk per lane (blk = 2
          // blocks are 8 B total, smaller than one LDG.128).
          const int chunk = std::min(16, blk * blk * 2);
          const int chunks = ceil_div(blk * blk * 2, chunk);
          const std::int64_t vbase = (brow * bpr + slot) * blk * blk * 2;
          m.ldg1(values, Ival(vbase), chunk, chunk, prefix_mask(chunks),
                 "spmm_blocked_ell.value_block");
          m.sts(0, {0}, 32, chunk, chunk, prefix_mask(chunks),
                "spmm_blocked_ell.value_block.sts");
          // B stripe: two block rows per pass, 16-lane segments; the
          // block column is data-dependent (gathered index).
          const std::uint32_t seg_bits = tile_n >= 128 ? 0xFFFFu : 0xFFu;
          for (int pass = 0; pass < ceil_div(blk, 2); ++pass) {
            std::vector<Ival> gbase;
            std::vector<std::int64_t> soff;
            std::uint32_t mask = 0;
            for (int seg = 0; seg < 2; ++seg) {
              const std::int64_t r = 2 * pass + seg;
              if (r >= blk) {
                gbase.push_back(Ival(0));
                soff.push_back(0);
                continue;
              }
              // row = bcol * blk + r, bcol in [0, block_cols).
              gbase.push_back(Ival(r * s.n * 2 + n0 * 2,
                                   ((block_cols - 1) * blk + r) * s.n * 2 +
                                       n0 * 2));
              soff.push_back(btile_off(r, 0));
              mask |= seg_bits << (16 * seg);
            }
            m.ldg(b, gbase, 16, 16, 16, mask, "spmm_blocked_ell.b_stripe");
            m.sts(0, soff, 16, 16, 16, mask,
                  "spmm_blocked_ell.b_stripe.sts");
          }
          m.sync();
          // Fragment loads from smem.
          if (blk == 16) {
            for (std::int64_t rt : {std::int64_t{0}, std::int64_t{1}}) {
              std::vector<std::int64_t> soff;
              for (int seg = 0; seg < 8; ++seg) {
                soff.push_back(block_off(rt * 8 + seg, 0));
              }
              m.lds(0, soff, 4, 8, 8, 0xFFFFFFFFu,
                    "spmm_blocked_ell.a_frag");
            }
          } else {
            // Small blocks clamp both block coordinates per lane — a
            // genuinely divergent gather the engine runs element-wise.
            m.lds_lanes(0, 0, blk * blk * 2, SpanPattern::kIrregular,
                        "spmm_blocked_ell.a_frag");
          }
          for (std::int64_t ct :
               {std::int64_t{0}, std::int64_t{tile_n / 32 - 1}}) {
            for (int pass = 0; pass < 2; ++pass) {
              std::vector<std::int64_t> soff;
              for (int seg = 0; seg < 8; ++seg) {
                const std::int64_t r =
                    std::min<std::int64_t>(8 * pass + seg, blk - 1);
                soff.push_back(btile_off(r, 32 * ct));
              }
              m.lds(0, soff, 4, 16, 16, 0xFFFFFFFFu,
                    "spmm_blocked_ell.b_frag");
            }
          }
          m.sync();
        }
        // Writeback: tile_n/8 lanes per output row, whole-segment
        // predication past blk.
        const int wwidth = tile_n / 8;
        const int wsegs = 32 / wwidth;
        const int rows_per_pass = 256 / tile_n;
        const std::uint32_t wbits = prefix_mask(wwidth);
        const int passes = ceil_div(blk * tile_n, 32 * 8);
        for (int pass : {0, passes - 1}) {
          std::vector<Ival> gbase;
          std::uint32_t mask = 0;
          for (int seg = 0; seg < wsegs; ++seg) {
            const std::int64_t r =
                static_cast<std::int64_t>(pass) * rows_per_pass + seg;
            if (r >= blk) {
              gbase.push_back(Ival(0));
              continue;
            }
            gbase.push_back(Ival((brow * blk + r) * s.n * 2 + n0 * 2));
            mask |= wbits << (seg * wwidth);
          }
          m.stg(c, gbase, wwidth, 16, 16, mask,
                "spmm_blocked_ell.writeback");
        }
      }
    }
  }
  m.finish();
}

namespace {

/// Body for hgemm_tcu: the fig05 dense baseline and the SpMM ladder's
/// dense-decode rung, both with a row-major B.
void hgemm_contract(CtaModel& m, const ShapeCorner& s,
                    const gpusim::DeviceConfig& hw) {
  if (!m.require(s.m % 64 == 0 && s.n % 64 == 0 && s.k % 16 == 0,
                 "hgemm_tcu.shape",
                 "requires M, N % 64 == 0 and K % 16 == 0")) {
    return;
  }
  constexpr std::int64_t kMaxTileM = 128, kTileN = 64, kTileK = 16;
  const std::int64_t smem = (kMaxTileM * kTileK + kTileK * kTileN) * 2;
  const auto a_off = [](std::int64_t r, std::int64_t kk) {
    return (r * kTileK + kk) * 2;
  };
  const auto b_off = [](std::int64_t kk, std::int64_t nn) {
    return (kMaxTileM * kTileK + kk * kTileN + nn) * 2;
  };
  const std::int64_t tile_m = (s.m % kMaxTileM == 0) ? kMaxTileM : 64;
  const std::int64_t rows_per_warp = tile_m / 4;
  const std::int64_t grid_base = (s.m / tile_m) * (s.n / kTileN);
  // cuBLAS-style split-K sizing (mirrors the kernel's heuristic).
  std::int64_t split = 1;
  while (grid_base * split < 2 * hw.num_sms && split < 16 &&
         s.k % (2 * split * kTileK) == 0) {
    split *= 2;
  }
  const std::int64_t k_per_split = s.k / split;

  m.launch(4, smem);
  const int a = declare_dense(m, "a", s.m, s.k);
  const int b = declare_dense(m, "b", s.k, s.n);
  const int c = declare_dense(m, "c", s.m, s.n);
  const int ws = split > 1 ? m.gbuf("workspace", s.m * s.n * 4) : -1;

  for (std::int64_t m0 : {std::int64_t{0}, s.m - tile_m}) {
    for (std::int64_t n0 : {std::int64_t{0}, s.n - kTileN}) {
      for (std::int64_t sp : {std::int64_t{0}, split - 1}) {
        const std::int64_t k_begin = sp * k_per_split;
        for (std::int64_t k0 :
             {k_begin, k_begin + k_per_split - kTileK}) {
          for (int w = 0; w < 4; ++w) {
            // A tile staging: 16-row groups of LDG.128 + STS.128.
            for (std::int64_t g = 0; g < rows_per_warp / 16; ++g) {
              const std::int64_t tr0 = rows_per_warp * w + 16 * g;
              std::vector<Ival> gb;
              std::vector<std::int64_t> sb;
              for (int seg = 0; seg < 16; ++seg) {
                gb.push_back(Ival((m0 + tr0 + seg) * s.k * 2 + k0 * 2));
                sb.push_back(a_off(tr0 + seg, 0));
              }
              m.ldg(a, gb, 2, 16, 16, 0xFFFFFFFFu, "hgemm_tcu.stage_a");
              m.sts(w, sb, 2, 16, 16, 0xFFFFFFFFu, "hgemm_tcu.stage_a.sts");
            }
            // Row-major B: four rows per warp, 8-lane segments.
            std::vector<Ival> gb;
            std::vector<std::int64_t> sb;
            for (int seg = 0; seg < 4; ++seg) {
              gb.push_back(Ival((k0 + 4 * w + seg) * s.n * 2 + n0 * 2));
              sb.push_back(b_off(4 * w + seg, 0));
            }
            m.ldg(b, gb, 8, 16, 16, 0xFFFFFFFFu, "hgemm_tcu.stage_b");
            m.sts(w, sb, 8, 16, 16, 0xFFFFFFFFu, "hgemm_tcu.stage_b.sts");
          }
          m.sync();
          for (int w = 0; w < 4; ++w) {
            for (std::int64_t rh : {std::int64_t{0},
                                    rows_per_warp / 8 - 1}) {
              std::vector<std::int64_t> soff;
              for (int seg = 0; seg < 8; ++seg) {
                soff.push_back(a_off(rows_per_warp * w + 8 * rh + seg, 0));
              }
              m.lds(w, soff, 4, 8, 8, 0xFFFFFFFFu, "hgemm_tcu.a_frag");
              for (int ch = 0; ch < 2; ++ch) {
                for (int hk = 0; hk < 2; ++hk) {
                  std::vector<std::int64_t> bo;
                  for (int seg = 0; seg < 8; ++seg) {
                    bo.push_back(b_off(8 * hk + seg, 32 * ch));
                  }
                  m.lds(w, bo, 4, 16, 16, 0xFFFFFFFFu, "hgemm_tcu.b_frag");
                }
              }
            }
          }
          m.sync();
        }
        // Writeback / split-K partials.
        for (int w = 0; w < 4; ++w) {
          if (split == 1) {
            for (std::int64_t g : {std::int64_t{0},
                                   rows_per_warp / 4 - 1}) {
              std::vector<Ival> gb;
              for (int seg = 0; seg < 4; ++seg) {
                gb.push_back(
                    Ival((m0 + rows_per_warp * w + 4 * g + seg) * s.n * 2 +
                         n0 * 2));
              }
              m.stg(c, gb, 8, 16, 16, 0xFFFFFFFFu, "hgemm_tcu.writeback");
            }
          } else {
            for (std::int64_t g : {std::int64_t{0},
                                   rows_per_warp / 2 - 1}) {
              std::vector<Ival> gb;
              for (int seg = 0; seg < 2; ++seg) {
                gb.push_back(
                    Ival((m0 + rows_per_warp * w + 2 * g + seg) * s.n * 4 +
                         n0 * 4));
              }
              m.stg(ws, gb, 16, 16, 16, 0xFFFFFFFFu,
                    "hgemm_tcu.splitk_partial");
            }
          }
        }
      }
    }
  }
  if (split > 1) {
    // Reduction pass: 32-thread CTAs sweeping 2048-float stripes with a
    // prefix-masked ragged tail.
    const std::int64_t total = s.m * static_cast<std::int64_t>(s.n);
    for (std::int64_t base :
         {std::int64_t{0}, (total - 1) / 128 * 128}) {
      int lanes = 0;
      for (int lane = 0; lane < 32; ++lane) {
        if (base + lane * 4 + 4 > total) break;
        ++lanes;
      }
      m.ldg1(ws, Ival(base * 4), 16, 16, prefix_mask(lanes),
             "hgemm_tcu.reduce_in");
      m.stg1(c, Ival(base * 2), 8, 8, prefix_mask(lanes),
             "hgemm_tcu.reduce_out");
    }
  }
  m.finish();
}

}  // namespace

void spmm_dense_gemm(CtaModel& m, const ShapeCorner& s,
                     const gpusim::DeviceConfig& hw) {
  hgemm_contract(m, s, hw);
}

// ---- SDDMM ---------------------------------------------------------

void sddmm_octet(CtaModel& m, const ShapeCorner& s,
                 const gpusim::DeviceConfig& hw) {
  (void)hw;
  if (!m.require(s.v == 2 || s.v == 4 || s.v == 8, "sddmm_octet.v",
                 "requires V in {2,4,8}")) {
    return;
  }
  if (!m.require(s.m % s.v == 0, "sddmm_octet.shape", "requires M % V == 0")) {
    return;
  }
  m.launch(1, 0);
  const CvsBufs mask = declare_cvs(m, s.m, s.n, s.v, "mask");
  const int a = declare_dense(m, "a", s.m, s.k);
  const int b = declare_dense(m, "b", s.k, s.n);  // col-major, ld = k
  const int out = m.gbuf("out_values", mask.nnzv * s.v * 2);

  for (std::int64_t vr : {std::int64_t{0}, mask.vec_rows - 1}) {
    for (std::int64_t cnt : cnt_probes(mask.cnt_max)) {
      const std::int64_t begin = mask.nnzv - cnt;
      m.ldg1(mask.row_ptr, Ival(vr * 4), 4, 4, 0x3u, "sddmm_octet.row_ptr");
      const std::int64_t tiles = std::max<std::int64_t>(
          1, ceil_div<std::int64_t>(std::max<std::int64_t>(cnt, 1), 32));
      for (std::int64_t tile : {std::int64_t{0}, tiles - 1}) {
        const std::int64_t j0 = 32 * tile;
        if (j0 >= cnt) continue;  // early-exit CTA (uniform, no barrier)
        const int jcnt =
            static_cast<int>(std::min<std::int64_t>(32, cnt - j0));
        m.ldg1(mask.col_idx, Ival((begin + j0) * 4), 4, 4,
               prefix_mask(jcnt), "sddmm_octet.cols");
        for (std::int64_t k0 :
             {std::int64_t{0}, std::int64_t{(s.k - 1) / 64 * 64}}) {
          const int kcnt =
              static_cast<int>(std::min<std::int64_t>(64, s.k - k0));
          const int kpre = static_cast<int>(ceil_div(kcnt, 8));
          // A rows: V row segments of LDG.128 along K (8-half
          // granularity rounds the row tail up — dense slack).
          {
            std::vector<Ival> bases;
            for (int t = 0; t < std::min(4, s.v); ++t) {
              bases.push_back(
                  Ival((vr * s.v + t) * s.k * 2 + k0 * 2));
            }
            m.ldg(a, bases, 8, 16, 16,
                  rep_prefix(static_cast<int>(bases.size()), 8, kpre),
                  "sddmm_octet.a_rows");
          }
          // B columns (col-major): gathered by the mask's columns,
          // same 8-half K granularity.
          {
            const Ival col(0, s.n - 1);
            const Ival base = col * (s.k * 2) + k0 * 2;
            m.ldg(b, {base, base, base, base}, 8, 16, 16,
                  rep_prefix(4, 8, kpre), "sddmm_octet.b_cols");
          }
        }
        // Output vectors: exact prefix.
        m.stg1(out, Ival((begin + j0) * s.v * 2), s.v * 2, s.v * 2,
               prefix_mask(jcnt), "sddmm_octet.writeback");
      }
    }
  }
  m.finish();
}

void sddmm_wmma_warp(CtaModel& m, const ShapeCorner& s,
                     const gpusim::DeviceConfig& hw) {
  (void)hw;
  if (!m.require(s.v == 2 || s.v == 4 || s.v == 8, "sddmm_wmma.v",
                 "requires V in {2,4,8}")) {
    return;
  }
  if (!m.require(s.m % s.v == 0, "sddmm_wmma.shape", "requires M % V == 0")) {
    return;
  }
  m.launch(1, 8192);
  const CvsBufs mask = declare_cvs(m, s.m, s.n, s.v, "mask");
  const int a = declare_dense(m, "a", s.m, s.k);
  const int b = declare_dense(m, "b", s.k, s.n);  // col-major
  const int out = m.gbuf("out_values", mask.nnzv * s.v * 2);

  for (std::int64_t vr : {std::int64_t{0}, mask.vec_rows - 1}) {
    for (std::int64_t cnt : cnt_probes(mask.cnt_max)) {
      const std::int64_t begin = mask.nnzv - cnt;
      m.ldg1(mask.row_ptr, Ival(vr * 4), 4, 4, 0x3u, "sddmm_wmma.row_ptr");
      const std::int64_t tiles = std::max<std::int64_t>(
          1, ceil_div<std::int64_t>(std::max<std::int64_t>(cnt, 1), 32));
      for (std::int64_t tile : {std::int64_t{0}, tiles - 1}) {
        const std::int64_t j0 = 32 * tile;
        if (j0 >= cnt) continue;
        const int jcnt =
            static_cast<int>(std::min<std::int64_t>(32, cnt - j0));
        m.ldg1(mask.col_idx, Ival((begin + j0) * 4), 4, 4,
               prefix_mask(jcnt), "sddmm_wmma.cols");
        for (std::int64_t k0 :
             {std::int64_t{0}, std::int64_t{(s.k - 1) / 64 * 64}}) {
          const int kcnt =
              static_cast<int>(std::min<std::int64_t>(64, s.k - k0));
          const int kpre = static_cast<int>(ceil_div(kcnt, 16));
          // A fragment: V row segments of 4 lanes x 32 B (16-half
          // granularity — the worst K-rounding in the codebase, and
          // what sizes the dense operands' 15-half tail slack).
          {
            std::vector<Ival> bases;
            for (int t = 0; t < std::min(8, s.v); ++t) {
              bases.push_back(
                  Ival((vr * s.v + t) * s.k * 2 + k0 * 2));
            }
            m.ldg(a, bases, 4, 32, 32,
                  rep_prefix(static_cast<int>(bases.size()), 4, kpre),
                  "sddmm_wmma.a_frag");
          }
          // B gather: per staged nonzero, 8-half runs of the mask
          // column, predicated on j < jcnt && kk < kcnt (exact).
          m.ldg_lanes(
              b, Ival(k0 * 2),
              Ival(static_cast<std::int64_t>(s.n - 1) * s.k * 2 +
                   (k0 + kcnt) * 2),
              SpanPattern::kGather, "sddmm_wmma.b_gather");
          // MMA staging through smem (<= 512 B per round, offset 0).
          m.sts(0, {0}, 32, 16, 16, prefix_mask(jcnt), "sddmm_wmma.sts");
          m.lds(0, {0}, 32, 16, 16, prefix_mask(jcnt), "sddmm_wmma.lds");
        }
        m.stg1(out, Ival((begin + j0) * s.v * 2), s.v * 2, s.v * 2,
               prefix_mask(jcnt), "sddmm_wmma.writeback");
      }
    }
  }
  m.finish();
}

void sddmm_fpu_subwarp(CtaModel& m, const ShapeCorner& s,
                       const gpusim::DeviceConfig& hw) {
  (void)hw;
  const int tile_n = 8;  // SddmmFpuParams default
  if (!m.require(s.v == 1 || s.v == 2 || s.v == 4 || s.v == 8,
                 "sddmm_fpu.v", "requires V in {1,2,4,8}")) {
    return;
  }
  if (!m.require(s.m % s.v == 0, "sddmm_fpu.shape", "requires M % V == 0")) {
    return;
  }
  m.launch(1, 0);
  const CvsBufs mask = declare_cvs(m, s.m, s.n, s.v, "mask");
  const int a = declare_dense(m, "a", s.m, s.k);
  const int b = declare_dense(m, "b", s.k, s.n);  // col-major
  const int out = m.gbuf("out_values", mask.nnzv * s.v * 2);

  for (std::int64_t vr : {std::int64_t{0}, mask.vec_rows - 1}) {
    for (std::int64_t cnt : cnt_probes(mask.cnt_max)) {
      const std::int64_t begin = mask.nnzv - cnt;
      m.ldg1(mask.row_ptr, Ival(vr * 4), 4, 4, 0x3u, "sddmm_fpu.row_ptr");
      const std::int64_t per_cta = 4 * tile_n;
      const std::int64_t tiles = std::max<std::int64_t>(
          1, ceil_div<std::int64_t>(std::max<std::int64_t>(cnt, 1), per_cta));
      for (std::int64_t tile : {std::int64_t{0}, tiles - 1}) {
        const std::int64_t j0 = per_cta * tile;
        if (j0 >= cnt) continue;
        const int jcnt = static_cast<int>(
            std::min<std::int64_t>(per_cta, cnt - j0));
        m.ldg1(mask.col_idx, Ival((begin + j0) * 4), 4, 4,
               prefix_mask(jcnt), "sddmm_fpu.cols");
        for (std::int64_t k0 :
             {std::int64_t{0}, std::int64_t{(s.k - 1) / 64 * 64}}) {
          const int kcnt =
              static_cast<int>(std::min<std::int64_t>(64, s.k - k0));
          const int kpre = static_cast<int>(ceil_div(kcnt, 8));
          // A rows, re-loaded by all four subwarps (8-half granularity).
          for (int t : {0, s.v - 1}) {
            const Ival base((vr * s.v + t) * s.k * 2 + k0 * 2);
            m.ldg(a, {base, base, base, base}, 8, 16, 16,
                  rep_prefix(4, 8, kpre), "sddmm_fpu.a_rows");
          }
          // B columns gathered via the mask, one per subwarp-owned
          // output vector.
          const Ival col(0, s.n - 1);
          const Ival base = col * (s.k * 2) + k0 * 2;
          m.ldg(b, {base, base, base, base}, 8, 16, 16,
                rep_prefix(4, 8, kpre), "sddmm_fpu.b_cols");
        }
        m.stg1(out, Ival((begin + j0) * s.v * 2), s.v * 2, s.v * 2,
               prefix_mask(std::min(jcnt, 32)), "sddmm_fpu.writeback");
      }
    }
  }
  m.finish();
}

void sddmm_csr_fine(CtaModel& m, const ShapeCorner& s,
                    const gpusim::DeviceConfig& hw) {
  (void)hw;
  if (!m.require(s.v == 1, "sddmm_csr_fine.v", "requires V == 1")) return;
  m.launch(1, 0);
  const CvsBufs mask = declare_cvs(m, s.m, s.n, 1, "mask");
  const int a = declare_dense(m, "a", s.m, s.k);
  const int b = declare_dense(m, "b", s.k, s.n);  // col-major
  const int out = m.gbuf("out_values", mask.nnzv * 2);

  for (std::int64_t row : {std::int64_t{0}, std::int64_t{s.m - 1}}) {
    for (std::int64_t cnt : cnt_probes(mask.cnt_max)) {
      const std::int64_t begin = mask.nnzv - cnt;
      m.ldg1(mask.row_ptr, Ival(row * 4), 4, 4, 0x3u,
             "sddmm_csr_fine.row_ptr");
      if (cnt == 0) continue;
      for (std::int64_t j : {begin, begin + cnt - 1}) {
        m.ldg1(mask.col_idx, Ival(j * 4), 4, 4, 0x1u,
               "sddmm_csr_fine.col");
        const std::int64_t chunks = ceil_div<std::int64_t>(s.k, 32);
        for (std::int64_t ch : {std::int64_t{0}, chunks - 1}) {
          const int nl =
              static_cast<int>(std::min<std::int64_t>(32, s.k - 32 * ch));
          // A row / B column chunks: exact 2 B-per-lane prefixes.
          m.ldg1(a, Ival(row * s.k * 2 + 32 * ch * 2), 2, 2,
                 prefix_mask(nl), "sddmm_csr_fine.a_chunk");
          const Ival col(0, s.n - 1);
          m.ldg1(b, col * (s.k * 2) + 32 * ch * 2, 2, 2, prefix_mask(nl),
                 "sddmm_csr_fine.b_chunk");
        }
        m.stg1(out, Ival(j * 2), 2, 2, 0x1u, "sddmm_csr_fine.writeback");
      }
    }
  }
  m.finish();
}

// ---- non-registry kernels (verifier extra set) ---------------------

void sgemm_fpu(CtaModel& m, const ShapeCorner& s,
               const gpusim::DeviceConfig& hw) {
  (void)hw;
  if (!m.require(s.m % 64 == 0 && s.n % 64 == 0 && s.k % 16 == 0,
                 "sgemm_fpu.shape",
                 "requires M, N % 64 == 0 and K % 16 == 0")) {
    return;
  }
  constexpr std::int64_t kTileM = 64, kTileN = 64, kTileK = 16;
  const std::int64_t smem = (kTileM * kTileK + kTileK * kTileN) * 4;
  const auto a_off = [](std::int64_t r, std::int64_t kk) {
    return (r * kTileK + kk) * 4;
  };
  const auto b_off = [](std::int64_t kk, std::int64_t nn) {
    return (kTileM * kTileK + kk * kTileN + nn) * 4;
  };
  m.launch(4, smem);
  const int a = m.gbuf("a", s.m * s.k * 4, 60);
  const int b = m.gbuf("b", s.k * s.n * 4, 60);
  const int c = m.gbuf("c", s.m * s.n * 4, 60);

  for (std::int64_t m0 : {std::int64_t{0}, s.m - kTileM}) {
    for (std::int64_t n0 : {std::int64_t{0}, s.n - kTileN}) {
      for (std::int64_t k0 : {std::int64_t{0}, s.k - kTileK}) {
        for (int w = 0; w < 4; ++w) {
          for (int pass = 0; pass < 2; ++pass) {
            std::vector<Ival> gb;
            std::vector<std::int64_t> sb;
            for (int seg = 0; seg < 8; ++seg) {
              const std::int64_t r = 16 * w + 8 * pass + seg;
              gb.push_back(Ival((m0 + r) * s.k * 4 + k0 * 4));
              sb.push_back(a_off(r, 0));
            }
            m.ldg(a, gb, 4, 16, 16, 0xFFFFFFFFu, "sgemm_fpu.stage_a");
            m.sts(w, sb, 4, 16, 16, 0xFFFFFFFFu, "sgemm_fpu.stage_a.sts");
          }
          for (int pass = 0; pass < 2; ++pass) {
            std::vector<Ival> gb;
            std::vector<std::int64_t> sb;
            for (int seg = 0; seg < 2; ++seg) {
              const std::int64_t kk = 4 * w + 2 * pass + seg;
              gb.push_back(Ival((k0 + kk) * s.n * 4 + n0 * 4));
              sb.push_back(b_off(kk, 0));
            }
            m.ldg(b, gb, 16, 16, 16, 0xFFFFFFFFu, "sgemm_fpu.stage_b");
            m.sts(w, sb, 16, 16, 16, 0xFFFFFFFFu, "sgemm_fpu.stage_b.sts");
          }
        }
        m.sync();
        for (int w = 0; w < 4; ++w) {
          for (int rep = 0; rep < 6; ++rep) {
            m.lds(w, {rep * 128}, 32, 4, 4, 0xFFFFFFFFu,
                  "sgemm_fpu.operand_lds");
          }
        }
        m.sync();
      }
      for (int w = 0; w < 4; ++w) {
        for (std::int64_t g : {std::int64_t{0}, std::int64_t{7}}) {
          std::vector<Ival> gb;
          for (int seg = 0; seg < 2; ++seg) {
            gb.push_back(Ival((m0 + 16 * w + 2 * g + seg) * s.n * 4 +
                              n0 * 4));
          }
          m.stg(c, gb, 16, 16, 16, 0xFFFFFFFFu, "sgemm_fpu.writeback");
        }
      }
    }
  }
  m.finish();
}

void sparse_softmax(CtaModel& m, const ShapeCorner& s,
                    const gpusim::DeviceConfig& hw) {
  (void)hw;
  if (!m.require(s.v == 1 || s.v == 2 || s.v == 4 || s.v == 8,
                 "sparse_softmax.v", "requires V in {1,2,4,8}")) {
    return;
  }
  if (!m.require(s.m % s.v == 0, "sparse_softmax.shape",
                 "requires M % V == 0")) {
    return;
  }
  m.launch(1, 0);
  const CvsBufs mask = declare_cvs(m, s.m, s.n, s.v, "mask");
  const int in = m.gbuf("in", mask.nnzv * s.v * 2);
  const int out = m.gbuf("out", mask.nnzv * s.v * 2);

  for (std::int64_t vr : {std::int64_t{0}, mask.vec_rows - 1}) {
    for (std::int64_t cnt : cnt_probes(mask.cnt_max)) {
      const std::int64_t begin = mask.nnzv - cnt;
      m.ldg1(mask.row_ptr, Ival(vr * 4), 4, 4, 0x3u,
             "sparse_softmax.row_ptr");
      if (cnt == 0) continue;
      const std::int64_t chunks = ceil_div<std::int64_t>(cnt, 32);
      // Three passes (max, sum, normalize+store) over the row's
      // vectors; all spans are exact V-wide prefixes.
      for (int pass = 0; pass < 3; ++pass) {
        for (std::int64_t ch : {std::int64_t{0}, chunks - 1}) {
          const int cc =
              static_cast<int>(std::min<std::int64_t>(32, cnt - 32 * ch));
          m.ldg1(in, Ival((begin + 32 * ch) * s.v * 2), s.v * 2, s.v * 2,
                 prefix_mask(cc), "sparse_softmax.load");
          if (pass == 2) {
            m.stg1(out, Ival((begin + 32 * ch) * s.v * 2), s.v * 2,
                   s.v * 2, prefix_mask(cc), "sparse_softmax.store");
          }
        }
      }
    }
  }
  m.finish();
}

void dense_softmax(CtaModel& m, const ShapeCorner& s,
                   const gpusim::DeviceConfig& hw) {
  (void)hw;
  if (!m.require(s.n % 8 == 0, "dense_softmax.shape",
                 "requires cols % 8 == 0")) {
    return;
  }
  m.launch(1, 0);
  const int in = m.gbuf("in", static_cast<std::int64_t>(s.m) * s.n * 2);
  const int out = m.gbuf("out", static_cast<std::int64_t>(s.m) * s.n * 2);
  for (std::int64_t row : {std::int64_t{0}, std::int64_t{s.m - 1}}) {
    const std::int64_t chunks =
        ceil_div<std::int64_t>(static_cast<std::int64_t>(s.n) * 2, 512);
    for (std::int64_t ch : {std::int64_t{0}, chunks - 1}) {
      const std::int64_t base = row * s.n * 2 + ch * 512;
      const std::int64_t left = (row + 1) * static_cast<std::int64_t>(s.n) *
                                    2 - base;
      const int lanes =
          static_cast<int>(std::min<std::int64_t>(32, left / 16));
      for (int pass = 0; pass < 3; ++pass) {
        m.ldg1(in, Ival(base), 16, 16, prefix_mask(lanes),
               "dense_softmax.load");
        if (pass == 2) {
          m.stg1(out, Ival(base), 16, 16, prefix_mask(lanes),
                 "dense_softmax.store");
        }
      }
    }
  }
  m.finish();
}

}  // namespace vsparse::kernels::contracts

#include "vsparse/kernels/spmm/spmm_csr_fine.hpp"

#include <algorithm>
#include <string>

#include "vsparse/common/math.hpp"

namespace vsparse::kernels {

namespace {

using gpusim::Cta;
using gpusim::Lanes;
using gpusim::Op;
using gpusim::Warp;

constexpr int kTileN = 32;  // one output column per lane

template <class T>
KernelRun spmm_csr_fine_impl(gpusim::Device& dev, const CvsDeviceT<T>& a,
                             const DenseDevice<T>& b, DenseDevice<T>& c,
                             const gpusim::SimOptions& sim) {
  const int m = a.rows, k = a.cols, n = b.cols;
  VSPARSE_CHECK(a.v == 1);
  VSPARSE_CHECK(b.rows == k && c.rows == m && c.cols == n);
  VSPARSE_CHECK(b.layout == Layout::kRowMajor &&
                c.layout == Layout::kRowMajor);
  VSPARSE_CHECK_MSG(n % kTileN == 0, "N % 32 == 0 required");

  const int n_tiles = n / kTileN;

  gpusim::LaunchConfig cfg;
  cfg.grid = m * n_tiles;
  cfg.cta_threads = 32;
  cfg.smem_bytes = 0;
  cfg.profile = {
      .name = sizeof(T) == 2 ? "spmm_csr_fine_half" : "spmm_csr_fine_f32",
      .regs_per_thread = 32,
      .static_instrs = 320,
      .icache_pressure = 1.0,
      .ilp_factor = 1.3,  // serialized per-nonzero dependency chain
  };

  auto row_ptr = a.row_ptr.host();
  auto col_host = a.col_idx.host();
  auto val_host = a.values.host();

  gpusim::KernelStats stats = gpusim::launch(dev, cfg, [&](Cta& cta) {
    const int row = cta.cta_id() % m;  // rows fastest (B-slice reuse)
    const int n0 = (cta.cta_id() / m) * kTileN;
    Warp w = cta.warp(0);
    {
      Lanes<std::int32_t> d{};
      w.ldg_span(a.row_ptr.addr(static_cast<std::size_t>(row)), 4, d, 0x3u);
      w.count(Op::kImad, 3);
    }
    const std::int32_t begin = row_ptr[static_cast<std::size_t>(row)];
    const std::int32_t end = row_ptr[static_cast<std::size_t>(row) + 1];

    float acc[kTileN] = {};

    for (std::int32_t i0 = begin; i0 < end; i0 += 32) {
      const int cnt = std::min<std::int32_t>(32, end - i0);
      // Indices + values for up to 32 nonzeros (coalesced).
      {
        Lanes<std::int32_t> d{};
        std::uint32_t mask = cnt >= 32 ? gpusim::kFullMask
                                       : ((1u << cnt) - 1u);
        w.ldg_span(a.col_idx.addr(static_cast<std::size_t>(i0)), 4, d, mask);
        Lanes<T> vals{};
        w.ldg_span(a.values.addr(static_cast<std::size_t>(i0)), sizeof(T),
                   vals, mask);
        w.count(Op::kImad, 2);
      }
      // Serialized walk: per nonzero, every lane loads B[k][n0+lane].
      for (int j = 0; j < cnt; ++j) {
        const std::int32_t col = col_host[static_cast<std::size_t>(i0 + j)];
        const float av =
            static_cast<float>(val_host[static_cast<std::size_t>(i0 + j)]);
        Lanes<T> brow{};
        w.count(Op::kImad, 1);
        w.ldg_span(b.addr(col, n0), sizeof(T), brow);
        if constexpr (sizeof(T) == 2) {
          w.count(Op::kHfma, 1);
          w.count(Op::kFfma, 1);
        } else {
          w.count(Op::kFfma, 1);
        }
        for (int lane = 0; lane < 32; ++lane) {
          acc[lane] +=
              av * static_cast<float>(brow[static_cast<std::size_t>(lane)]);
        }
      }
    }

    // Writeback: one element per lane.
    if constexpr (sizeof(T) == 2) w.count(Op::kCvt, 1);
    Lanes<T> out{};
    for (int lane = 0; lane < 32; ++lane) {
      out[static_cast<std::size_t>(lane)] = T(acc[lane]);
    }
    w.stg_span(c.addr(row, n0), sizeof(T), out);
  }, sim);

  return {stats, cfg};
}

}  // namespace

KernelRun spmm_csr_fine(gpusim::Device& dev, const CvsDevice& a,
                        const DenseDevice<half_t>& b, DenseDevice<half_t>& c,
                        const gpusim::SimOptions& sim) {
  return spmm_csr_fine_impl<half_t>(dev, a, b, c, sim);
}

KernelRun spmm_csr_fine_f32(gpusim::Device& dev, const CvsDeviceT<float>& a,
                            const DenseDevice<float>& b,
                            DenseDevice<float>& c,
                            const gpusim::SimOptions& sim) {
  return spmm_csr_fine_impl<float>(dev, a, b, c, sim);
}

}  // namespace vsparse::kernels

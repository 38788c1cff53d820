// Correctness + counter tests for all SDDMM kernels: octet tiling with
// the three inverted-pattern strategies (§6.3/6.4), FPU subwarp tiling
// (§6.1), classic WMMA warp tiling (§6.2), and fine-grained CSR.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/formats/reference.hpp"
#include "vsparse/kernels/sddmm/sddmm_csr_fine.hpp"
#include "vsparse/kernels/sddmm/sddmm_fpu.hpp"
#include "vsparse/kernels/sddmm/sddmm_octet.hpp"
#include "vsparse/kernels/sddmm/sddmm_wmma.hpp"

namespace vsparse::kernels {
namespace {

gpusim::DeviceConfig test_config() {
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 256 << 20;
  cfg.num_sms = 8;
  return cfg;
}

struct SddmmProblem {
  DenseMatrix<half_t> a;
  DenseMatrix<half_t> b;
  Cvs mask;
  Cvs ref;
};

SddmmProblem make_problem(int m, int k, int n, int v, double sparsity,
                          std::uint64_t seed) {
  Rng rng(seed);
  SddmmProblem p{DenseMatrix<half_t>(m, k),
                 DenseMatrix<half_t>(k, n, Layout::kColMajor),
                 make_cvs_mask(m, n, v, sparsity, rng), {}};
  p.a.fill_random_int(rng);
  p.b.fill_random_int(rng);
  p.ref = sddmm_reference(p.a, p.b, p.mask);
  return p;
}

template <class LaunchFn>
void expect_sddmm_matches(const SddmmProblem& p, LaunchFn&& fn) {
  gpusim::Device dev(test_config());
  auto da = to_device(dev, p.a);
  auto db = to_device(dev, p.b);
  auto dmask = to_device(dev, p.mask);
  auto out = dev.alloc<half_t>(p.mask.col_idx.size() *
                               static_cast<std::size_t>(p.mask.v));
  fn(dev, da, db, dmask, out);
  auto got = out.host();
  for (std::size_t i = 0; i < p.ref.values.size(); ++i) {
    ASSERT_EQ(got[i].bits(), p.ref.values[i].bits())
        << "value " << i << " got " << static_cast<float>(got[i]) << " want "
        << static_cast<float>(p.ref.values[i]);
  }
}

class SddmmOctetSweep
    : public ::testing::TestWithParam<
          std::tuple<int, double, InvertedPatternMode>> {};

TEST_P(SddmmOctetSweep, MatchesReference) {
  const auto [v, sparsity, mode] = GetParam();
  SddmmProblem p = make_problem(32, 64, 96, v, sparsity, 3000 + v);
  expect_sddmm_matches(p, [&](auto& dev, auto& da, auto& db, auto& dmask,
                              auto& out) {
    sddmm_octet(dev, da, db, dmask, out, SddmmOctetParams{.mode = mode});
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SddmmOctetSweep,
    ::testing::Combine(
        ::testing::Values(2, 4, 8), ::testing::Values(0.0, 0.5, 0.9),
        ::testing::Values(InvertedPatternMode::kExtraRegisters,
                          InvertedPatternMode::kShuffle,
                          InvertedPatternMode::kArchSwitch)));

TEST(SddmmOctet, ResidueKAndN) {
  // K not a multiple of 64 and rows whose nonzero count is not a
  // multiple of 32 exercise both residue paths.
  SddmmProblem p = make_problem(16, 72, 80, 4, 0.7, 99);
  expect_sddmm_matches(p, [&](auto& dev, auto& da, auto& db, auto& dmask,
                              auto& out) {
    sddmm_octet(dev, da, db, dmask, out);
  });
}

TEST(SddmmOctet, MaskValuesScaleOutputs) {
  SddmmProblem p = make_problem(8, 32, 64, 4, 0.5, 55);
  for (half_t& h : p.mask.values) h = half_t(2.0f);
  p.ref = sddmm_reference(p.a, p.b, p.mask);
  expect_sddmm_matches(p, [&](auto& dev, auto& da, auto& db, auto& dmask,
                              auto& out) {
    sddmm_octet(dev, da, db, dmask, out);
  });
}

TEST(SddmmOctet, ModeCostSignatures) {
  // §7.3.2: mma(arch) removes the operand-switch SHFLs of mma(shfl) and
  // the extra registers of mma(reg).
  SddmmProblem p = make_problem(64, 128, 128, 8, 0.9, 77);
  gpusim::Device dev(test_config());
  auto da = to_device(dev, p.a);
  auto db = to_device(dev, p.b);
  auto dmask = to_device(dev, p.mask);
  auto out = dev.alloc<half_t>(p.mask.col_idx.size() * 8);
  KernelRun reg = sddmm_octet(dev, da, db, dmask, out,
                              {InvertedPatternMode::kExtraRegisters});
  KernelRun shfl =
      sddmm_octet(dev, da, db, dmask, out, {InvertedPatternMode::kShuffle});
  KernelRun arch =
      sddmm_octet(dev, da, db, dmask, out, {InvertedPatternMode::kArchSwitch});

  EXPECT_GT(shfl.stats.op(gpusim::Op::kShfl), arch.stats.op(gpusim::Op::kShfl));
  EXPECT_GT(reg.config.profile.regs_per_thread,
            arch.config.profile.regs_per_thread);
  EXPECT_EQ(reg.stats.op(gpusim::Op::kHmma), arch.stats.op(gpusim::Op::kHmma));
  // And the model must rank arch fastest (the Fig. 19 result).
  gpusim::DeviceConfig hw = gpusim::DeviceConfig::volta_v100();
  EXPECT_LE(arch.cycles(hw), reg.cycles(hw));
  EXPECT_LE(arch.cycles(hw), shfl.cycles(hw));
}

class SddmmFpuSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SddmmFpuSweep, MatchesReference) {
  const auto [v, sparsity] = GetParam();
  SddmmProblem p = make_problem(32, 64, 96, v, sparsity, 4000 + v);
  expect_sddmm_matches(p, [&](auto& dev, auto& da, auto& db, auto& dmask,
                              auto& out) {
    sddmm_fpu_subwarp(dev, da, db, dmask, out);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SddmmFpuSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(0.0, 0.5, 0.9)));

TEST(SddmmFpu, SinglePrecisionMatches) {
  Rng rng(5001);
  const int m = 16, k = 64, n = 64, v = 4;
  DenseMatrix<float> a(m, k), b(k, n, Layout::kColMajor);
  for (auto& x : a.data()) x = static_cast<float>(rng.uniform_int(-2, 2));
  for (auto& x : b.data()) x = static_cast<float>(rng.uniform_int(-2, 2));
  Cvs mask = make_cvs_mask(m, n, v, 0.6, rng);

  gpusim::Device dev(test_config());
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  auto dmask = to_device_f32(dev, mask);
  auto out = dev.alloc<float>(mask.col_idx.size() * static_cast<std::size_t>(v));
  sddmm_fpu_subwarp_f32(dev, da, db, dmask, out);

  auto got = out.host();
  // Reference in fp32.
  std::size_t idx = 0;
  for (int vr = 0; vr < mask.vec_rows(); ++vr) {
    for (std::int32_t i = mask.row_ptr[static_cast<std::size_t>(vr)];
         i < mask.row_ptr[static_cast<std::size_t>(vr) + 1]; ++i) {
      const std::int32_t col = mask.col_idx[static_cast<std::size_t>(i)];
      for (int t = 0; t < v; ++t) {
        float want = 0.0f;
        for (int kk = 0; kk < k; ++kk) {
          want += a.at(vr * v + t, kk) * b.at(kk, col);
        }
        ASSERT_EQ(got[idx], want) << "value " << idx;
        ++idx;
      }
    }
  }
}

TEST(SddmmFpu, RegisterPressureGrowsWithV) {
  SddmmProblem p2 = make_problem(32, 64, 64, 2, 0.5, 1);
  SddmmProblem p8 = make_problem(32, 64, 64, 8, 0.5, 2);
  gpusim::Device dev(test_config());
  auto run = [&](SddmmProblem& p) {
    auto da = to_device(dev, p.a);
    auto db = to_device(dev, p.b);
    auto dmask = to_device(dev, p.mask);
    auto out = dev.alloc<half_t>(p.mask.col_idx.size() *
                                 static_cast<std::size_t>(p.mask.v));
    return sddmm_fpu_subwarp(dev, da, db, dmask, out);
  };
  KernelRun r2 = run(p2), r8 = run(p8);
  EXPECT_GT(r8.config.profile.regs_per_thread,
            r2.config.profile.regs_per_thread);
  gpusim::DeviceConfig hw;
  EXPECT_LT(r8.cost(hw).active_warps_per_sm, r2.cost(hw).active_warps_per_sm);
}

class SddmmWmmaSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SddmmWmmaSweep, MatchesReference) {
  const auto [v, sparsity] = GetParam();
  SddmmProblem p = make_problem(32, 64, 96, v, sparsity, 5000 + v);
  expect_sddmm_matches(p, [&](auto& dev, auto& da, auto& db, auto& dmask,
                              auto& out) {
    sddmm_wmma_warp(dev, da, db, dmask, out);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SddmmWmmaSweep,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(0.0, 0.5, 0.9)));

// The tensor-core kernels' fp32 math on non-integer data, where the
// order of the adds shows in the bits: per 64-wide K stride a fresh sum
// of products in K order, folded into the accumulator, then scaled by
// the mask value and rounded once.
std::vector<std::uint16_t> scalar_fold_bits(const SddmmProblem& p) {
  const Cvs& mask = p.mask;
  const int v = mask.v, k = p.a.cols();
  std::vector<std::uint16_t> bits(mask.values.size());
  for (int vr = 0; vr < mask.vec_rows(); ++vr) {
    for (std::int32_t j = mask.row_ptr[static_cast<std::size_t>(vr)];
         j < mask.row_ptr[static_cast<std::size_t>(vr) + 1]; ++j) {
      const int col = mask.col_idx[static_cast<std::size_t>(j)];
      for (int t = 0; t < v; ++t) {
        float acc = 0.0f;
        for (int k0 = 0; k0 < k; k0 += 64) {
          float sum = 0.0f;
          for (int kk = k0; kk < std::min(k, k0 + 64); ++kk) {
            sum += static_cast<float>(p.a.at(vr * v + t, kk)) *
                   static_cast<float>(p.b.at(kk, col));
          }
          acc += sum;
        }
        const std::size_t i = static_cast<std::size_t>(j) *
                                  static_cast<std::size_t>(v) +
                              static_cast<std::size_t>(t);
        bits[i] = half_t(acc * static_cast<float>(mask.values[i])).bits();
      }
    }
  }
  return bits;
}

TEST(SddmmTensorCore, BitsMatchScalarFoldOnFractionalData) {
  for (int k : {8, 40, 64, 72, 100, 200}) {
    for (int v : {2, 4, 8}) {
      SCOPED_TRACE("K=" + std::to_string(k) + " V=" + std::to_string(v));
      Rng rng(static_cast<std::uint64_t>(9000 + 10 * k + v));
      SddmmProblem p{DenseMatrix<half_t>(16, k),
                     DenseMatrix<half_t>(k, 90, Layout::kColMajor),
                     make_cvs_mask(16, 90, v, 0.4, rng), {}};
      p.a.fill_random(rng, -4.0f, 4.0f);
      p.b.fill_random(rng, -4.0f, 4.0f);
      for (half_t& h : p.mask.values) h = half_t(rng.uniform_float(-2, 2));
      // Rows spanning two 32-vector tiles, some ending mid sub-step.
      bool ragged = false;
      for (std::size_t r = 0; r + 1 < p.mask.row_ptr.size(); ++r) {
        ragged |= (p.mask.row_ptr[r + 1] - p.mask.row_ptr[r]) % 8 != 0;
      }
      ASSERT_TRUE(ragged);
      const std::vector<std::uint16_t> want = scalar_fold_bits(p);

      const auto run = [&](auto&& launch) {
        gpusim::Device dev(test_config());
        auto da = to_device(dev, p.a);
        auto db = to_device(dev, p.b);
        auto dmask = to_device(dev, p.mask);
        auto out = dev.alloc<half_t>(p.mask.values.size());
        launch(dev, da, db, dmask, out);
        std::vector<std::uint16_t> got;
        for (half_t h : out.host()) got.push_back(h.bits());
        return got;
      };
      const std::vector<std::uint16_t> wmma =
          run([](auto& dev, auto& da, auto& db, auto& dmask, auto& out) {
            sddmm_wmma_warp(dev, da, db, dmask, out);
          });
      EXPECT_EQ(wmma, want) << "sddmm_wmma_warp";
      for (InvertedPatternMode mode : {InvertedPatternMode::kExtraRegisters,
                                       InvertedPatternMode::kShuffle,
                                       InvertedPatternMode::kArchSwitch}) {
        const std::vector<std::uint16_t> octet =
            run([&](auto& dev, auto& da, auto& db, auto& dmask, auto& out) {
              sddmm_octet(dev, da, db, dmask, out,
                          SddmmOctetParams{.mode = mode});
            });
        EXPECT_EQ(octet, want) << "sddmm_octet mode " << static_cast<int>(mode);
        // The serving ladder falls back octet -> wmma and byte-compares.
        EXPECT_EQ(octet, wmma) << "sddmm_octet mode " << static_cast<int>(mode);
      }
    }
  }
}

TEST(SddmmCsrFine, HalfAndSingleMatchReference) {
  SddmmProblem p = make_problem(16, 64, 64, 1, 0.8, 6000);
  expect_sddmm_matches(p, [&](auto& dev, auto& da, auto& db, auto& dmask,
                              auto& out) {
    sddmm_csr_fine(dev, da, db, dmask, out);
  });
}

TEST(SddmmOctet, GridMatchesPaperFormula) {
  // §6.4: [M/V] x [N/32] CTAs.
  SddmmProblem p = make_problem(64, 64, 128, 4, 0.9, 7000);
  gpusim::Device dev(test_config());
  auto da = to_device(dev, p.a);
  auto db = to_device(dev, p.b);
  auto dmask = to_device(dev, p.mask);
  auto out = dev.alloc<half_t>(p.mask.col_idx.size() * 4);
  KernelRun run = sddmm_octet(dev, da, db, dmask, out);
  EXPECT_EQ(run.config.grid, (64 / 4) * (128 / 32));
}

}  // namespace
}  // namespace vsparse::kernels

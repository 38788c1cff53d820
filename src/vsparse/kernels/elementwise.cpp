#include "vsparse/kernels/elementwise.hpp"

#include <cmath>

#include "vsparse/common/math.hpp"
#include "vsparse/fp16/vec.hpp"

namespace vsparse::kernels {

namespace {

using gpusim::AddrLanes;
using gpusim::Cta;
using gpusim::Lanes;
using gpusim::Op;
using gpusim::Warp;

constexpr int kChunk = 256;  // halves per warp pass (32 lanes x 8)

gpusim::LaunchConfig streaming_cfg(const char* name, std::int64_t elems) {
  gpusim::LaunchConfig cfg;
  // Each CTA (one warp) handles 8 chunks.
  cfg.grid = std::max<int>(
      1, static_cast<int>(ceil_div<std::int64_t>(elems, kChunk * 8)));
  cfg.cta_threads = 32;
  cfg.profile = {.name = name,
                 .regs_per_thread = 24,
                 .static_instrs = 128,
                 .icache_pressure = 1.0,
                 .ilp_factor = 0.7};
  return cfg;
}

/// Streams `elems` halves: per chunk, `body(base, frag)` transforms the
/// 8 halves each lane holds; results are stored back.
template <class BodyFn>
gpusim::KernelStats stream_transform(gpusim::Device& dev,
                                     const gpusim::LaunchConfig& cfg,
                                     const gpusim::Buffer<half_t>& buf,
                                     std::int64_t elems, BodyFn&& body) {
  return gpusim::launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    for (int pass = 0; pass < 8; ++pass) {
      const std::int64_t base =
          (static_cast<std::int64_t>(cta.cta_id()) * 8 + pass) * kChunk;
      if (base >= elems) break;
      // Lanes whose full 8-half chunk lies inside the buffer.
      const std::int64_t lanes =
          std::min<std::int64_t>(32, (elems - base) / 8);
      const std::uint32_t mask =
          lanes >= 32 ? gpusim::kFullMask : (1u << lanes) - 1u;
      const std::uint64_t addr = buf.addr(static_cast<std::size_t>(base));
      Lanes<half8> frag{};
      w.ldg_span(addr, 16, frag, mask);
      body(w, base, frag, mask);
      w.stg_span(addr, 16, frag, mask);
    }
  });
}

float gelu_tanh(float x) {
  constexpr float kSqrt2OverPi = 0.7978845608f;
  return 0.5f * x *
         (1.0f + std::tanh(kSqrt2OverPi * (x + 0.044715f * x * x * x)));
}

}  // namespace

KernelRun bias_add(gpusim::Device& dev, DenseDevice<half_t>& x,
                   const gpusim::Buffer<half_t>& bias) {
  VSPARSE_CHECK(x.layout == Layout::kRowMajor);
  VSPARSE_CHECK(x.cols % 8 == 0);
  VSPARSE_CHECK(bias.size() == static_cast<std::size_t>(x.cols));
  const std::int64_t elems = static_cast<std::int64_t>(x.rows) * x.cols;
  gpusim::LaunchConfig cfg = streaming_cfg("bias_add", elems);
  auto bias_host = bias.host();
  const int cols = x.cols;
  gpusim::KernelStats stats =
      stream_transform(dev, cfg, x.buf, elems,
                       [&](Warp& w, std::int64_t base, Lanes<half8>& frag,
                           std::uint32_t mask) {
                         // One extra LDG for the bias slice + 8 HADD:
                         // a gather wrapping at row ends (one-lane
                         // segments).
                         AddrLanes baddr{};
                         Lanes<half8> bfrag{};
                         for (int lane = 0; lane < 32; ++lane) {
                           const std::int64_t idx = base + lane * 8;
                           baddr[static_cast<std::size_t>(lane)] = bias.addr(
                               static_cast<std::size_t>(idx % cols));
                         }
                         w.ldg_span(baddr.data(), 32, 1, 0, bfrag, mask);
                         w.count(Op::kHfma, 8);
                         for (int lane = 0; lane < 32; ++lane) {
                           if (!(mask & (1u << lane))) continue;
                           const std::int64_t idx = base + lane * 8;
                           for (int e = 0; e < 8; ++e) {
                             frag[static_cast<std::size_t>(lane)][e] = hadd(
                                 frag[static_cast<std::size_t>(lane)][e],
                                 bias_host[static_cast<std::size_t>(
                                     (idx + e) % cols)]);
                           }
                         }
                       });
  return {stats, cfg};
}

KernelRun residual_add(gpusim::Device& dev, DenseDevice<half_t>& x,
                       const DenseDevice<half_t>& y) {
  VSPARSE_CHECK(x.rows == y.rows && x.cols == y.cols);
  VSPARSE_CHECK(x.layout == y.layout);
  const std::int64_t elems = static_cast<std::int64_t>(x.rows) * x.cols;
  VSPARSE_CHECK(elems % 8 == 0);
  gpusim::LaunchConfig cfg = streaming_cfg("residual_add", elems);
  auto y_host = y.buf.host();
  gpusim::KernelStats stats = stream_transform(
      dev, cfg, x.buf, elems,
      [&](Warp& w, std::int64_t base, Lanes<half8>& frag,
          std::uint32_t mask) {
        Lanes<half8> yfrag{};
        w.ldg_span(y.buf.addr(static_cast<std::size_t>(base)), 16, yfrag,
                   mask);
        w.count(Op::kHfma, 8);
        for (int lane = 0; lane < 32; ++lane) {
          if (!(mask & (1u << lane))) continue;
          const std::int64_t idx = base + lane * 8;
          for (int e = 0; e < 8; ++e) {
            frag[static_cast<std::size_t>(lane)][e] =
                hadd(frag[static_cast<std::size_t>(lane)][e],
                     y_host[static_cast<std::size_t>(idx + e)]);
          }
        }
      });
  return {stats, cfg};
}

KernelRun gelu(gpusim::Device& dev, DenseDevice<half_t>& x) {
  const std::int64_t elems = static_cast<std::int64_t>(x.rows) * x.cols;
  VSPARSE_CHECK(elems % 8 == 0);
  gpusim::LaunchConfig cfg = streaming_cfg("gelu", elems);
  gpusim::KernelStats stats = stream_transform(
      dev, cfg, x.buf, elems,
      [&](Warp& w, std::int64_t, Lanes<half8>& frag, std::uint32_t mask) {
        // tanh path: ~4 FFMA + 1 MUFU per element per lane.
        w.count(Op::kFfma, 32);
        w.count(Op::kMisc, 8);
        for (int lane = 0; lane < 32; ++lane) {
          if (!(mask & (1u << lane))) continue;
          for (int e = 0; e < 8; ++e) {
            frag[static_cast<std::size_t>(lane)][e] = half_t(gelu_tanh(
                static_cast<float>(frag[static_cast<std::size_t>(lane)][e])));
          }
        }
      });
  return {stats, cfg};
}

KernelRun layer_norm(gpusim::Device& dev, DenseDevice<half_t>& x,
                     const gpusim::Buffer<half_t>& gamma,
                     const gpusim::Buffer<half_t>& beta, float eps) {
  VSPARSE_CHECK(x.layout == Layout::kRowMajor);
  VSPARSE_CHECK(x.cols % 8 == 0);
  VSPARSE_CHECK(gamma.size() == static_cast<std::size_t>(x.cols));
  VSPARSE_CHECK(beta.size() == static_cast<std::size_t>(x.cols));
  const int rows = x.rows, cols = x.cols;

  gpusim::LaunchConfig cfg;
  cfg.grid = std::max(1, rows);
  cfg.cta_threads = 32;
  cfg.profile = {.name = "layer_norm",
                 .regs_per_thread = 32,
                 .static_instrs = 220,
                 .icache_pressure = 1.0,
                 .ilp_factor = 0.8};

  auto x_host = x.buf.host();
  auto g_host = gamma.host();
  auto b_host = beta.host();

  gpusim::KernelStats stats = gpusim::launch(dev, cfg, [&](Cta& cta) {
    const int r = cta.cta_id();
    Warp w = cta.warp(0);
    half_t* row = &x_host[static_cast<std::size_t>(r) *
                          static_cast<std::size_t>(x.ld)];

    const auto pass = [&](bool store_pass, auto&& body) {
      for (int c0 = 0; c0 < cols; c0 += kChunk) {
        const int lanes = std::min(32, ceil_div(cols - c0, 8));
        const std::uint32_t mask =
            lanes >= 32 ? gpusim::kFullMask : (1u << lanes) - 1u;
        const std::uint64_t addr = x.addr(r, c0);
        Lanes<half8> frag{};
        w.ldg_span(addr, 16, frag, mask);
        body(c0, std::min(kChunk, cols - c0));
        if (store_pass) {
          for (int lane = 0; lane < 32; ++lane) {
            if (!(mask & (1u << lane))) continue;
            for (int e = 0; e < 8; ++e) {
              const int cc = c0 + lane * 8 + e;
              if (cc < cols) frag[static_cast<std::size_t>(lane)][e] = row[cc];
            }
          }
          w.count(Op::kCvt, 8);
          w.stg_span(addr, 16, frag, mask);
        }
      }
    };

    // Pass 1: mean and variance (Welford-free two-accumulator form).
    float sum = 0.0f, sq = 0.0f;
    pass(false, [&](int c0, int cc) {
      w.count(Op::kFfma, 16);
      for (int c = c0; c < c0 + cc; ++c) {
        const float v = static_cast<float>(row[c]);
        sum += v;
        sq += v * v;
      }
    });
    w.count(Op::kShfl, 10);
    w.count(Op::kFfma, 10);
    const float mean = sum / static_cast<float>(cols);
    const float var = std::max(0.0f, sq / static_cast<float>(cols) -
                                         mean * mean);
    const float inv_std = 1.0f / std::sqrt(var + eps);

    // Pass 2: normalize + affine (gamma LDG amortized; modeled as one
    // extra load per chunk).
    pass(true, [&](int c0, int cc) {
      w.count(Op::kLdg, 2);
      w.count(Op::kFfma, 16);
      for (int c = c0; c < c0 + cc; ++c) {
        const float v = static_cast<float>(row[c]);
        const float g = static_cast<float>(g_host[static_cast<std::size_t>(c)]);
        const float bb = static_cast<float>(b_host[static_cast<std::size_t>(c)]);
        row[c] = half_t((v - mean) * inv_std * g + bb);
      }
    });
  });
  return {stats, cfg};
}

}  // namespace vsparse::kernels

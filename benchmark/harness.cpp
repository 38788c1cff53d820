// Workload executable of the repository benchmark (README.md beside
// this file).  run.py builds it, runs it once per measurement and turns
// the raw JSON it prints into the benchmark's metrics.
//
//   vsparse_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--spans FILE]
//
// This program generates every input from --seed and hands only the
// generated matrices (kernel workloads) or LoadConfigs (serve_fleet) to
// the library.  Each workload has three phases:
//
//   setup   format generation + device upload, repeated kSetupReps
//           times; the last repetition's devices are measured
//   timed   whole passes over a fixed launch (or trace) list: one,
//           then more while they fit in --seconds; every pass must
//           reproduce pass 0's modeled numbers bit for bit
//   check   a sample of launches (traces) runs once more and must
//           reproduce them too; every output of the last pass is
//           compared against formats/reference; on serve_fleet the
//           same sample runs again with kernel chaos off and verify on,
//           where every served output must match a reference device
//
// With --trace 1 the timed budget is split between untraced and traced
// passes (the ratio is the tracing overhead), spans around each call
// into the library are kept in memory and written to --spans at exit,
// and baseline_kernels adds one threads=1 pass for the engine's
// thread-scaling ratio.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "vsparse/bench/runner.hpp"
#include "vsparse/bench/scale.hpp"
#include "vsparse/bench/suite.hpp"
#include "vsparse/formats/blocked_ell.hpp"
#include "vsparse/formats/cvs.hpp"
#include "vsparse/formats/dense.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/formats/reference.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/kernels/dense/gemm.hpp"
#include "vsparse/kernels/sddmm/sddmm_fpu.hpp"
#include "vsparse/kernels/sddmm/sddmm_octet.hpp"
#include "vsparse/kernels/spmm/spmm_blocked_ell.hpp"
#include "vsparse/kernels/spmm/spmm_fpu.hpp"
#include "vsparse/kernels/spmm/spmm_octet.hpp"
#include "vsparse/serve/scheduler.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using vsparse::half_t;
namespace gs = vsparse::gpusim;
namespace kn = vsparse::kernels;

constexpr int kSetupReps = 5;
// After the timed phase every kRepeatStride-th launch (or trace) runs
// once more and must reproduce its modeled numbers.
constexpr std::size_t kRepeatStride = 8;
// serve_fleet: a pass is kTraces independent traces of kRequests
// requests on a 4-device fleet.  Many short traces instead of one long
// one keep the pooled latency percentiles and goodput steady across
// seeds: each trace draws its own chaos and device storms.
constexpr int kTraces = 160;
constexpr int kRequests = 100;
constexpr int kWarmupTraces = 4;
// The mean gap sits at the knee of the fleet's load curve.  With both
// chaos kinds on, devices are busy about 65% of the time here against a
// ceiling near 71% (device storms take the rest); goodput is within a
// few percent of its plateau, while 4% of requests are shed, against
// 11% at 4500 ticks and 21% at 3000.  README.md has the measurements.
constexpr std::uint64_t kMeanGapTicks = 6000;
constexpr int kFleetDevices = 4;

const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// ---- spans ---------------------------------------------------------------

/// In-memory span recorder; inert unless enabled.  Spans nest by call
/// order (this program is single-threaded), so the parent of a new span is
/// the innermost open one.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    long long id = -1;
  };

  void enable(bool on) { on_ = on; }

  int open(const std::string& name, long long id) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_s(), 0.0, parent, id});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int span) {
    if (span < 0) return;
    spans_[static_cast<std::size_t>(span)].end = now_s();
    stack_.pop_back();
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                    "\"parent\":%d,\"id\":%lld}\n",
                    s.name.c_str(), s.start, s.end, s.parent, s.id);
      out << line;
    }
    return static_cast<bool>(out);
  }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer g_tracer;

/// Closes its span on scope exit, including exceptional exit.
class SpanScope {
 public:
  SpanScope(const std::string& name, long long id)
      : span_(g_tracer.open(name, id)) {}
  ~SpanScope() { g_tracer.close(span_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int span_;
};

/// Runs `f` inside a span and returns its host seconds.
template <class F>
double timed(const std::string& name, long long id, F&& f) {
  SpanScope scope(name, id);
  const auto t0 = Clock::now();
  f();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- small helpers -------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <class T>
std::string arr(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += num(values[i]);
  }
  return out + "]";
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
};

/// Digest of the modeled numbers of one launch: every SM-local counter
/// (all but the L2 hit/miss split and DRAM bytes) plus model cycles.
std::uint64_t launch_digest(const gs::KernelStats& s, double cycles) {
  Fnv f;
  for (std::uint64_t op : s.ops) f.u64(op);
  for (std::uint64_t v :
       {s.ldg16, s.ldg32, s.ldg64, s.ldg128, s.global_load_requests,
        s.global_load_sectors, s.global_store_requests,
        s.global_store_sectors, s.l1_sector_hits, s.l1_sector_misses,
        s.smem_load_requests, s.smem_store_requests, s.smem_load_bytes,
        s.smem_store_bytes, s.smem_wavefronts, s.ctas_launched,
        s.warps_launched, s.faults_injected, s.faults_masked,
        s.faults_detected}) {
    f.u64(v);
  }
  f.f64(cycles);
  return f.h;
}

std::uint64_t peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

/// fp16 tolerance: the kernels and the fp32-accumulating reference each
/// round once to half; a few half ulps of the result's magnitude plus a
/// small absolute floor for sums that cancel towards zero.
bool close_fp16(std::span<const half_t> got, std::span<const half_t> want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float g = static_cast<float>(got[i]);
    const float w = static_cast<float>(want[i]);
    if (!std::isfinite(g) || std::fabs(g - w) > 0.02f + 0.01f * std::fabs(w)) {
      return false;
    }
  }
  return true;
}

/// Error text made safe to embed in a JSON string.
std::string sanitize(std::string s) {
  for (char& c : s) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) c = ' ';
  }
  return s;
}

std::uint64_t case_seed(std::uint64_t seed, std::uint64_t index) {
  return seed * 0x9e3779b97f4a7c15ull + index;
}

/// Whole passes: always one, then another while it is expected to end
/// within the budget, judging by the mean pass so far.
bool another_pass(const std::vector<double>& done, double elapsed_s,
                  double budget_s) {
  if (done.empty()) return true;
  return elapsed_s + elapsed_s / static_cast<double>(done.size()) <= budget_s;
}

// ---- kernel workloads ----------------------------------------------------

/// One simulated device and the host matrices its launches read.
struct Problem {
  std::unique_ptr<gs::Device> dev;
  std::deque<vsparse::Cvs> cvs;
  std::deque<vsparse::BlockedEll> ell;
  std::deque<vsparse::DenseMatrix<half_t>> dense;
};

/// (M, K, N) of the dense hgemm a launch is normalised to; m == 0 for
/// none.
struct GemmShape {
  int m = 0, k = 0, n = 0;
};

struct Launch {
  const char* kernel = "";
  gs::Device* dev = nullptr;
  std::function<kn::KernelRun()> run;
  std::function<bool()> check;  ///< last output vs formats/reference
  GemmShape normaliser;
  std::function<void()> prepare;  ///< re-upload before each launch, if set
};

struct KernelSetup {
  std::vector<std::unique_ptr<Problem>> problems;
  std::vector<Launch> launches;  ///< the timed list
  double generate_s = 0.0;
  double upload_s = 0.0;
  std::uint64_t nnz = 0;
};

/// Setup bookkeeping shared by the problem constructors.
class InputMaker {
 public:
  InputMaker(KernelSetup& out, std::uint64_t seed, int threads)
      : out_(out), seed_(seed), threads_(threads) {}

  vsparse::Rng problem_rng() {
    return vsparse::Rng(case_seed(seed_, out_.problems.size()));
  }

  vsparse::DenseMatrix<half_t>& dense(Problem& p, int rows, int cols,
                                      vsparse::Layout layout,
                                      vsparse::Rng& rng) {
    p.dense.emplace_back(rows, cols, layout);
    vsparse::DenseMatrix<half_t>& m = p.dense.back();
    out_.generate_s += timed("formats.fill_random", -1,
                             [&] { m.fill_random(rng); });
    return m;
  }

  vsparse::Cvs& cvs(Problem& p, std::function<vsparse::Cvs()> make,
                    const char* span) {
    out_.generate_s +=
        timed(span, -1, [&] { p.cvs.push_back(make()); });
    out_.nnz += static_cast<std::uint64_t>(p.cvs.back().nnz());
    return p.cvs.back();
  }

  const vsparse::BlockedEll& ell(Problem& p,
                                 std::function<vsparse::BlockedEll()> make) {
    out_.generate_s += timed("formats.make_blocked_ell", -1,
                             [&] { p.ell.push_back(make()); });
    out_.nnz += p.ell.back().values.size();
    return p.ell.back();
  }

  /// Device sized to the problem's host data plus `extra_bytes`.
  void create_device(Problem& p, std::size_t extra_bytes) {
    std::size_t bytes = extra_bytes + (std::size_t{1} << 20);
    for (const auto& c : p.cvs) {
      bytes += c.values.size() * sizeof(half_t) +
               (c.row_ptr.size() + c.col_idx.size()) * 4 + 1024;
    }
    for (const auto& e : p.ell) {
      bytes += e.values.size() * sizeof(half_t) + e.col_idx.size() * 4 + 1024;
    }
    for (const auto& d : p.dense) {
      bytes += static_cast<std::size_t>(d.rows()) *
                   static_cast<std::size_t>(d.cols()) * sizeof(half_t) +
               512;
    }
    timed("gpusim.device.create", -1, [&] {
      gs::DeviceConfig cfg = gs::DeviceConfig::volta_v100();
      cfg.dram_capacity = bytes;
      p.dev = std::make_unique<gs::Device>(cfg);
      p.dev->set_sim_options(gs::SimOptions{.threads = threads_});
    });
  }

  template <class T>
  auto upload(Problem& p, const T& host) {
    decltype(vsparse::to_device(*p.dev, host)) d;
    out_.upload_s +=
        timed("formats.to_device", -1, [&] { d = vsparse::to_device(*p.dev, host); });
    return d;
  }

  void add_upload_s(double s) { out_.upload_s += s; }

  gs::Buffer<half_t> output(Problem& p, std::size_t count) {
    gs::Buffer<half_t> b;
    timed("gpusim.device.alloc", -1,
          [&] { b = p.dev->alloc<half_t>(count, "out"); });
    return b;
  }

 private:
  KernelSetup& out_;
  std::uint64_t seed_;
  int threads_;
};

/// A timed hgemm_tcu launch C = A * B (both row-major) on a device of
/// its own.  hgemm takes its split-K workspace from the device's bump
/// arena on every launch, so each launch starts from a reset device with
/// freshly uploaded operands; the addresses, and with them the modeled
/// numbers, are then the same on every pass.
void add_hgemm(InputMaker& bld, KernelSetup& out,
               const vsparse::DenseMatrix<half_t>& a_host,
               const vsparse::DenseMatrix<half_t>& b_host) {
  struct Operands {
    vsparse::DenseDevice<half_t> a, b, c;
  };
  auto p = std::make_unique<Problem>();
  const int m = a_host.rows(), n = b_host.cols();
  const std::size_t c_elems = static_cast<std::size_t>(m) * n;
  const std::size_t operand_bytes =
      (static_cast<std::size_t>(a_host.rows()) * a_host.cols() +
       static_cast<std::size_t>(b_host.rows()) * b_host.cols()) *
      sizeof(half_t);
  bld.create_device(*p, operand_bytes +
                            c_elems * (sizeof(half_t) + sizeof(float)) + 4096);
  gs::Device* dev = p->dev.get();
  const auto* a_p = &a_host;
  const auto* b_p = &b_host;
  auto ops = std::make_shared<Operands>();
  const auto prepare = [dev, a_p, b_p, ops, m, n, c_elems] {
    dev->reset();
    ops->a = vsparse::to_device(*dev, *a_p);
    ops->b = vsparse::to_device(*dev, *b_p);
    ops->c = {dev->alloc<half_t>(c_elems, "out"), m, n, n,
              vsparse::Layout::kRowMajor};
  };
  bld.add_upload_s(timed("formats.to_device", -1, prepare));
  out.launches.push_back(
      {"hgemm_tcu", dev,
       [dev, ops] { return kn::hgemm_tcu(*dev, ops->a, ops->b, ops->c); },
       [a_p, b_p, ops] {
         const auto want = vsparse::gemm_reference(*a_p, *b_p);
         return close_fp16(ops->c.buf.host(), want.data());
       },
       {}, prepare});
  out.problems.push_back(std::move(p));
}

/// SpMM problem (shape, n): B is shared by the sparse A of every
/// (sparsity, V) on the device.  Every launch is normalised to the hgemm
/// of (M, K, N), as in Fig. 17.
void add_spmm_problem(InputMaker& bld, KernelSetup& out, vsparse::bench::Shape shape,
                      int n, const std::vector<int>& vs, bool octet,
                      bool baselines) {
  using vsparse::Layout;
  auto p = std::make_unique<Problem>();
  vsparse::Rng rng = bld.problem_rng();
  const int m = shape.m, k = shape.k;
  auto& b_host = bld.dense(*p, k, n, Layout::kRowMajor, rng);
  if (octet) add_hgemm(bld, out, bld.dense(*p, m, k, Layout::kRowMajor, rng), b_host);
  struct Sparse {
    const vsparse::Cvs* cvs;
    const vsparse::BlockedEll* ell;
  };
  std::vector<Sparse> sparse;
  for (double sparsity : vsparse::bench::sparsity_grid()) {
    for (int v : vs) {
      const vsparse::Cvs& a = bld.cvs(
          *p, [&] { return vsparse::make_cvs(m, k, v, sparsity, rng, 0.25); },
          "formats.make_cvs");
      const vsparse::BlockedEll* e = nullptr;
      if (baselines && v > 1) {
        e = &bld.ell(*p, [&] {
          return vsparse::make_blocked_ell(m, k, v, sparsity, rng);
        });
      }
      sparse.push_back({&a, e});
    }
  }
  const std::size_t c_elems = static_cast<std::size_t>(m) * n;
  std::size_t launches = 0;
  for (const Sparse& s : sparse) {
    launches += (octet && s.cvs->v > 1) + (baselines ? 1 : 0) + (s.ell ? 1 : 0);
  }
  bld.create_device(*p, launches * (c_elems * sizeof(half_t) + 512));
  gs::Device* dev = p->dev.get();

  const auto b = bld.upload(*p, b_host);
  const auto make_c = [&] {
    return vsparse::DenseDevice<half_t>{bld.output(*p, c_elems), m, n, n,
                                        Layout::kRowMajor};
  };
  const auto check_c = [](vsparse::DenseDevice<half_t> c,
                          std::function<vsparse::DenseMatrix<half_t>()> ref) {
    return [c, ref] {
      const vsparse::DenseMatrix<half_t> want = ref();
      return close_fp16(c.buf.host(), want.data());
    };
  };

  const GemmShape normaliser{m, k, n};
  const vsparse::DenseMatrix<half_t>* b_p = &b_host;

  for (const Sparse& s : sparse) {
    const vsparse::Cvs* a_host = s.cvs;
    const auto a = bld.upload(*p, *a_host);
    const auto spmm_ref = [=] { return vsparse::spmm_reference(*a_host, *b_p); };
    if (octet && a_host->v > 1) {
      auto c = make_c();
      out.launches.push_back(
          {"spmm_octet", dev,
           [dev, a, b, c]() mutable { return kn::spmm_octet(*dev, a, b, c); },
           check_c(c, spmm_ref), normaliser});
    }
    if (baselines) {
      auto c = make_c();
      out.launches.push_back(
          {"spmm_fpu_subwarp", dev,
           [dev, a, b, c]() mutable {
             return kn::spmm_fpu_subwarp(*dev, a, b, c);
           },
           check_c(c, spmm_ref), normaliser});
    }
    if (s.ell != nullptr) {
      const vsparse::BlockedEll* ell_host = s.ell;
      const auto e = bld.upload(*p, *ell_host);
      auto c = make_c();
      // The Blocked-ELL reference goes through the equivalent CVS
      // encoding (a stored b x b block is b column vectors of length b).
      const auto ell_ref = [=] {
        return vsparse::spmm_reference(
            vsparse::Cvs::from_dense(ell_host->to_dense(), ell_host->block),
            *b_p);
      };
      out.launches.push_back(
          {"spmm_blocked_ell", dev,
           [dev, e, b, c]() mutable {
             return kn::spmm_blocked_ell(*dev, e, b, c);
           },
           check_c(c, ell_ref), normaliser});
    }
  }
  out.problems.push_back(std::move(p));
}

/// SDDMM problem (shape, kdim): A (m x kdim, row-major) and B
/// (kdim x n, column-major) shared by every mask on the device.  Every
/// launch is normalised to the hgemm of (M, kdim, N), as in Fig. 19; on
/// octet_kernels the timed hgemm multiplies the same two operands
/// densely, with B copied to row-major like the normaliser's.
void add_sddmm_problem(InputMaker& bld, KernelSetup& out,
                       vsparse::bench::Shape shape, int kdim,
                       const std::vector<int>& vs, bool octet, bool baselines) {
  using vsparse::Layout;
  auto p = std::make_unique<Problem>();
  vsparse::Rng rng = bld.problem_rng();
  const int m = shape.m, n = shape.k;
  auto& a_host = bld.dense(*p, m, kdim, Layout::kRowMajor, rng);
  auto& b_host = bld.dense(*p, kdim, n, Layout::kColMajor, rng);
  std::vector<const vsparse::Cvs*> masks;
  for (double sparsity : vsparse::bench::sparsity_grid()) {
    for (int v : vs) {
      masks.push_back(&bld.cvs(
          *p,
          [&] { return vsparse::make_cvs_mask(m, n, v, sparsity, rng, 0.25); },
          "formats.make_cvs_mask"));
    }
  }
  std::size_t out_bytes = 0;
  for (const vsparse::Cvs* mask : masks) {
    out_bytes += (mask->values.size() * sizeof(half_t) + 512) *
                 static_cast<std::size_t>((octet && mask->v > 1) + baselines);
  }
  bld.create_device(*p, out_bytes);
  gs::Device* dev = p->dev.get();

  const auto a = bld.upload(*p, a_host);
  const auto b = bld.upload(*p, b_host);
  const vsparse::DenseMatrix<half_t>* a_p = &a_host;
  const vsparse::DenseMatrix<half_t>* b_p = &b_host;
  if (octet) {
    auto& b_rows = p->dense.emplace_back(kdim, n, Layout::kRowMajor);
    for (int r = 0; r < kdim; ++r) {
      for (int c = 0; c < n; ++c) b_rows.at(r, c) = b_host.at(r, c);
    }
    add_hgemm(bld, out, a_host, b_rows);
  }
  const GemmShape normaliser{m, kdim, n};

  for (const vsparse::Cvs* mask_host : masks) {
    const auto mask = bld.upload(*p, *mask_host);
    const auto check_out = [=](gs::Buffer<half_t> o) {
      return [=] {
        const vsparse::Cvs want =
            vsparse::sddmm_reference(*a_p, *b_p, *mask_host);
        return close_fp16(o.host(), want.values);
      };
    };
    if (octet && mask_host->v > 1) {
      auto o = bld.output(*p, mask_host->values.size());
      out.launches.push_back(
          {"sddmm_octet", dev,
           [dev, a, b, mask, o]() mutable {
             return kn::sddmm_octet(*dev, a, b, mask, o);
           },
           check_out(o), normaliser});
    }
    if (baselines) {
      auto o = bld.output(*p, mask_host->values.size());
      out.launches.push_back(
          {"sddmm_fpu_subwarp", dev,
           [dev, a, b, mask, o]() mutable {
             return kn::sddmm_fpu_subwarp(*dev, a, b, mask, o);
           },
           check_out(o), normaliser});
    }
  }
  out.problems.push_back(std::move(p));
}

/// The whole input set of a kernel workload: the small-scale suite
/// shapes x {64,128,256} (N for SpMM, K for SDDMM) x the sparsity grid
/// x V.
std::unique_ptr<KernelSetup> build_kernel_setup(bool octet, std::uint64_t seed,
                                                int threads, int rep) {
  auto out = std::make_unique<KernelSetup>();
  SpanScope scope("bench.setup", rep);
  InputMaker bld(*out, seed, threads);
  const std::vector<int> vs = octet ? std::vector<int>{2, 4, 8}
                                    : std::vector<int>{1, 2, 4, 8};
  const auto shapes = vsparse::bench::suite_shapes(vsparse::bench::Scale::kSmall);
  for (const auto& shape : shapes) {
    for (int n : {64, 128, 256}) {
      add_spmm_problem(bld, *out, shape, n, vs, octet, !octet);
    }
  }
  for (const auto& shape : shapes) {
    for (int kdim : {64, 128, 256}) {
      add_sddmm_problem(bld, *out, shape, kdim, vs, octet, !octet);
    }
  }
  return out;
}

struct KernelAgg {
  std::uint64_t calls = 0;
  std::uint64_t ctas = 0, warp_inst = 0;
  double model_cycles = 0.0;
};

/// One timed phase: whole passes until `budget_s` is spent.
struct PhaseResult {
  std::vector<double> pass_wall_s;
  std::vector<double> launch_ms;  ///< every launch of every pass
  std::map<std::string, double> kernel_host_s;
  double costmodel_s = 0.0;
  std::uint64_t costmodel_calls = 0;
  std::uint64_t ctas = 0;
};

class KernelWorkload {
 public:
  explicit KernelWorkload(KernelSetup& setup)
      : setup_(setup),
        first_(setup.launches.size()),
        cycles_(setup.launches.size(), 0.0),
        digests_(setup.launches.size(), 0),
        seen_(setup.launches.size(), false),
        failed_(setup.launches.size(), false) {}

  /// Runs passes; pass 0 of the first call records the reference
  /// modeled numbers, every later pass must match them.
  PhaseResult run_phase(double budget_s) {
    PhaseResult r;
    const double start = now_s();
    while (another_pass(r.pass_wall_s, now_s() - start, budget_s)) {
      SpanScope pass_span("bench.pass", passes_);
      const double t0 = now_s();
      for (std::size_t i = 0; i < setup_.launches.size(); ++i) {
        run_launch(i, r);
      }
      r.pass_wall_s.push_back(now_s() - t0);
      ++passes_;
    }
    return r;
  }

  /// Re-runs a sample of the launches, which must reproduce the
  /// modeled numbers recorded for them.
  void repeat_sample() {
    PhaseResult ignored;
    for (std::size_t i = 0; i < setup_.launches.size(); i += kRepeatStride) {
      run_launch(i, ignored);
    }
  }

  void set_threads(int threads) {
    for (Launch& l : setup_.launches) {
      l.dev->set_sim_options(gs::SimOptions{.threads = threads});
    }
  }

  /// Reference check of the last outputs, then each launch's speedup
  /// over its dense hgemm, taken from the figures' DenseBaseline (a
  /// serial hgemm on zero-filled row-major operands).
  void check_and_normalise() {
    for (std::size_t i = 0; i < setup_.launches.size(); ++i) {
      bool ok = false;
      try {
        ok = !failed_[i] && setup_.launches[i].check();
      } catch (const std::exception& e) {
        errors_.push_back(std::string(setup_.launches[i].kernel) + ": " + e.what());
      }
      if (!ok) failed_[i] = true;
    }
    vsparse::bench::DenseBaseline dense(gs::DeviceConfig::volta_v100(), {},
                                        gs::SimOptions{.threads = 1});
    speedups_.clear();
    for (std::size_t i = 0; i < setup_.launches.size(); ++i) {
      const GemmShape& g = setup_.launches[i].normaliser;
      if (g.m > 0 && cycles_[i] > 0.0) {
        speedups_.push_back(dense.hgemm_cycles(g.m, g.k, g.n) / cycles_[i]);
      }
    }
  }

  std::uint64_t attempted() const { return setup_.launches.size(); }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (bool f : failed_) n += f ? 1 : 0;
    return n;
  }

  std::string json() const {
    std::ostringstream os;
    Fnv digest;
    gs::KernelStats total;
    for (std::size_t i = 0; i < first_.size(); ++i) {
      digest.u64(digests_[i]);
      total += first_[i];
    }
    os << "\"digest\":\"" << hex(digest.h) << "\""
       << ",\"launch_cycles\":" << arr(cycles_)
       << ",\"speedups\":" << arr(speedups_) << ",\"kernels\":{";
    bool first = true;
    for (const auto& [name, k] : per_kernel_) {
      os << (first ? "" : ",") << "\"" << name << "\":{\"calls\":" << k.calls
         << ",\"ctas\":" << k.ctas << ",\"warp_inst\":" << k.warp_inst
         << ",\"model_cycles\":" << num(k.model_cycles) << "}";
      first = false;
    }
    using gs::Op;
    os << "},\"counters\":{"
       << "\"hmma\":" << total.op(Op::kHmma)
       << ",\"hfma\":" << total.op(Op::kHfma)
       << ",\"ffma\":" << total.op(Op::kFfma)
       << ",\"imad\":" << total.op(Op::kImad)
       << ",\"ldg_requests\":" << total.global_load_requests
       << ",\"stg_requests\":" << total.global_store_requests
       << ",\"lds_requests\":" << total.smem_load_requests
       << ",\"sts_requests\":" << total.smem_store_requests
       << ",\"smem_wavefronts\":" << total.smem_wavefronts
       << ",\"l1_hits\":" << total.l1_sector_hits
       << ",\"l1_misses\":" << total.l1_sector_misses
       << ",\"l2_hits\":" << total.l2_sector_hits
       << ",\"l2_misses\":" << total.l2_sector_misses
       << ",\"dram_bytes\":" << total.dram_read_bytes + total.dram_write_bytes
       << "},\"errors\":[";
    for (std::size_t i = 0; i < errors_.size() && i < 8; ++i) {
      os << (i ? "," : "") << "\"" << sanitize(errors_[i]) << "\"";
    }
    os << "]";
    return os.str();
  }

 private:
  void run_launch(std::size_t i, PhaseResult& r) {
    Launch& l = setup_.launches[i];
    SpanScope launch_span("bench.launch", static_cast<long long>(i));
    try {
      if (l.prepare) {
        timed("formats.to_device", static_cast<long long>(i), l.prepare);
      }
      timed("gpusim.cache.flush_all_caches", static_cast<long long>(i),
            [&] { l.dev->flush_all_caches(); });
      kn::KernelRun run;
      const double host = timed(std::string("kernels.") + l.kernel,
                                static_cast<long long>(i),
                                [&] { run = l.run(); });
      double cycles = 0.0;
      r.costmodel_s += timed("gpusim.costmodel.cycles", static_cast<long long>(i),
                             [&] { cycles = run.cycles(l.dev->config()); });
      ++r.costmodel_calls;
      r.launch_ms.push_back(host * 1e3);
      r.kernel_host_s[l.kernel] += host;
      r.ctas += run.stats.ctas_launched;
      record(i, run.stats, cycles);
    } catch (const std::exception& e) {
      if (!failed_[i]) errors_.push_back(std::string(l.kernel) + ": " + e.what());
      failed_[i] = true;
    }
  }

  void record(std::size_t i, const gs::KernelStats& stats, double cycles) {
    const std::uint64_t d = launch_digest(stats, cycles);
    if (!seen_[i]) {
      seen_[i] = true;
      first_[i] = stats;
      cycles_[i] = cycles;
      digests_[i] = d;
      KernelAgg& k = per_kernel_[setup_.launches[i].kernel];
      ++k.calls;
      k.ctas += stats.ctas_launched;
      k.warp_inst += stats.total_instructions();
      k.model_cycles += cycles;
    } else if (digests_[i] != d) {
      if (!failed_[i]) {
        errors_.push_back(std::string(setup_.launches[i].kernel) +
                          ": modeled numbers differ between passes");
      }
      failed_[i] = true;
    }
  }

  KernelSetup& setup_;
  int passes_ = 0;
  std::vector<gs::KernelStats> first_;
  std::vector<double> cycles_;
  std::vector<std::uint64_t> digests_;
  std::vector<bool> seen_;
  std::vector<bool> failed_;
  std::vector<double> speedups_;
  std::map<std::string, KernelAgg> per_kernel_;
  std::vector<std::string> errors_;
};

std::string phase_json(const PhaseResult& r) {
  std::ostringstream os;
  os << "{\"pass_wall_s\":" << arr(r.pass_wall_s)
     << ",\"launch_ms\":" << arr(r.launch_ms)
     << ",\"costmodel_s\":" << num(r.costmodel_s)
     << ",\"costmodel_calls\":" << r.costmodel_calls
     << ",\"ctas\":" << r.ctas << ",\"kernel_host_s\":{";
  bool first = true;
  for (const auto& [name, s] : r.kernel_host_s) {
    os << (first ? "" : ",") << "\"" << name << "\":" << num(s);
    first = false;
  }
  os << "}}";
  return os.str();
}

int run_kernels(bool octet, std::uint64_t seed, double seconds, bool trace,
                std::ostringstream& os) {
  const int threads = octet ? 1 : 2;
  std::vector<double> setup_s, generate_s, upload_s;
  std::unique_ptr<KernelSetup> setup;
  g_tracer.enable(trace);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.reset();  // free the previous repetition before building anew
    const double t0 = now_s();
    setup = build_kernel_setup(octet, seed, threads, rep);
    setup_s.push_back(now_s() - t0);
    generate_s.push_back(setup->generate_s);
    upload_s.push_back(setup->upload_s);
  }
  g_tracer.enable(false);
  KernelWorkload w(*setup);
  os << "\"threads\":" << threads << ",\"setup_s\":" << arr(setup_s)
     << ",\"generate_s\":" << arr(generate_s) << ",\"upload_s\":" << arr(upload_s)
     << ",\"nnz\":" << setup->nnz;
  if (!trace) {
    os << ",\"untraced\":" << phase_json(w.run_phase(seconds));
  } else {
    os << ",\"untraced\":" << phase_json(w.run_phase(seconds / 2));
    g_tracer.enable(true);
    os << ",\"traced\":" << phase_json(w.run_phase(seconds / 2));
    g_tracer.enable(false);
    if (threads > 1) {
      w.set_threads(1);
      os << ",\"threads1\":" << phase_json(w.run_phase(0.0));
      w.set_threads(threads);
    }
  }
  w.repeat_sample();
  w.check_and_normalise();
  os << "," << w.json() << ",\"attempted\":" << w.attempted()
     << ",\"failed\":" << w.failed();
  return w.failed() == 0 ? 0 : 1;
}

// ---- serve_fleet ---------------------------------------------------------

vsparse::serve::LoadConfig trace_config(std::uint64_t seed, int index,
                                        int requests) {
  vsparse::serve::LoadConfig c;
  c.requests = requests;
  c.seed = case_seed(seed, static_cast<std::uint64_t>(index));
  c.threads = 1;
  c.mean_gap_ticks = kMeanGapTicks;
  c.chaos = true;
  c.devices = kFleetDevices;
  c.device_chaos = true;
  c.retry.seed = c.seed;
  return c;
}

/// The header counter `"key":N` of a vsparse-serve-v1 document.
std::uint64_t header_count(const std::string& json, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

/// The accounting identities a LoadResult must satisfy.
bool load_consistent(const vsparse::serve::LoadResult& r, int requests) {
  const auto identity = [](const vsparse::serve::TenantStats& s) {
    return s.submitted == s.completed + s.failed + s.rejected + s.shed_queue +
                              s.shed_deadline &&
           s.completed == s.slo_met + s.deadline_miss;
  };
  if (!identity(r.total) ||
      r.total.submitted != static_cast<std::uint64_t>(requests)) {
    return false;
  }
  std::uint64_t submitted = 0, completed = 0, slo_met = 0;
  for (const auto& t : r.tenants) {
    if (!identity(t)) return false;
    submitted += t.submitted;
    completed += t.completed;
    slo_met += t.slo_met;
  }
  return submitted == r.total.submitted && completed == r.total.completed &&
         slo_met == r.total.slo_met;
}

int run_serve(std::uint64_t seed, double seconds, bool trace,
              std::ostringstream& os) {
  std::vector<double> setup_s;
  std::vector<vsparse::serve::LoadConfig> configs;
  g_tracer.enable(trace);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SpanScope scope("bench.setup", rep);
    const double t0 = now_s();
    configs.clear();
    for (int i = 0; i < kTraces; ++i) {
      configs.push_back(trace_config(seed, i, kRequests));
    }
    // Warm-up traces, the same in every repetition, so that one-time
    // lazy state is built outside the timed passes.
    for (int i = 0; i < kWarmupTraces; ++i) {
      const auto warm = trace_config(seed, kTraces + i, kRequests);
      timed("serve.run_load", -1, [&] { (void)vsparse::serve::run_load(warm); });
    }
    setup_s.push_back(now_s() - t0);
  }
  g_tracer.enable(false);

  std::vector<std::uint64_t> digests(configs.size(), 0);
  std::vector<std::string> ledgers(configs.size());
  std::uint64_t failed = 0, final_ticks = 0, slo_met = 0, sim_ctas = 0,
                placements = 0, failovers = 0, hedges = 0, retries = 0,
                fallbacks = 0, quarantines = 0, rejections = 0, bundles = 0,
                shed = 0;
  std::vector<std::string> errors;
  int passes = 0;

  const auto run_trace = [&](std::size_t i, PhaseResult& r) {
    vsparse::serve::LoadResult res;
    double host = 0.0;
    try {
      host = timed("serve.run_load", static_cast<long long>(i),
                   [&] { res = vsparse::serve::run_load(configs[i]); });
    } catch (const std::exception& e) {
      errors.push_back(e.what());
      ++failed;
      return;
    }
    r.launch_ms.push_back(host * 1e3);
    r.kernel_host_s["run_load"] += host;
    r.ctas += res.sim_ctas;
    Fnv f;
    const std::string report = res.to_json(configs[i]);
    f.bytes(report.data(), report.size());
    if (passes == 0) {
      digests[i] = f.h;
      ledgers[i] = res.request_ledger_json;
      if (!load_consistent(res, configs[i].requests)) {
        errors.push_back("load accounting identity violated");
        ++failed;
      }
      final_ticks += res.final_tick;
      slo_met += res.total.slo_met;
      sim_ctas += res.sim_ctas;
      placements += res.fleet.placements;
      failovers += res.fleet.failovers;
      hedges += res.fleet.hedges;
      retries += header_count(res.report_json, "retries");
      fallbacks += header_count(res.report_json, "fallbacks");
      quarantines += res.health.quarantines;
      rejections += res.policy_cache_rejections;
      bundles += res.repro_bundles;
      shed += res.total.shed_queue + res.total.shed_deadline;
    } else if (digests[i] != f.h) {
      errors.push_back("load report differs between passes");
      ++failed;
    }
  };
  const auto run_phase = [&](double budget_s) {
    PhaseResult r;
    const double start = now_s();
    while (another_pass(r.pass_wall_s, now_s() - start, budget_s)) {
      SpanScope pass_span("bench.pass", passes);
      const double t0 = now_s();
      for (std::size_t i = 0; i < configs.size(); ++i) run_trace(i, r);
      r.pass_wall_s.push_back(now_s() - t0);
      ++passes;
    }
    return r;
  };

  os << "\"threads\":1,\"setup_s\":" << arr(setup_s);
  if (!trace) {
    os << ",\"untraced\":" << phase_json(run_phase(seconds));
  } else {
    os << ",\"untraced\":" << phase_json(run_phase(seconds / 2));
    g_tracer.enable(true);
    os << ",\"traced\":" << phase_json(run_phase(seconds / 2));
    g_tracer.enable(false);
  }
  PhaseResult ignored;
  std::uint64_t attempted = configs.size();
  for (std::size_t i = 0; i < configs.size(); i += kRepeatStride) {
    run_trace(i, ignored);
  }
  // run_load turns verify off under kernel chaos, so the sample runs
  // twice more with kernel chaos off and verify on; every completed
  // request is then compared with a reference device.  With device chaos
  // on, the outputs of every request, failed-over and hedged ones
  // included, must be byte-identical.  Its SM-local counters are only
  // reported: after device failures the health gate may quarantine a
  // request's first ladder rung, and the rung that serves it instead
  // computes the same bytes with other counters.  On the fault-free
  // fleet the counters must match too.
  std::uint64_t counter_mismatches = 0;
  for (const bool device_chaos : {true, false}) {
    for (std::size_t i = 0; i < configs.size(); i += kRepeatStride) {
      vsparse::serve::LoadConfig c = configs[i];
      c.chaos = false;
      c.device_chaos = device_chaos;
      c.verify = true;
      ++attempted;
      try {
        const vsparse::serve::LoadResult res = vsparse::serve::run_load(c);
        if (device_chaos) counter_mismatches += res.counter_mismatches;
        if (res.total.completed == 0 || res.mismatches != 0 ||
            (!device_chaos && res.counter_mismatches != 0) ||
            !load_consistent(res, c.requests)) {
          errors.push_back("verify: trace " + std::to_string(i) + " has " +
                           std::to_string(res.mismatches) + " output and " +
                           std::to_string(res.counter_mismatches) +
                           " counter mismatches of " +
                           std::to_string(res.total.completed) + " completed");
          ++failed;
        }
      } catch (const std::exception& e) {
        errors.push_back(std::string("verify: ") + e.what());
        ++failed;
      }
    }
  }
  Fnv digest;
  for (std::uint64_t d : digests) digest.u64(d);
  os << ",\"digest\":\"" << hex(digest.h) << "\",\"requests\":"
     << kTraces * kRequests << ",\"serve\":{\"final_ticks\":" << final_ticks
     << ",\"slo_met\":" << slo_met << ",\"sim_ctas\":" << sim_ctas
     << ",\"placements\":" << placements << ",\"failovers\":" << failovers
     << ",\"hedges\":" << hedges << ",\"retries\":" << retries
     << ",\"fallbacks\":" << fallbacks << ",\"quarantines\":" << quarantines
     << ",\"policy_cache_rejections\":" << rejections
     << ",\"repro_bundles\":" << bundles << ",\"shed\":" << shed
     << ",\"verify_counter_mismatches\":" << counter_mismatches
     << "},\"ledgers\":[";
  for (std::size_t i = 0; i < ledgers.size(); ++i) {
    os << (i ? "," : "") << (ledgers[i].empty() ? "[]" : ledgers[i]);
  }
  os << "],\"deadline_ticks\":{";
  bool first = true;
  for (const auto& t : vsparse::serve::default_tenants()) {
    os << (first ? "" : ",") << "\"" << t.name << "\":" << t.deadline_ticks;
    first = false;
  }
  os << "},\"errors\":[";
  for (std::size_t i = 0; i < errors.size() && i < 8; ++i) {
    os << (i ? "," : "") << "\"" << sanitize(errors[i]) << "\"";
  }
  os << "],\"attempted\":" << attempted << ",\"failed\":" << failed;
  return failed == 0 ? 0 : 1;
}

// ---- main ----------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: vsparse_bench --workload octet_kernels|baseline_kernels|"
               "serve_fleet --seed N --seconds S --trace 0|1 [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans") {
      spans = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || seconds < 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  std::ostringstream os;
  os << "{\"workload\":\"" << workload << "\",\"seed\":" << seed << ",";
  int rc = 0;
  try {
    if (workload == "octet_kernels" || workload == "baseline_kernels") {
      rc = run_kernels(workload == "octet_kernels", seed, seconds, trace == 1, os);
    } else if (workload == "serve_fleet") {
      rc = run_serve(seed, seconds, trace == 1, os);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vsparse_bench: %s\n", e.what());
    return 1;
  }
  os << ",\"peak_rss_kb\":" << peak_rss_kb() << "}";
  if (trace == 1 && !spans.empty() && !g_tracer.write(spans)) {
    std::fprintf(stderr, "vsparse_bench: cannot write %s\n", spans.c_str());
    return 1;
  }
  std::printf("%s\n", os.str().c_str());
  return rc;
}

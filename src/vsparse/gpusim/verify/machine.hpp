// The abstract CTA the static launch verifier executes kernel
// contracts on.
//
// A contract (kernels/contracts.cpp) replays the address behaviour of
// one representative CTA of its kernel against a CtaModel instead of a
// Device: it declares the global buffers the launch binds (with their
// tail-slack contracts), then issues the same span descriptors the
// kernel's warps issue — with data-dependent values (gather columns,
// row-pointer offsets, staged counts) as intervals rather than loaded
// data.  The model checks, eagerly at each op:
//
//   bounds        every active lane's [addr, addr+access) within the
//                 buffer (loads may extend into declared tail slack —
//                 recorded as a lint finding, not a violation);
//   predication   residue lanes are implied by bounds: an unpredicated
//                 lane at a corner shape lands out of bounds;
//   races         shared-memory spans from different warps in the same
//                 barrier epoch must be disjoint (exact test via
//                 spans_overlap) when either writes;
//   barriers      cta-wide sync() after any warp declared an early
//                 exit (skip_rest) is a divergence violation.
//
// Violations accumulate with the op's site label; the verifier turns
// the first violation at a corner into a `refuted` verdict carrying
// that corner as the concrete counterexample.  approximate() declares
// that the contract cannot model some behaviour exactly, downgrading
// the verdict to `unknown` (dynamic sanitizer stays authoritative).
//
// The model also runs the lint pass as it goes (vsparse-lint-v1):
//   per-lane-span        a footprint-hull op (`*_lanes`) whose declared
//                        pattern is (segmented-)affine — expressible as
//                        a real span descriptor;
//   slack-dependent-tail a load that is in bounds only through the
//                        buffer's tail slack (missing residue
//                        predication made safe by the PR 5 contracts);
//   descriptor-invalid   a descriptor violating the engine's DCHECKed
//                        validity rules (also a violation).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vsparse/gpusim/verify/interval.hpp"
#include "vsparse/gpusim/verify/span_set.hpp"

namespace vsparse::verify {

/// Declared address pattern of a footprint-hull op (lint
/// classification).
enum class SpanPattern : std::uint8_t {
  kAffine,     ///< lane addresses affine in the lane id
  kSegmented,  ///< affine within segments of equal width
  kGather,     ///< data-dependent bases (not expressible as one span)
  kIrregular,  ///< genuinely divergent
};

struct LintFinding {
  std::string rule;
  std::string site;
  std::string detail;
};

struct Violation {
  std::string site;
  std::string detail;
};

/// Prefix mask of the low `lanes` lanes.
inline std::uint32_t prefix_mask(int lanes) {
  if (lanes <= 0) return 0;
  if (lanes >= 32) return 0xFFFFFFFFu;
  return (1u << lanes) - 1u;
}

class CtaModel {
 public:
  CtaModel() = default;

  /// Representative-CTA geometry: warp count and the launch's
  /// shared-memory allocation.
  void launch(int warps, std::int64_t smem_bytes);

  /// Declare a global buffer binding; returns its handle.  `slack` is
  /// the tail-slack the allocation declares (Device::alloc).
  int gbuf(const std::string& name, std::int64_t bytes,
           std::int64_t slack = 0);

  /// Kernel precondition (mirrors a VSPARSE_CHECK at launch): when
  /// false the kernel rejects the shape before touching memory — the
  /// corner is safe-by-rejection, and the contract must return.
  bool require(bool ok, const char* site, const std::string& detail);

  /// The contract cannot model this behaviour exactly — verdict
  /// becomes `unknown`.
  void approximate(const char* site, const std::string& why);

  // ---- global span ops (bases are byte offsets into `buf`) ---------
  void ldg(int buf, const std::vector<Ival>& seg_bases, int width,
           std::int64_t stride, int access, std::uint32_t mask,
           const char* site);
  void stg(int buf, const std::vector<Ival>& seg_bases, int width,
           std::int64_t stride, int access, std::uint32_t mask,
           const char* site);
  /// Single-segment convenience.
  void ldg1(int buf, Ival base, std::int64_t stride, int access,
            std::uint32_t mask, const char* site) {
    ldg(buf, {base}, 32, stride, access, mask, site);
  }
  void stg1(int buf, Ival base, std::int64_t stride, int access,
            std::uint32_t mask, const char* site) {
    stg(buf, {base}, 32, stride, access, mask, site);
  }

  /// Data-dependent gather (the kernel's one-lane-segment span) modelled
  /// by its footprint hull [lo, hi) bytes into `buf`, with the declared
  /// pattern for the lint pass.
  void ldg_lanes(int buf, Ival lo, Ival hi, SpanPattern pattern,
                 const char* site);
  void stg_lanes(int buf, Ival lo, Ival hi, SpanPattern pattern,
                 const char* site);

  // ---- shared-memory span ops (concrete byte offsets) --------------
  void sts(int warp, const std::vector<std::int64_t>& seg_bases, int width,
           std::int64_t stride, int access, std::uint32_t mask,
           const char* site);
  void lds(int warp, const std::vector<std::int64_t>& seg_bases, int width,
           std::int64_t stride, int access, std::uint32_t mask,
           const char* site);
  /// Shared-memory gather modelled by its footprint hull (lint pattern).
  void lds_lanes(int warp, std::int64_t lo, std::int64_t hi,
                 SpanPattern pattern, const char* site);
  void sts_lanes(int warp, std::int64_t lo, std::int64_t hi,
                 SpanPattern pattern, const char* site);

  // ---- control flow ------------------------------------------------
  /// CTA-wide barrier: all live warps arrive; a sync while some warp
  /// has exited early is a barrier-divergence violation.
  void sync();
  /// Warp `warp` exits the kernel body early (divergent return).
  void skip_rest(int warp);
  /// End-of-CTA: final epoch race audit.
  void finish();

  // ---- results -----------------------------------------------------
  bool rejected() const { return rejected_; }
  bool unknown() const { return unknown_; }
  const std::string& unknown_why() const { return unknown_why_; }
  const std::vector<Violation>& violations() const { return violations_; }
  const std::vector<LintFinding>& lints() const { return lints_; }

 private:
  struct Gbuf {
    std::string name;
    std::int64_t bytes = 0;
    std::int64_t slack = 0;
  };
  struct SmemRec {
    int warp = 0;
    int epoch = 0;
    bool is_store = false;
    std::vector<std::uint64_t> seg_base;
    int width = 0;
    std::int64_t stride = 0;
    int access = 0;
    std::uint32_t mask = 0;
    std::string site;
  };

  void violate(const char* site, std::string detail);
  void lint(const char* rule, const char* site, std::string detail);
  bool check_descriptor(int segs, int width, std::int64_t stride, int access,
                        std::uint32_t mask, const char* site);
  void check_global(int buf, const std::vector<Ival>& seg_bases, int width,
                    std::int64_t stride, int access, std::uint32_t mask,
                    const char* site, bool is_store);
  void smem_op(int warp, const std::vector<std::int64_t>& seg_bases,
               int width, std::int64_t stride, int access, std::uint32_t mask,
               const char* site, bool is_store);

  int warps_ = 1;
  std::int64_t smem_bytes_ = 0;
  int epoch_ = 0;
  std::vector<bool> warp_exited_;
  std::vector<Gbuf> gbufs_;
  std::vector<SmemRec> smem_log_;  ///< current epoch only
  std::vector<Violation> violations_;
  std::vector<LintFinding> lints_;
  bool rejected_ = false;
  bool unknown_ = false;
  std::string unknown_why_;
};

}  // namespace vsparse::verify

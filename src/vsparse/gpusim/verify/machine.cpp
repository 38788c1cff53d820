#include "vsparse/gpusim/verify/machine.hpp"

#include <algorithm>
#include <sstream>

namespace vsparse::verify {

namespace {

const char* pattern_name(SpanPattern p) {
  switch (p) {
    case SpanPattern::kAffine:
      return "affine";
    case SpanPattern::kSegmented:
      return "segmented-affine";
    case SpanPattern::kGather:
      return "gather";
    case SpanPattern::kIrregular:
      return "irregular";
  }
  return "?";
}

}  // namespace

void CtaModel::launch(int warps, std::int64_t smem_bytes) {
  warps_ = warps;
  smem_bytes_ = smem_bytes;
  epoch_ = 0;
  warp_exited_.assign(static_cast<std::size_t>(warps), false);
  smem_log_.clear();
}

int CtaModel::gbuf(const std::string& name, std::int64_t bytes,
                   std::int64_t slack) {
  gbufs_.push_back(Gbuf{name, bytes, slack});
  return static_cast<int>(gbufs_.size()) - 1;
}

bool CtaModel::require(bool ok, const char* site, const std::string& detail) {
  if (!ok) {
    rejected_ = true;
    (void)site;
    (void)detail;
  }
  return ok;
}

void CtaModel::approximate(const char* site, const std::string& why) {
  if (!unknown_) {
    unknown_ = true;
    unknown_why_ = std::string(site) + ": " + why;
  }
}

void CtaModel::violate(const char* site, std::string detail) {
  violations_.push_back(Violation{site, std::move(detail)});
}

void CtaModel::lint(const char* rule, const char* site, std::string detail) {
  // Dedup by (rule, site): the same op replayed at several corners or
  // loop extremes is one finding.
  for (const LintFinding& f : lints_) {
    if (f.rule == rule && f.site == site) return;
  }
  lints_.push_back(LintFinding{rule, site, std::move(detail)});
}

bool CtaModel::check_descriptor(int segs, int width, std::int64_t stride,
                                int access, std::uint32_t mask,
                                const char* site) {
  std::ostringstream bad;
  if (segs < 1 || width < 1 || segs * width > 32) {
    bad << "segs=" << segs << " width=" << width
        << " violates 1 <= segs*width <= 32";
  } else if (segs * width < 32 && (mask >> (segs * width)) != 0) {
    bad << "mask has active bits beyond segs*width=" << segs * width;
  } else if (width > 1 && mask != 0 && access > 0 && stride % access != 0) {
    bad << "stride=" << stride << " not a multiple of access=" << access;
  } else {
    return true;
  }
  lint("descriptor-invalid", site, bad.str());
  violate(site, "invalid span descriptor: " + bad.str());
  return false;
}

void CtaModel::check_global(int buf, const std::vector<Ival>& seg_bases,
                            int width, std::int64_t stride, int access,
                            std::uint32_t mask, const char* site,
                            bool is_store) {
  const int segs = static_cast<int>(seg_bases.size());
  if (!check_descriptor(segs, width, stride, access, mask, site)) return;
  const Gbuf& g = gbufs_[static_cast<std::size_t>(buf)];
  for (int s = 0; s < segs; ++s) {
    int t_lo = -1, t_hi = -1;
    for (int t = 0; t < width; ++t) {
      if (mask & (1u << (s * width + t))) {
        if (t_lo < 0) t_lo = t;
        t_hi = t;
      }
    }
    if (t_lo < 0) continue;
    const std::int64_t lo = seg_bases[static_cast<std::size_t>(s)].lo +
                            static_cast<std::int64_t>(t_lo) * stride;
    const std::int64_t hi = seg_bases[static_cast<std::size_t>(s)].hi +
                            static_cast<std::int64_t>(t_hi) * stride + access;
    if (lo < 0) {
      std::ostringstream os;
      os << (is_store ? "store" : "load") << " below buffer " << g.name
         << ": segment " << s << " first byte " << lo;
      violate(site, os.str());
      continue;
    }
    if (hi <= g.bytes) continue;
    if (!is_store && hi <= g.bytes + g.slack) {
      std::ostringstream os;
      os << "load of " << g.name << " in bounds only through "
         << (hi - g.bytes) << " B of the buffer's " << g.slack
         << " B tail slack";
      lint("slack-dependent-tail", site, os.str());
      continue;
    }
    std::ostringstream os;
    os << (is_store ? "store" : "load") << " past buffer " << g.name << " ("
       << g.bytes << " B + " << g.slack << " B slack): segment " << s
       << " lanes [" << t_lo << "," << t_hi << "] reach byte " << hi;
    violate(site, os.str());
  }
}

void CtaModel::ldg(int buf, const std::vector<Ival>& seg_bases, int width,
                   std::int64_t stride, int access, std::uint32_t mask,
                   const char* site) {
  check_global(buf, seg_bases, width, stride, access, mask, site, false);
}

void CtaModel::stg(int buf, const std::vector<Ival>& seg_bases, int width,
                   std::int64_t stride, int access, std::uint32_t mask,
                   const char* site) {
  check_global(buf, seg_bases, width, stride, access, mask, site, true);
}

void CtaModel::ldg_lanes(int buf, Ival lo, Ival hi, SpanPattern pattern,
                         const char* site) {
  const Gbuf& g = gbufs_[static_cast<std::size_t>(buf)];
  if (pattern == SpanPattern::kAffine || pattern == SpanPattern::kSegmented) {
    lint("per-lane-span", site,
         std::string("per-lane global load with a ") + pattern_name(pattern) +
             " address pattern is expressible as one ldg_span");
  }
  if (lo.lo < 0) {
    violate(site, "per-lane load below buffer " + g.name);
    return;
  }
  if (hi.hi <= g.bytes) return;
  if (hi.hi <= g.bytes + g.slack) {
    std::ostringstream os;
    os << "per-lane load of " << g.name << " in bounds only through "
       << (hi.hi - g.bytes) << " B of tail slack";
    lint("slack-dependent-tail", site, os.str());
    return;
  }
  std::ostringstream os;
  os << "per-lane load past buffer " << g.name << " (" << g.bytes << " B + "
     << g.slack << " B slack): hull reaches byte " << hi.hi;
  violate(site, os.str());
}

void CtaModel::stg_lanes(int buf, Ival lo, Ival hi, SpanPattern pattern,
                         const char* site) {
  const Gbuf& g = gbufs_[static_cast<std::size_t>(buf)];
  if (pattern == SpanPattern::kAffine || pattern == SpanPattern::kSegmented) {
    lint("per-lane-span", site,
         std::string("per-lane global store with a ") + pattern_name(pattern) +
             " address pattern is expressible as one stg_span");
  }
  if (lo.lo < 0 || hi.hi > g.bytes) {
    std::ostringstream os;
    os << "per-lane store outside buffer " << g.name << " (" << g.bytes
       << " B): hull [" << lo.lo << "," << hi.hi << ")";
    violate(site, os.str());
  }
}

void CtaModel::smem_op(int warp, const std::vector<std::int64_t>& seg_bases,
                       int width, std::int64_t stride, int access,
                       std::uint32_t mask, const char* site, bool is_store) {
  const int segs = static_cast<int>(seg_bases.size());
  if (!check_descriptor(segs, width, stride, access, mask, site)) return;

  // Bounds over active lanes.
  bool in_bounds = true;
  for (int s = 0; s < segs; ++s) {
    int t_lo = -1, t_hi = -1;
    for (int t = 0; t < width; ++t) {
      if (mask & (1u << (s * width + t))) {
        if (t_lo < 0) t_lo = t;
        t_hi = t;
      }
    }
    if (t_lo < 0) continue;
    const std::int64_t lo =
        seg_bases[static_cast<std::size_t>(s)] +
        static_cast<std::int64_t>(t_lo) * stride;
    const std::int64_t hi = seg_bases[static_cast<std::size_t>(s)] +
                            static_cast<std::int64_t>(t_hi) * stride + access;
    if (lo < 0 || hi > smem_bytes_) {
      in_bounds = false;
      std::ostringstream os;
      os << (is_store ? "sts" : "lds") << " outside shared memory ("
         << smem_bytes_ << " B): segment " << s << " bytes [" << lo << ","
         << hi << ")";
      violate(site, os.str());
    }
  }
  if (!in_bounds) return;

  // Race check: exact span overlap against every other warp's accesses
  // in the current barrier epoch where either side writes.
  SmemRec rec;
  rec.warp = warp;
  rec.epoch = epoch_;
  rec.is_store = is_store;
  rec.seg_base.reserve(seg_bases.size());
  for (std::int64_t b : seg_bases) {
    rec.seg_base.push_back(static_cast<std::uint64_t>(b));
  }
  rec.width = width;
  rec.stride = stride;
  rec.access = access;
  rec.mask = mask;
  rec.site = site;

  const SpanRef me{rec.seg_base.data(), segs, width,
                   static_cast<std::uint64_t>(stride),
                   static_cast<std::uint32_t>(access), mask};
  for (const SmemRec& other : smem_log_) {
    if (other.warp == warp) continue;
    if (!other.is_store && !is_store) continue;
    const SpanRef them{other.seg_base.data(),
                       static_cast<int>(other.seg_base.size()), other.width,
                       static_cast<std::uint64_t>(other.stride),
                       static_cast<std::uint32_t>(other.access), other.mask};
    if (spans_overlap(me, them)) {
      std::ostringstream os;
      os << (is_store ? "sts" : "lds") << " overlaps "
         << (other.is_store ? "sts" : "lds") << " at " << other.site
         << " from warp " << other.warp << " in the same barrier epoch "
         << epoch_;
      violate(site, os.str());
    }
  }
  smem_log_.push_back(std::move(rec));
}

void CtaModel::sts(int warp, const std::vector<std::int64_t>& seg_bases,
                   int width, std::int64_t stride, int access,
                   std::uint32_t mask, const char* site) {
  smem_op(warp, seg_bases, width, stride, access, mask, site, true);
}

void CtaModel::lds(int warp, const std::vector<std::int64_t>& seg_bases,
                   int width, std::int64_t stride, int access,
                   std::uint32_t mask, const char* site) {
  smem_op(warp, seg_bases, width, stride, access, mask, site, false);
}

void CtaModel::lds_lanes(int warp, std::int64_t lo, std::int64_t hi,
                         SpanPattern pattern, const char* site) {
  if (pattern == SpanPattern::kAffine || pattern == SpanPattern::kSegmented) {
    lint("per-lane-span", site,
         std::string("per-lane shared-memory load with a ") +
             pattern_name(pattern) + " pattern is expressible as one lds_span");
  }
  if (lo < 0 || hi > smem_bytes_) {
    std::ostringstream os;
    os << "per-lane lds outside shared memory (" << smem_bytes_
       << " B): hull [" << lo << "," << hi << ")";
    violate(site, os.str());
    return;
  }
  // Conservative race treatment: model as a single contiguous span.
  smem_op(warp, {lo}, 1, 0, static_cast<int>(hi - lo), 0x1u, site, false);
}

void CtaModel::sts_lanes(int warp, std::int64_t lo, std::int64_t hi,
                         SpanPattern pattern, const char* site) {
  if (pattern == SpanPattern::kAffine || pattern == SpanPattern::kSegmented) {
    lint("per-lane-span", site,
         std::string("per-lane shared-memory store with a ") +
             pattern_name(pattern) + " pattern is expressible as one sts_span");
  }
  if (lo < 0 || hi > smem_bytes_) {
    std::ostringstream os;
    os << "per-lane sts outside shared memory (" << smem_bytes_
       << " B): hull [" << lo << "," << hi << ")";
    violate(site, os.str());
    return;
  }
  smem_op(warp, {lo}, 1, 0, static_cast<int>(hi - lo), 0x1u, site, true);
}

void CtaModel::sync() {
  for (int w = 0; w < warps_; ++w) {
    if (warp_exited_[static_cast<std::size_t>(w)]) {
      std::ostringstream os;
      os << "cta.sync() in barrier epoch " << epoch_ << " while warp " << w
         << " exited early: arrival counts diverge";
      violate("cta.sync", os.str());
      return;
    }
  }
  ++epoch_;
  smem_log_.clear();
}

void CtaModel::skip_rest(int warp) {
  warp_exited_[static_cast<std::size_t>(warp)] = true;
}

void CtaModel::finish() {
  // Race audit is eager; nothing left to flush.
  smem_log_.clear();
}

}  // namespace vsparse::verify

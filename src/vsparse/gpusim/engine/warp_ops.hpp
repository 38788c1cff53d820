// Warp memory/shuffle operation bodies — kept header-only so they
// inline into kernel loops.  Every operation performs the real data
// movement *and* records the hardware events (requests, 32 B sectors,
// L1/L2 hits, bank conflicts) that the paper's profiling sections
// analyze.  All counters land in the executing SM's private stats
// block; the only shared structure touched is the slice-locked L2.
#pragma once

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <type_traits>

#include "vsparse/gpusim/engine/cta.hpp"

namespace vsparse::gpusim {

namespace detail {

/// Active-lane mask of one `width`-lane segment (relative lane bits).
inline std::uint32_t span_seg_mask(std::uint32_t mask, int seg, int width) {
  return width >= 32 ? mask : (mask >> (seg * width)) & ((1u << width) - 1u);
}

/// Full-warp mask of a segs x width span (every describable lane on).
inline std::uint32_t span_full_mask(int segs, int width) {
  const int lanes = segs * width;
  return lanes >= 32 ? kFullMask : (1u << lanes) - 1u;
}

/// True when a (non-empty) segment mask is one contiguous lane run.
inline bool contiguous(std::uint32_t seg_mask) {
  const std::uint32_t run = seg_mask >> std::countr_zero(seg_mask);
  return (run & (run + 1)) == 0;
}

/// Collects the unique 32 B sectors touched by one warp memory request.
/// Naturally-aligned accesses of size <= 32 B touch exactly one sector
/// per lane, so at most 32 entries.
class SectorSet {
 public:
  void insert(std::uint64_t sector) {
    for (int i = 0; i < n_; ++i) {
      if (sectors_[i] == sector) return;
    }
    sectors_[n_++] = sector;
  }
  int size() const { return n_; }
  std::uint64_t operator[](int i) const { return sectors_[i]; }

 private:
  std::uint64_t sectors_[32];
  int n_ = 0;
};

/// Bank-conflict degree of one shared-memory request: lanes whose
/// first 4 B word maps to the same bank but a *different* word
/// serialize; the same word broadcasts.
class BankScan {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < n_; ++i) {
      if (words_[i] == word) return;
    }
    words_[n_++] = word;
    degree_ = std::max(degree_, ++count_[word % 32]);
  }
  int degree() const { return degree_; }

 private:
  std::uint64_t words_[32];
  int count_[32] = {};
  int n_ = 0;
  int degree_ = 1;
};

/// Move segment `seg`'s active lanes between registers (`regs[seg *
/// width + t]`) and memory at `hull`, the address of lane `lo`: one
/// block copy for a contiguous run at stride sizeof(V), else lane by
/// lane.  kStore copies registers to memory.
template <bool kStore, class V, class Regs>
void copy_segment(std::byte* hull, Regs& regs, int seg, int width, int lo,
                  int hi, std::uint32_t seg_mask, std::uint32_t stride,
                  bool run) {
  const auto lane = [&](int t) {
    return &regs[static_cast<std::size_t>(seg * width + t)];
  };
  if (run && stride == sizeof(V)) {
    const std::size_t bytes = static_cast<std::size_t>(hi - lo + 1) * sizeof(V);
    if constexpr (kStore) {
      std::memcpy(hull, lane(lo), bytes);
    } else {
      std::memcpy(lane(lo), hull, bytes);
    }
    return;
  }
  for (std::uint32_t m = seg_mask; m != 0; m &= m - 1) {
    const int t = std::countr_zero(m);
    std::byte* mem = hull + static_cast<std::size_t>(t - lo) * stride;
    if constexpr (kStore) {
      std::memcpy(mem, lane(t), sizeof(V));
    } else {
      std::memcpy(lane(t), mem, sizeof(V));
    }
  }
}

/// Byte address (global) or offset (smem) of segment `seg`'s lane `t`.
template <class A>
std::uint64_t lane_addr(const A* seg_base, int seg, int t, std::uint32_t stride) {
  return static_cast<std::uint64_t>(seg_base[seg]) +
         static_cast<std::uint64_t>(t) * stride;
}

/// Wavefronts one smem request of V per lane costs before conflicts.
template <class V>
constexpr std::uint64_t smem_width_factor() {
  return std::max<std::size_t>(1, sizeof(V) / 8);
}

/// The body both global span ops share.  Copies every active lane
/// between registers and device memory with one bounds-checked hull
/// translation per segment — the arena is one contiguous [0, used)
/// region, so the hull [first lane's start, last lane's end) is in
/// bounds iff every active lane is.  A load then runs its fault hooks
/// once per active lane, in lane order, after the copy and before any
/// cache probe, so an ECC abort leaves the counters and cache state of
/// a request that never reached the hierarchy.  Finally every distinct
/// 32 B sector is fed to L1/L2 in per-lane first-touch order
/// (segment-major, ascending within a segment because stride >= 0 makes
/// it monotone).  Returns the number of sectors.
///
/// Runs: when every active segment is a contiguous lane run with
/// stride <= 32, a segment's footprint is exactly the closed interval
/// [first, last] step 32 (consecutive lanes advance < one sector, so
/// none is skipped and all are distinct), and cross-segment dedup
/// reduces to interval-membership tests against earlier segments.
/// Otherwise each segment is walked lane by lane with
/// compare-with-previous dedup (equal sectors are adjacent in a
/// monotone sequence) and a SectorSet catches cross-segment repeats.
/// One-lane segments — the divergent form — always take the lane walk
/// and per-sector probes: interval tests and line batching only pay off
/// on runs.
template <bool kStore, class V, class Regs>
std::uint64_t global_span(Device& dev, SectorCache& l1, KernelStats& s,
                          FaultState* faults, const std::uint64_t* seg_base,
                          int segs, int width, std::uint32_t stride,
                          Regs& regs, std::uint32_t mask) {
  bool runs = width > 1 && stride <= 32;
  for (int seg = 0; runs && seg < segs; ++seg) {
    const std::uint32_t seg_mask = span_seg_mask(mask, seg, width);
    runs = seg_mask == 0 || contiguous(seg_mask);
  }
  std::uint64_t first[32];
  std::uint64_t last[32];
  int n = 0;
  for (int seg = 0; seg < segs; ++seg) {
    const std::uint32_t seg_mask = span_seg_mask(mask, seg, width);
    if (seg_mask == 0) continue;
    const int lo = std::countr_zero(seg_mask);
    const int hi = 31 - std::countl_zero(seg_mask);
    const std::uint64_t base = seg_base[seg];
    VSPARSE_DCHECK(base % sizeof(V) == 0);  // natural alignment
    VSPARSE_DCHECK(hi == lo || stride % sizeof(V) == 0);
    std::byte* hull =
        dev.translate(base + static_cast<std::uint64_t>(lo) * stride,
                      static_cast<std::size_t>(hi - lo) * stride + sizeof(V));
    copy_segment<kStore, V>(hull, regs, seg, width, lo, hi, seg_mask, stride,
                            runs || contiguous(seg_mask));
    first[n] = (base + static_cast<std::uint64_t>(lo) * stride) & ~std::uint64_t{31};
    last[n] = (base + static_cast<std::uint64_t>(hi) * stride) & ~std::uint64_t{31};
    ++n;
  }
  if constexpr (!kStore) {
    if (faults != nullptr) [[unlikely]] {
      for (int seg = 0; seg < segs; ++seg) {
        for (std::uint32_t m = span_seg_mask(mask, seg, width); m != 0;
             m &= m - 1) {
          const int t = std::countr_zero(m);
          faults->on_global_read(lane_addr(seg_base, seg, t, stride),
                                 &regs[static_cast<std::size_t>(seg * width + t)],
                                 sizeof(V), s);
        }
      }
    }
  }
  // Feed the sectors through L1/L2.  Loads probe L1 and go to L2 on a
  // miss; stores invalidate the L1 copy and write through L2 (Volta
  // global stores do not allocate in L1).  Consecutive touches of one
  // cache line merge into ONE probe per level (a sector-bit mask instead
  // of up to 4 tag lookups); SetArray::access_line documents why that is
  // state- and counter-identical to the per-sector sequence, and merging
  // only adjacent touches preserves interleavings with other lines.
  ShardedCache& l2 = dev.l2();
  const std::uint64_t line_bytes = static_cast<std::uint64_t>(l1.line_bytes());
  const bool batch =
      width > 1 && line_bytes == static_cast<std::uint64_t>(l2.line_bytes()) &&
      line_bytes >= 32 && line_bytes <= 32 * 32 &&
      (line_bytes & (line_bytes - 1)) == 0;
  std::uint64_t nsec = 0;
  std::uint64_t cur_line = ~std::uint64_t{0};
  std::uint32_t cur_bits = 0;
  const auto flush = [&] {
    if (cur_bits == 0) return;
    std::uint32_t l2_bits = cur_bits;
    if constexpr (kStore) {
      l1.invalidate_line(cur_line, cur_bits);
    } else {
      const std::uint32_t hits = l1.access_line(cur_line, cur_bits);
      const int nh = std::popcount(hits);
      s.l1_sector_hits += static_cast<std::uint64_t>(nh);
      s.l1_sector_misses += static_cast<std::uint64_t>(std::popcount(cur_bits) - nh);
      l2_bits &= ~hits;
    }
    if (l2_bits != 0) {
      const int nh2 = std::popcount(l2.access_line(cur_line, l2_bits));
      const auto nm2 = static_cast<std::uint64_t>(std::popcount(l2_bits) - nh2);
      s.l2_sector_hits += static_cast<std::uint64_t>(nh2);
      s.l2_sector_misses += nm2;
      (kStore ? s.dram_write_bytes : s.dram_read_bytes) += 32u * nm2;
    }
    cur_bits = 0;
  };
  const auto touch = [&](std::uint64_t sec) {
    ++nsec;
    if (!batch) [[unlikely]] {
      // One-lane segments or unusual line geometry: per-sector walk.
      if constexpr (kStore) {
        l1.invalidate_sector(sec);
        if (l2.access(sec)) {
          ++s.l2_sector_hits;
        } else {
          ++s.l2_sector_misses;
          s.dram_write_bytes += 32;
        }
      } else if (l1.access(sec)) {
        ++s.l1_sector_hits;
      } else {
        ++s.l1_sector_misses;
        if (l2.access(sec)) {
          ++s.l2_sector_hits;
        } else {
          ++s.l2_sector_misses;
          s.dram_read_bytes += 32;
        }
      }
      return;
    }
    const std::uint64_t line = sec & ~(line_bytes - 1);
    if (line != cur_line) {
      flush();
      cur_line = line;
    }
    cur_bits |= 1u << ((sec - line) >> 5);
  };
  if (runs) {
    for (int i = 0; i < n; ++i) {
      for (std::uint64_t sec = first[i]; sec <= last[i]; sec += 32) {
        bool seen = false;
        for (int j = 0; j < i && !seen; ++j) {
          seen = sec >= first[j] && sec <= last[j];
        }
        if (!seen) touch(sec);
      }
    }
  } else {
    SectorSet sectors;
    for (int seg = 0; seg < segs; ++seg) {
      std::uint64_t prev = ~std::uint64_t{0};
      for (std::uint32_t m = span_seg_mask(mask, seg, width); m != 0;
           m &= m - 1) {
        const std::uint64_t sec =
            lane_addr(seg_base, seg, std::countr_zero(m), stride) &
            ~std::uint64_t{31};
        if (sec != prev) {
          sectors.insert(sec);
          prev = sec;
        }
      }
    }
    for (int i = 0; i < sectors.size(); ++i) touch(sectors[i]);
  }
  flush();
  return nsec;
}

/// Fault hooks of a shared-memory load for segments [seg_begin,
/// seg_end): once per active lane, in lane order.
template <class V>
void smem_fault_hooks(FaultState& faults, const std::uint32_t* seg_off,
                      int seg_begin, int seg_end, int width,
                      std::uint32_t stride, std::uint32_t mask, Lanes<V>& dst,
                      KernelStats& s) {
  for (int seg = seg_begin; seg < seg_end; ++seg) {
    for (std::uint32_t m = span_seg_mask(mask, seg, width); m != 0; m &= m - 1) {
      const int t = std::countr_zero(m);
      faults.on_smem_read(
          static_cast<std::uint32_t>(lane_addr(seg_off, seg, t, stride)),
          &dst[static_cast<std::size_t>(seg * width + t)], sizeof(V), s);
    }
  }
}

/// Segment `seg` of a shared-memory request has an out-of-bounds hull:
/// its last active lane has its highest offset, so some active lane is
/// out of bounds.  Finish every lane before the first offending one, in
/// lane order — for a load, the fault hooks of the already-copied
/// earlier segments, then this segment lane by lane — and throw for it.
template <bool kStore, class V, class Regs>
[[gnu::cold, gnu::noinline]] void smem_oob(
    std::byte* smem, std::uint64_t smem_bytes, FaultState* faults,
    const std::uint32_t* seg_off, int seg, int width, std::uint32_t stride,
    std::uint32_t mask, Regs& regs, KernelStats& s) {
  if constexpr (!kStore) {
    if (faults != nullptr) {
      smem_fault_hooks(*faults, seg_off, 0, seg, width, stride, mask, regs, s);
    }
  }
  for (std::uint32_t m = span_seg_mask(mask, seg, width); m != 0; m &= m - 1) {
    const std::size_t lane =
        static_cast<std::size_t>(seg * width + std::countr_zero(m));
    const std::uint64_t o = lane_addr(seg_off, seg, std::countr_zero(m), stride);
    VSPARSE_CHECK_MSG(o + sizeof(V) <= smem_bytes,
                      "smem OOB " << (kStore ? "store" : "load")
                                  << " at offset " << o);
    if constexpr (kStore) {
      std::memcpy(smem + o, &regs[lane], sizeof(V));
    } else {
      std::memcpy(&regs[lane], smem + o, sizeof(V));
      if (faults != nullptr) {
        faults->on_smem_read(static_cast<std::uint32_t>(o), &regs[lane],
                             sizeof(V), s);
      }
    }
  }
}

}  // namespace detail

// ---- the warp memory ops ----------------------------------------------
//
// One op per memory kind.  The kernel states its address pattern as
// segments of an affine sequence and the engine services each segment
// with one hull translation / bounds check and one monotone sector or
// closed-form bank walk; a genuinely divergent access is 32 one-lane
// segments, which the same bodies service lane by lane.  Fault hooks
// and the sanitizer consume the descriptor directly (DESIGN.md §2h).

template <class V>
void Warp::ldg_span(const std::uint64_t* seg_base, int segs, int width,
                    std::uint32_t stride, Lanes<V>& dst, std::uint32_t mask) {
  static_assert(std::is_trivially_copyable_v<V>);
  static_assert(sizeof(V) == 2 || sizeof(V) == 4 || sizeof(V) == 8 ||
                sizeof(V) == 16);
  VSPARSE_DCHECK(segs >= 1 && width >= 1 && segs * width <= 32);
  VSPARSE_DCHECK(segs * width >= 32 || (mask >> (segs * width)) == 0);
  KernelStats& s = stats();
  count(Op::kLdg);
  if constexpr (sizeof(V) == 2) {
    ++s.ldg16;
  } else if constexpr (sizeof(V) == 4) {
    ++s.ldg32;
  } else if constexpr (sizeof(V) == 8) {
    ++s.ldg64;
  } else {
    ++s.ldg128;
  }
  if (mask == 0) return;
  if (SmSanitizer* san = sm().sanitizer()) [[unlikely]] {
    san->on_global_load(warp_id_, seg_base, segs, width, stride, mask,
                        sizeof(V));
  }

  const std::uint64_t sectors = detail::global_span<false, V>(
      device(), sm().l1(), s, sm().faults(), seg_base, segs, width, stride,
      dst, mask);
  s.global_load_requests += 1;
  s.global_load_sectors += sectors;
}

template <class V>
void Warp::ldg_span(std::uint64_t base, std::uint32_t stride, Lanes<V>& dst,
                    std::uint32_t mask) {
  ldg_span(&base, 1, 32, stride, dst, mask);
}

template <class V>
void Warp::stg_span(const std::uint64_t* seg_base, int segs, int width,
                    std::uint32_t stride, const Lanes<V>& src,
                    std::uint32_t mask) {
  static_assert(std::is_trivially_copyable_v<V>);
  static_assert(sizeof(V) == 2 || sizeof(V) == 4 || sizeof(V) == 8 ||
                sizeof(V) == 16);
  VSPARSE_DCHECK(segs >= 1 && width >= 1 && segs * width <= 32);
  VSPARSE_DCHECK(segs * width >= 32 || (mask >> (segs * width)) == 0);
  KernelStats& s = stats();
  count(Op::kStg);
  if (mask == 0) return;
  if (SmSanitizer* san = sm().sanitizer()) [[unlikely]] {
    san->on_global_store(warp_id_, seg_base, segs, width, stride, mask,
                         sizeof(V));
  }

  const std::uint64_t sectors = detail::global_span<true, V>(
      device(), sm().l1(), s, nullptr, seg_base, segs, width, stride, src,
      mask);
  s.global_store_requests += 1;
  s.global_store_sectors += sectors;
}

template <class V>
void Warp::stg_span(std::uint64_t base, std::uint32_t stride,
                    const Lanes<V>& src, std::uint32_t mask) {
  stg_span(&base, 1, 32, stride, src, mask);
}

template <class V>
void Warp::lds_span(const std::uint32_t* seg_off, int segs, int width,
                    std::uint32_t stride, Lanes<V>& dst, std::uint32_t mask) {
  static_assert(std::is_trivially_copyable_v<V>);
  VSPARSE_DCHECK(segs >= 1 && width >= 1 && segs * width <= 32);
  VSPARSE_DCHECK(segs * width >= 32 || (mask >> (segs * width)) == 0);
  KernelStats& s = stats();
  count(Op::kLds);
  if (mask == 0) return;
  // Sanitize before executing: an OOB lds must be *reported* before the
  // always-on bounds check below unwinds the launch.
  if (SmSanitizer* san = sm().sanitizer()) [[unlikely]] {
    san->on_smem_load(warp_id_, seg_off, segs, width, stride, mask,
                      sizeof(V));
  }
  s.smem_load_requests += 1;

  FaultState* faults = sm().faults();  // null ⇒ fault-free fast path
  std::byte* smem = cta_->smem();
  const std::uint64_t smem_bytes = cta_->smem_bytes();
  int lanes_active = 0;
  for (int seg = 0; seg < segs; ++seg) {
    const std::uint32_t seg_mask = detail::span_seg_mask(mask, seg, width);
    if (seg_mask == 0) continue;
    const int lo = std::countr_zero(seg_mask);
    const int hi = 31 - std::countl_zero(seg_mask);
    if (detail::lane_addr(seg_off, seg, hi, stride) + sizeof(V) > smem_bytes)
        [[unlikely]] {
      detail::smem_oob<false, V>(smem, smem_bytes, faults, seg_off, seg,
                                 width, stride, mask, dst, s);
    }
    lanes_active += std::popcount(seg_mask);
    detail::copy_segment<false, V>(
        smem + detail::lane_addr(seg_off, seg, lo, stride), dst, seg, width,
        lo, hi, seg_mask, stride, detail::contiguous(seg_mask));
  }
  // Fault hooks: once per active lane, in lane order, after the copy.
  if (faults != nullptr) [[unlikely]] {
    detail::smem_fault_hooks(*faults, seg_off, 0, segs, width, stride, mask,
                             dst, s);
  }

  // Bank-conflict degree.  Closed form for the full-mask affine /
  // repeated-segment pattern (DESIGN.md §2h); otherwise scan the
  // distinct words — a uniform (stride-0) segment contributes only its
  // first lane's word, every later lane being a broadcast duplicate.
  int degree = 1;
  bool closed_form = mask == detail::span_full_mask(segs, width) &&
                     stride % 4 == 0 && seg_off[0] % 4 == 0;
  for (int seg = 1; closed_form && seg < segs; ++seg) {
    closed_form = seg_off[seg] == seg_off[0];
  }
  if (closed_form) {
    const int wstep = static_cast<int>(stride / 4);
    if (wstep != 0) {
      // Words within a segment are strictly monotone (no duplicates);
      // lanes t and t' share a bank iff (t - t') * wstep ≡ 0 (mod 32),
      // i.e. every 32/gcd(wstep,32) lanes.  Repeated segments re-read
      // the first segment's words and count as broadcasts (duplicates).
      const int period = 32 / std::gcd(wstep, 32);
      degree = (width + period - 1) / period;
    }
  } else {
    detail::BankScan banks;
    for (int seg = 0; seg < segs; ++seg) {
      std::uint32_t m = detail::span_seg_mask(mask, seg, width);
      if (stride == 0) m &= -m;
      for (; m != 0; m &= m - 1) {
        banks.add(detail::lane_addr(seg_off, seg, std::countr_zero(m), stride) / 4);
      }
    }
    degree = banks.degree();
  }
  s.smem_wavefronts += static_cast<std::uint64_t>(degree) *
                       detail::smem_width_factor<V>();
  s.smem_load_bytes += static_cast<std::uint64_t>(lanes_active) * sizeof(V);
}

template <class V>
void Warp::lds_span(std::uint32_t off, std::uint32_t stride, Lanes<V>& dst,
                    std::uint32_t mask) {
  lds_span(&off, 1, 32, stride, dst, mask);
}

template <class V>
void Warp::sts_span(const std::uint32_t* seg_off, int segs, int width,
                    std::uint32_t stride, const Lanes<V>& src,
                    std::uint32_t mask) {
  static_assert(std::is_trivially_copyable_v<V>);
  VSPARSE_DCHECK(segs >= 1 && width >= 1 && segs * width <= 32);
  VSPARSE_DCHECK(segs * width >= 32 || (mask >> (segs * width)) == 0);
  KernelStats& s = stats();
  count(Op::kSts);
  if (mask == 0) return;
  if (SmSanitizer* san = sm().sanitizer()) [[unlikely]] {
    san->on_smem_store(warp_id_, seg_off, segs, width, stride, mask,
                       sizeof(V));
  }
  s.smem_store_requests += 1;

  std::byte* smem = cta_->smem();
  const std::uint64_t smem_bytes = cta_->smem_bytes();
  int lanes_active = 0;
  for (int seg = 0; seg < segs; ++seg) {
    const std::uint32_t seg_mask = detail::span_seg_mask(mask, seg, width);
    if (seg_mask == 0) continue;
    const int lo = std::countr_zero(seg_mask);
    const int hi = 31 - std::countl_zero(seg_mask);
    if (detail::lane_addr(seg_off, seg, hi, stride) + sizeof(V) > smem_bytes)
        [[unlikely]] {
      detail::smem_oob<true, V>(smem, smem_bytes, nullptr, seg_off, seg,
                                width, stride, mask, src, s);
    }
    lanes_active += std::popcount(seg_mask);
    detail::copy_segment<true, V>(
        smem + detail::lane_addr(seg_off, seg, lo, stride), src, seg, width,
        lo, hi, seg_mask, stride, detail::contiguous(seg_mask));
  }
  s.smem_wavefronts += detail::smem_width_factor<V>();
  s.smem_store_bytes += static_cast<std::uint64_t>(lanes_active) * sizeof(V);
}

template <class V>
void Warp::sts_span(std::uint32_t off, std::uint32_t stride,
                    const Lanes<V>& src, std::uint32_t mask) {
  sts_span(&off, 1, 32, stride, src, mask);
}

template <class T>
void Warp::shfl(Lanes<T>& dst, const Lanes<T>& src, const Lanes<int>& srclane,
                std::uint32_t mask) {
  count(Op::kShfl);
  Lanes<T> tmp;
  for (int lane = 0; lane < 32; ++lane) {
    if (!(mask & (1u << lane))) {
      tmp[static_cast<std::size_t>(lane)] = dst[static_cast<std::size_t>(lane)];
      continue;
    }
    const int sl = srclane[static_cast<std::size_t>(lane)];
    VSPARSE_DCHECK(sl >= 0 && sl < 32);
    tmp[static_cast<std::size_t>(lane)] = src[static_cast<std::size_t>(sl)];
  }
  dst = tmp;
}

template <class T>
void Warp::shfl_xor(Lanes<T>& dst, const Lanes<T>& src, int xor_mask,
                    std::uint32_t mask) {
  Lanes<int> srclane;
  for (int lane = 0; lane < 32; ++lane) {
    srclane[static_cast<std::size_t>(lane)] = lane ^ xor_mask;
  }
  shfl(dst, src, srclane, mask);
}

}  // namespace vsparse::gpusim

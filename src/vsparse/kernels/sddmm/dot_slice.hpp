// Host functional math of the tensor-core SDDMM kernels (sddmm_octet,
// sddmm_wmma_warp): the fp32 dot products of up to 8 A rows against up
// to 8 B columns over one K stride of at most 64.
//
// Each (column, row) dot product is one lane of an 8-float vector and
// adds its products in K order, starting from +0 — the same sequence
// of roundings as the scalar `sum += a[kk] * b[kk]` loop it replaces,
// so the output bits do not depend on the vector width.  A product of
// two fp16 values is exact in fp32 (11 + 11 significand bits <= 24),
// so whether the compiler contracts `acc += a * b` into an FMA changes
// nothing either; no explicit FMA is used.  (DESIGN.md §2h.)
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "vsparse/common/macros.hpp"
#include "vsparse/fp16/half.hpp"

namespace vsparse::kernels {

class DotSlice {
 public:
  static constexpr int kMaxK = 64;
  static constexpr int kLanes = 8;

  /// Widens `rows` (<= 8) A rows of `kcnt` (<= 64) elements once;
  /// row t starts at `a + t * lda`.  Lanes past `rows` stay zero.
  DotSlice(const half_t* a, std::size_t lda, int rows, int kcnt)
      : kcnt_(kcnt) {
    VSPARSE_DCHECK(rows >= 1 && rows <= kLanes);
    VSPARSE_DCHECK(kcnt >= 1 && kcnt <= kMaxK);
    float row[kMaxK];
    for (int t = 0; t < rows; ++t) {
      half_to_float_n(a + static_cast<std::size_t>(t) * lda, row,
                      static_cast<std::size_t>(kcnt));
      for (int kk = 0; kk < kcnt; ++kk) at_[kk][t] = row[kk];
    }
  }

  /// sums[e][t] = sum over kk of A[t][kk] * B[kk][cols[e]] for the
  /// `ncols` (<= 8) columns; column c starts at `b + c * ldb`.  Lanes
  /// past the constructor's `rows` read 0; columns past `ncols` are
  /// left unspecified.
  void dot(const half_t* b, std::size_t ldb, const std::int32_t* cols,
           int ncols, float (&sums)[kLanes][kLanes]) const {
    VSPARSE_DCHECK(ncols >= 1 && ncols <= kLanes);
    // All 8 columns every time: a fixed trip count keeps the eight
    // accumulators in registers; padded columns multiply zeros.
    float bt[kLanes][kMaxK];
    for (int e = 0; e < kLanes; ++e) {
      if (e < ncols) {
        half_to_float_n(b + static_cast<std::size_t>(cols[e]) * ldb, bt[e],
                        static_cast<std::size_t>(kcnt_));
      } else {
        std::fill_n(bt[e], kcnt_, 0.0f);
      }
    }
    F32x8 acc[kLanes] = {};
    for (int kk = 0; kk < kcnt_; ++kk) {
      const F32x8 av = at_[kk];
      for (int e = 0; e < kLanes; ++e) acc[e] += av * bt[e][kk];
    }
    for (int e = 0; e < ncols; ++e) {
      for (int t = 0; t < kLanes; ++t) sums[e][t] = acc[e][t];
    }
  }

 private:
  /// One lane per A row t.
  typedef float F32x8 __attribute__((vector_size(kLanes * sizeof(float))));

  F32x8 at_[kMaxK] = {};  ///< at_[kk][t] = float(A[t][kk])
  int kcnt_;
};

}  // namespace vsparse::kernels

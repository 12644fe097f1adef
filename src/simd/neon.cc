/**
 * @file
 * NEON backend (AArch64): 2-lane double kernels for the run-batched
 * walks. NEON is architecturally guaranteed on AArch64, so no runtime
 * probe beyond the compile gate is needed; the table still goes
 * through the same dispatch so SHARP_SIMD_BACKEND=scalar works
 * everywhere. Compiled with -ffp-contract=off like every backend.
 */

#include "simd/kernels.hh"

#if defined(__aarch64__)

#include <arm_neon.h>

#include "simd/batched_impl.hh"

namespace sharp
{
namespace simd
{
namespace detail
{
namespace
{

struct NeonOps
{
    static bool
    hasNan(const double *p, size_t n)
    {
        size_t i = 0;
        for (; i + 2 <= n; i += 2) {
            float64x2_t v = vld1q_f64(p + i);
            uint64x2_t ordered = vceqq_f64(v, v);
            if (vgetq_lane_u64(ordered, 0) == 0 ||
                vgetq_lane_u64(ordered, 1) == 0)
                return true;
        }
        for (; i < n; ++i)
            if (p[i] != p[i])
                return true;
        return false;
    }

    static size_t
    copyRunLE(const double *p, size_t n, double bound, double *out)
    {
        const float64x2_t vb = vdupq_n_f64(bound);
        size_t r = 0;
        while (r + 2 <= n) {
            float64x2_t v = vld1q_f64(p + r);
            // Store before testing: the lane past the run end is
            // overwritten by the other side's next run (the caller
            // guarantees the slack).
            vst1q_f64(out + r, v);
            uint64x2_t le = vcleq_f64(v, vb);
            if (vgetq_lane_u64(le, 0) == 0)
                return r;
            if (vgetq_lane_u64(le, 1) == 0)
                return r + 1;
            r += 2;
        }
        while (r < n && p[r] <= bound) {
            out[r] = p[r];
            ++r;
        }
        return r;
    }

    static size_t
    copyRunLT(const double *p, size_t n, double bound, double *out)
    {
        const float64x2_t vb = vdupq_n_f64(bound);
        size_t r = 0;
        while (r + 2 <= n) {
            float64x2_t v = vld1q_f64(p + r);
            vst1q_f64(out + r, v);
            uint64x2_t lt = vcltq_f64(v, vb);
            if (vgetq_lane_u64(lt, 0) == 0)
                return r;
            if (vgetq_lane_u64(lt, 1) == 0)
                return r + 1;
            r += 2;
        }
        while (r < n && p[r] < bound) {
            out[r] = p[r];
            ++r;
        }
        return r;
    }
};

uint64_t
mergeSortedNeon(const double *a, size_t na, const double *b, size_t nb,
                double *out)
{
    return mergeSortedBatched<NeonOps>(a, na, b, nb, out);
}

double
ksSortedNeon(const double *a, size_t na, const double *b, size_t nb)
{
    // The chunked walk is ISA-independent (its win is breaking the
    // serial dependency chain); NEON only contributes the prescan.
    if (NeonOps::hasNan(a, na) || NeonOps::hasNan(b, nb))
        return ksSortedScalar(a, na, b, nb);
    return ksSortedChunked(a, na, b, nb);
}

double
sumSquaredDeviationsNeon(const double *v, size_t n, double m)
{
    // Lanes batch the elementwise subtract/multiply; the adds stay
    // scalar and in element order so the bits match the scalar loop.
    const float64x2_t vm = vdupq_n_f64(m);
    double ss = 0.0;
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        float64x2_t d = vsubq_f64(vld1q_f64(v + i), vm);
        float64x2_t d2 = vmulq_f64(d, d);
        ss += vgetq_lane_f64(d2, 0);
        ss += vgetq_lane_f64(d2, 1);
    }
    for (; i < n; ++i) {
        double d = v[i] - m;
        ss += d * d;
    }
    return ss;
}

} // anonymous namespace

const KernelTable &
neonTable()
{
    static const KernelTable table = {
        &mergeSortedNeon,
        &ksSortedNeon,
        &sumSquaredDeviationsNeon,
    };
    return table;
}

} // namespace detail
} // namespace simd
} // namespace sharp

#endif // defined(__aarch64__)

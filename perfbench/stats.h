// Statistics helpers for the benchmark: medians, tail percentiles that are
// only reported with enough samples beyond them, geometric means, and the
// open-loop generator's lateness accounting.
//
// A failed, shed or refused request is recorded as an infinite latency, so it
// sorts past every real sample and counts as missing any latency limit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer would make it the maximum of a handful of samples.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Median (mean of the two middle samples for an even count); NaN when empty.
inline double median(std::vector<double> v) {
    if (v.empty()) return kNaN;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Rank (1-based) of the nearest-rank q-quantile of n samples: ceil(q * n),
/// clamped to [1, n]. The small epsilon keeps 0.99 * 1000 at rank 990.
inline std::size_t quantile_rank(std::size_t n, double q) {
    const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1, n);
}

/// Samples strictly beyond the nearest-rank q-quantile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
    return n == 0 ? 0 : n - quantile_rank(n, q);
}

/// True when a q-quantile of n samples has enough samples beyond it to print.
inline bool tail_eligible(std::size_t n, double q) {
    return samples_beyond(n, q) >= kMinSamplesBeyond;
}

/// Nearest-rank q-quantile; NaN when empty. Infinite samples sort last.
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) return kNaN;
    std::sort(v.begin(), v.end());
    return v[quantile_rank(v.size(), q) - 1];
}

/// Geometric mean; NaN when empty or when any value is not positive.
inline double geomean(const std::vector<double>& v) {
    if (v.empty()) return kNaN;
    double log_sum = 0.0;
    for (const double x : v) {
        if (!(x > 0.0)) return kNaN;
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/// How late an open-loop generator sent its requests: send - due, in ms.
struct Lateness {
    std::size_t samples = 0;
    double p50_ms = kNaN;
    double p99_ms = kNaN; ///< NaN unless tail_eligible(samples, 0.99)
};

/// Lateness of each request, given due and actual send times in ms on one
/// clock. A request sent early (clock jitter) counts as on time.
inline Lateness lateness(const std::vector<double>& due_ms,
                         const std::vector<double>& sent_ms) {
    std::vector<double> late;
    late.reserve(std::min(due_ms.size(), sent_ms.size()));
    for (std::size_t i = 0; i < due_ms.size() && i < sent_ms.size(); ++i)
        late.push_back(std::max(0.0, sent_ms[i] - due_ms[i]));
    Lateness out;
    out.samples = late.size();
    if (late.empty()) return out;
    out.p50_ms = median(late);
    if (tail_eligible(late.size(), 0.99)) out.p99_ms = quantile(late, 0.99);
    return out;
}

/// True when the generator, not the system under test, fell behind: its
/// median lateness exceeds `budget_ms` (the whole schedule slipped), or its
/// p99 lateness (when eligible) exceeds ten times that. Due-time latencies
/// are then not the system's. Shorter tail stalls hit the generator and the
/// daemon alike (the host deschedules either) and are reported, not judged.
inline bool generator_fell_behind(const Lateness& l, double budget_ms) {
    if (l.samples == 0) return false;
    if (l.p50_ms > budget_ms) return true;
    return !std::isnan(l.p99_ms) && l.p99_ms > 10.0 * budget_ms;
}

} // namespace perfbench

// Deterministic fault injection for the compiler's fallback paths.
//
// Every degradation rung in the pipeline (synthesis throw -> keep original
// gates; GRAPE non-finite -> reseed then gate-by-gate pulses; infeasible
// latency search -> ladder; ...) is guarded by a *named injection site*:
//
//     if (util::fault::maybe_fail("grape.nonfinite")) { ...poison... }
//     util::fault::maybe_throw("synth.block");
//
// Disabled (the default), a site costs a single relaxed atomic load — the
// same contract as the tracer — so production binaries carry the sites for
// free. Tests and chaos runs arm sites with a spec string:
//
//     util::fault::configure("synth.block=*;grape.nonfinite=2");
//
// or via the EPOC_FAULT_INJECT environment variable (same grammar), which
// `configure_from_env()` reads. Triggers are deterministic functions of the
// per-site arrival counter, never of wall clock or unseeded randomness:
//
//     site=*      fire on every arrival
//     site=N      fire on exactly the Nth arrival (1-based)
//     site=N+     fire on the Nth and every later arrival
//     site=%K@S   fire when splitmix64(S ^ arrival) % K == 0 — a seeded
//                 pseudo-random ~1/K rate, reproducible across runs
//
// Arrival ordinals are global atomics: with num_threads > 1 *which* block
// observes ordinal N is scheduling-dependent, so ordinal triggers belong in
// single-threaded tests; `*` and `N+`-from-1 are thread-count-agnostic.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace epoc::util {

/// SplitMix64's finalizer: a well-mixed 64-bit hash, so a modulus of it is
/// uniform even over structured inputs (arrival ordinals, sequential block
/// indices, FNV digests of similar keys). It drives the %K@S trigger,
/// sampled verification's selection and the service client's reconnect
/// jitter; changing it changes which arrivals, blocks and delays they pick.
inline std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace epoc::util

namespace epoc::util::fault {

/// The exception thrown by maybe_throw() when its site fires. Deliberately a
/// std::runtime_error subtype: the pipeline's fallbacks must treat it like
/// any real failure, but tests can assert on the concrete type.
struct InjectedFault : std::runtime_error {
    explicit InjectedFault(const std::string& site)
        : std::runtime_error("injected fault at site '" + site + "'"), site_name(site) {}
    std::string site_name;
};

namespace detail {
extern std::atomic<bool> g_enabled;
bool maybe_fail_slow(const char* site);
} // namespace detail

/// True when any site is armed (one relaxed load).
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

/// Record an arrival at `site` and return true when its trigger fires.
/// Disabled harness: a single relaxed load, no side effects.
inline bool maybe_fail(const char* site) {
    return detail::g_enabled.load(std::memory_order_relaxed) &&
           detail::maybe_fail_slow(site);
}

/// maybe_fail(), but throws InjectedFault when the site fires.
inline void maybe_throw(const char* site) {
    if (maybe_fail(site)) throw InjectedFault(site);
}

/// Arm the harness with a spec string (grammar above). Replaces any previous
/// configuration and resets all counters; an empty spec disables the harness.
/// Throws std::invalid_argument on a malformed spec.
void configure(const std::string& spec);

/// configure() from the EPOC_FAULT_INJECT environment variable (no-op when
/// unset or empty). Call once at process start to chaos-test any binary.
void configure_from_env();

/// Disarm every site and reset all counters.
void clear();

/// Total arrivals observed at `site` since the last configure()/clear().
/// Counted for every site while the harness is enabled, armed or not — tests
/// use this to prove an injection site is actually on the executed path.
std::size_t arrivals(const std::string& site);

/// How many of those arrivals fired.
std::size_t fired(const std::string& site);

} // namespace epoc::util::fault

// Compilation plan cache: hoisting the front end out of the variational
// iteration loop.
//
// A CompilationPlan is the part of a compile that depends only on the
// circuit's *structure* (circuit/structure.h) and is expensive: the ZX-
// optimized, synthesized skeleton circuit with rotation angles replaced by
// slot sentinels, plus the bindings that put a fresh angle vector back in. On
// a plan hit, compile() binds the new angles into the skeleton in place of
// running ZX, partitioning and synthesis, then runs the same pulse stage as a
// cold compile — regroup (a structural pass costing microseconds), its
// oracle, and both pulse arms. Regroup and partition read only gate kinds and
// qubits, so the bound skeleton regroups exactly as the sentinel one would.
//
// Reuse safety follows the repo's established cache rules:
//   * Keys come from strip_parameters(): any structural edit changes the
//     key, so a plan can never be applied to a different wiring.
//   * Only clean builds are cached. A build whose front end degrades on any
//     segment (deadline expiry, an injected fault, a failed stage audit)
//     throws instead of returning, the single-flight slot is erased, and the
//     compile falls back to the ordinary cold pipeline — the cache-poisoning
//     rule of the pulse and synthesis caches, applied to plans.
//   * The regroup oracle runs on every compile, plan hits included, over the
//     bound skeleton.
//
// Warm-start state (the AccQOC-style GRAPE seeding of the satellite pulse
// path) lives on the plan as *advisory* mutable slots keyed by block/gate
// index: the previous iterate's amplitudes seed the next miss's optimizer.
// It is deliberately NOT part of any cache key (pulse-library keys exclude
// warm_amplitudes already) and is never persisted — see PulseLibrary's
// warm-started write-back skip.
#pragma once

#include "circuit/structure.h"

#include <cstddef>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace epoc::core {

/// Mutable per-plan warm-start state: the latest authoritative amplitudes
/// produced for each block (or fine-grained gate) index. Thread-safe; lives
/// on an otherwise-immutable CompilationPlan, so every member is usable
/// through a const reference. Advisory only: cleared state or a missed index
/// simply means a cold GRAPE start.
class WarmSlots {
public:
    WarmSlots() = default;
    // Plans move through the single-flight cache once, before any sharing;
    // the mutex is state-free so moving just the table is sound.
    WarmSlots(WarmSlots&& other) noexcept : slots_(std::move(other.slots_)) {}
    WarmSlots& operator=(WarmSlots&& other) noexcept {
        slots_ = std::move(other.slots_);
        return *this;
    }

    void put(std::size_t index, std::vector<std::vector<double>> amplitudes) const;

    /// The stored amplitudes for `index`, empty when none were recorded.
    std::vector<std::vector<double>> get(std::size_t index) const;

    std::size_t size() const;

private:
    mutable std::mutex mutex_;
    mutable std::unordered_map<std::size_t, std::vector<std::vector<double>>> slots_;
};

/// The reusable front-end product for one circuit structure, cached in a
/// util::ShardedFlightCache<CompilationPlan> (single-flight: concurrent
/// compiles of one structure run one build). Immutable once cached except
/// for the advisory warm-start slots.
struct CompilationPlan {
    /// ZX-optimized + synthesized template circuit; parametric gates carry
    /// slot sentinels (circuit/structure.h) where the input had angles.
    circuit::Circuit skeleton{0};
    /// Bindings into `skeleton` for a fresh angle vector.
    std::vector<circuit::ParamBinding> bindings;

    // Stage diagnostics frozen at build time (angle-independent by
    // construction, so every instantiation reports the same numbers a cold
    // compile of the same structure would).
    int depth_after_zx = 0;
    std::size_t partition_blocks = 0;

    // Advisory warm-start state, keyed by skeleton gate index (fine arm) and
    // regroup block index (grouped arm). Mutable by design; see header
    // comment.
    WarmSlots fine_warm;
    WarmSlots group_warm;
};

} // namespace epoc::core

// Comparator pipelines for Table 1 and Figures 8-10.
//
//  * GateBasedCompiler  -- the traditional flow: lower to {rz, sx, x, cx} and
//    play one calibrated pulse per gate (rz is virtual / zero-duration).
//  * PaqocLikeCompiler  -- PAQOC (HPCA'23) stand-in: gate-level greedy
//    grouping of the *original* circuit (no ZX, no synthesis) and one QOC
//    pulse per group; the pulse library models its pattern reuse.
//  * AccqocLikeCompiler -- AccQOC (ISCA'20) stand-in: fixed two-qubit slicing
//    plus the similarity-graph MST ordering, warm-starting each GRAPE run
//    from its MST parent's pulse.
//
// All three reuse EpocResult so the benches can print one table.
#pragma once

#include "epoc/pipeline.h"

#include <chrono>
#include <map>
#include <vector>

namespace epoc::core {

/// What the three comparators share: a pulse library, the device's block
/// Hamiltonians by width, and the tail that schedules the jobs into an
/// EpocResult.
class BaselineCompiler {
public:
    qoc::PulseLibrary& library() { return library_; }

protected:
    explicit BaselineCompiler(const qoc::DeviceParams& device);
    /// The device's `nq`-qubit block Hamiltonian, built once per width.
    const qoc::BlockHamiltonian& hamiltonian(int nq);
    /// `res` for circuit `c` with its schedule of `jobs`, the compile time
    /// since `t0` and the library's stats filled in.
    EpocResult finish(const circuit::Circuit& c, EpocResult res, const std::vector<PulseJob>& jobs,
                      std::chrono::steady_clock::time_point t0) const;

    qoc::PulseLibrary library_;

private:
    qoc::DeviceParams device_;
    std::map<int, qoc::BlockHamiltonian> hams_;
};

class GateBasedCompiler : public BaselineCompiler {
public:
    explicit GateBasedCompiler(qoc::DeviceParams device = {},
                               qoc::LatencySearchOptions latency = {});
    EpocResult compile(const circuit::Circuit& c);

private:
    qoc::LatencySearchOptions latency_;
};

struct PaqocOptions {
    /// PAQOC mines small gate patterns (program-aware basis gates of a few
    /// gates each); max_gates models that pattern granularity.
    partition::PartitionOptions partition{/*max_qubits=*/2, /*max_gates=*/4};
    qoc::DeviceParams device;
    qoc::LatencySearchOptions latency;
};

class PaqocLikeCompiler : public BaselineCompiler {
public:
    explicit PaqocLikeCompiler(PaqocOptions opt = {});
    EpocResult compile(const circuit::Circuit& c);

private:
    PaqocOptions opt_;
};

struct AccqocOptions {
    int slice_gates = 4; ///< vertical slice size over 2-qubit groups
    qoc::DeviceParams device;
    qoc::LatencySearchOptions latency;
    bool use_mst = true;
};

class AccqocLikeCompiler : public BaselineCompiler {
public:
    explicit AccqocLikeCompiler(AccqocOptions opt = {});
    EpocResult compile(const circuit::Circuit& c);

private:
    AccqocOptions opt_;
};

} // namespace epoc::core

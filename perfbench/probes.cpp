// Kernel-level layer probes: one call into each layer's public functions on
// fixed inputs, timed from outside. They are the same in every workload's
// traced run, so a kernel change shows here before it shows end to end.
#include "harness.h"

#include "bench_circuits/generators.h"
#include "circuit/unitary.h"
#include "linalg/expm.h"
#include "linalg/random_unitary.h"
#include "partition/partition.h"
#include "qoc/grape.h"
#include "qoc/hamiltonian.h"
#include "service/protocol.h"
#include "synthesis/qsearch.h"
#include "zx/optimize.h"

#include <stdexcept>

namespace perfbench {

using namespace epoc;

namespace {

/// GRAPE iterations per probe: the target is unreachable, so each call runs
/// exactly this many.
constexpr int kGrapeIterations = 30;
constexpr int kGrapeSlots = 20;

/// Block Hamiltonian at full drive: drift plus every control at half bound.
linalg::Matrix driven_hamiltonian(const qoc::BlockHamiltonian& h) {
    linalg::Matrix m = h.drift;
    for (const qoc::ControlLine& c : h.controls) m += c.h * linalg::cplx(0.5 * c.bound, 0.0);
    return m;
}

} // namespace

void run_layer_probes(Report& report, Spans& spans, const std::string& qasm) {
    // Each probe runs once under its own span and returns its measurement.
    const auto probe = [&](const std::string& name, auto&& fn) {
        const auto t0 = Clock::now();
        const double v = fn();
        spans.add("probe " + name, 0, 0, t0, Clock::now());
        return v;
    };
    volatile double sink = 0;
    for (const int nq : {1, 2, 3}) {
        const std::string d = "d" + std::to_string(1 << nq);
        const qoc::BlockHamiltonian h = qoc::make_block_hamiltonian(nq);
        const linalg::Matrix hm = driven_hamiltonian(h);
        const double expm_us = probe("expm " + d, [&] {
            return time_per_call_us([&] { sink = sink + linalg::exp_i(hm, h.dt)(0, 0).real(); });
        });
        report.metric("linalg.expm_us." + d, expm_us, 7);
        if (nq > 1) {
            const linalg::Matrix a = linalg::random_unitary(std::size_t{1} << nq, 11);
            const linalg::Matrix b = linalg::random_unitary(std::size_t{1} << nq, 12);
            const double matmul_us = probe("matmul " + d, [&] {
                return time_per_call_us([&] { sink = sink + (a * b)(0, 0).real(); });
            });
            report.metric("linalg.matmul_ns." + d, 1000.0 * matmul_us, 7);
        }
        const linalg::Matrix target = linalg::random_unitary(std::size_t{1} << nq, 21);
        qoc::GrapeOptions gopt;
        gopt.max_iterations = kGrapeIterations;
        gopt.target_fidelity = 2.0; // unreachable: every call runs all iterations
        const double grape_us = probe("grape " + d, [&] {
            return time_per_call_us(
                [&] {
                    const qoc::Pulse p = qoc::grape_optimize(h, target, kGrapeSlots, gopt);
                    if (p.grape_iterations != kGrapeIterations)
                        throw std::runtime_error("grape probe stopped early");
                    sink = sink + p.fidelity;
                },
                150.0);
        });
        report.metric("qoc.grape_iter_us." + d, grape_us / kGrapeIterations, 7);
    }

    // One QSearch, with the suite's synthesis options, of a fixed 3-qubit
    // block of the pack_start set: the first one the pipeline's ZX pass and
    // partitioner cut from ising4.
    const core::EpocOptions suite = suite_options(1);
    linalg::Matrix block;
    for (const partition::CircuitBlock& b : partition::greedy_partition(
             zx::zx_optimize(bench::ising(4, 1)).circuit, suite.partition))
        if (b.qubits.size() == 3 && block.empty()) block = circuit::circuit_unitary(b.body);
    if (block.empty()) throw std::runtime_error("qsearch probe: no 3-qubit block in ising4");
    const double qsearch_ms = probe("qsearch b3", [&] {
        const auto t0 = Clock::now();
        sink = sink + synthesis::qsearch_synthesize(block, suite.qsearch).distance;
        return ms_between(t0, Clock::now());
    });
    report.metric("synthesis.qsearch_ms.b3", qsearch_ms, 1);

    // Service codec: one request/response pair carrying the workload's circuit.
    service::JobRequest req;
    req.id = 7;
    req.tenant = "tenant";
    req.qasm = qasm;
    service::JobResponse resp;
    resp.id = 7;
    resp.status = service::JobStatus::ok;
    resp.digest = 0x0123456789abcdefULL;
    resp.latency_ns = 150.0;
    resp.esp = 0.97;
    resp.compile_ms = 0.5;
    const double codec_us = probe("codec", [&] {
        return time_per_call_us([&] {
            const auto rq = service::decode_job_request(service::encode_job_request(req));
            const auto rs = service::decode_job_response(service::encode_job_response(resp));
            if (!rq || !rs) throw std::runtime_error("codec probe failed to decode");
            sink = sink + static_cast<double>(rq->qasm.size() + rs->id);
        });
    });
    report.metric("service.codec_us", codec_us, 7);
}

} // namespace perfbench

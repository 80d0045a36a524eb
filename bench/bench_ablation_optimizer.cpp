// Ablation: GRAPE vs CRAB (the two QOC algorithms the paper names in
// Section 2.4) on the same targets, slots and fidelity goal. GRAPE optimizes
// every slot freely; CRAB is band-limited, trading convergence speed for
// hardware-friendly waveforms.
#include "circuit/circuit.h"
#include "circuit/unitary.h"
#include "qoc/crab.h"
#include "qoc/grape.h"
#include "util/deadline.h"

#include <chrono>
#include <cstdio>

int main() {
    using namespace epoc;
    using util::ms_since;
    std::printf("Ablation: GRAPE vs CRAB at equal slot budget (target fidelity 0.999)\n\n");
    std::printf("%-14s %6s | %10s %10s | %10s %10s\n", "target", "slots", "grape-fid",
                "grape-ms", "crab-fid", "crab-ms");

    struct Case {
        const char* name;
        linalg::Matrix u;
        int nq;
        int slots;
    };
    circuit::Circuit bell(2);
    bell.h(0).cx(0, 1);
    const Case cases[] = {
        {"x", circuit::pauli_x(), 1, 8},
        {"hadamard", circuit::hadamard(), 1, 8},
        {"sx", circuit::kind_matrix(circuit::GateKind::SX, {}), 1, 6},
        {"cnot", circuit::kind_matrix(circuit::GateKind::CX, {}), 2, 24},
        {"bell-block", circuit::circuit_unitary(bell), 2, 24},
    };
    for (const Case& c : cases) {
        const auto h = qoc::make_block_hamiltonian(c.nq);
        qoc::GrapeOptions gopt;
        gopt.target_fidelity = 0.999;
        gopt.max_iterations = 400;
        auto t0 = std::chrono::steady_clock::now();
        const qoc::Pulse pg = qoc::grape_optimize(h, c.u, c.slots, gopt);
        const double gms = ms_since(t0);

        qoc::CrabOptions copt;
        copt.target_fidelity = 0.999;
        copt.max_iterations = 400;
        t0 = std::chrono::steady_clock::now();
        const qoc::Pulse pc = qoc::crab_optimize(h, c.u, c.slots, copt);
        const double cms = ms_since(t0);

        std::printf("%-14s %6d | %10.5f %10.1f | %10.5f %10.1f\n", c.name, c.slots,
                    pg.fidelity, gms, pc.fidelity, cms);
    }
    std::printf("\nGRAPE converges faster per iteration budget; CRAB stays band-limited\n"
                "(see test_crab.PulseIsBandLimited).\n");
    return 0;
}

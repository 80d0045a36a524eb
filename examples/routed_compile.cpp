// Full traditional-flow demo (paper Figure 1 left column, then EPOC):
// parse an OpenQASM program, compile it onto a coupled device with EPOC and
// print the timeline.
//
// Usage: routed_compile [program.qasm] [--backend NAME]
//   The compiler itself is topology-aware: there is no pre-routing pass.
//   The partitioner keeps blocks on coupling-connected qubits and bridges
//   non-adjacent gates along shortest paths, and every pulse is optimized
//   against the backend's edge-resolved Hamiltonians. --backend NAME picks
//   the device (linear-5, ring-8, grid-3x3, heavy-hex-7, full-N); without
//   it the program compiles on a linear chain of its own width (the typical
//   transmon line).
#include "backend/backend.h"
#include "circuit/qasm.h"
#include "epoc/export.h"
#include "epoc/pipeline.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

int main(int argc, char** argv) {
    using namespace epoc;

    std::string qasm_path;
    std::string backend_name;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
            backend_name = argv[++i];
        } else if (argv[i][0] != '-' && qasm_path.empty()) {
            qasm_path = argv[i];
        } else {
            std::fprintf(stderr, "usage: %s [program.qasm] [--backend NAME]\n",
                         argv[0]);
            return 2;
        }
    }

    circuit::Circuit logical;
    if (!qasm_path.empty()) {
        try {
            logical = circuit::parse_qasm_file(qasm_path);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
        std::printf("parsed %s: %d qubits, %zu gates\n", qasm_path.c_str(),
                    logical.num_qubits(), logical.size());
    } else {
        // Default program: a QFT-style circuit written inline as QASM.
        const std::string src = R"(
OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[3];
cu1(pi/2) q[2],q[3];
h q[2];
cu1(pi/4) q[1],q[3];
cu1(pi/2) q[1],q[2];
h q[1];
cu1(pi/8) q[0],q[3];
cu1(pi/4) q[0],q[2];
cu1(pi/2) q[0],q[1];
h q[0];
)";
        logical = circuit::parse_qasm(src);
        std::printf("inline QFT program: %d qubits, %zu gates, depth %d\n",
                    logical.num_qubits(), logical.size(), logical.depth());
    }

    std::shared_ptr<const backend::Backend> be;
    if (!backend_name.empty()) {
        backend::BackendRegistry registry;
        be = registry.find(backend_name);
        if (be == nullptr) {
            std::fprintf(stderr, "unknown backend '%s'; built-ins:",
                         backend_name.c_str());
            for (const std::string& n : registry.names())
                std::fprintf(stderr, " %s", n.c_str());
            std::fprintf(stderr, " full-N\n");
            return 2;
        }
        if (logical.num_qubits() > be->coupling.num_qubits()) {
            std::fprintf(stderr, "program needs %d qubits but backend '%s' has %d\n",
                         logical.num_qubits(), be->name.c_str(),
                         be->coupling.num_qubits());
            return 2;
        }
    } else {
        const int n = std::max(1, logical.num_qubits());
        be = std::make_shared<const backend::Backend>("linear-" + std::to_string(n),
                                                      circuit::CouplingMap::linear(n));
    }
    std::printf("backend %s: %d qubits, %zu edges — compiling topology-aware "
                "(no pre-routing pass)\n",
                be->name.c_str(), be->coupling.num_qubits(), be->coupling.edges().size());

    core::EpocCompiler compiler;
    core::CompileCallOptions call;
    call.backend = be;
    const core::EpocResult r = compiler.compile(logical, call);
    std::printf("\nEPOC pulse schedule: latency %.1f ns, ESP %.4f (with decoherence %.4f)\n\n",
                r.latency_ns, r.esp, r.esp_decoherent);
    std::printf("%s\n", core::ascii_timeline(r.schedule).c_str());
    std::printf("JSON export:\n%s\n", core::schedule_to_json(r.schedule).c_str());
    return 0;
}

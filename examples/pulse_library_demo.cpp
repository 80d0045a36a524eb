// Pulse-library demo (paper Section 3.4): the lookup table that accelerates
// repeated QOC, the benefit of EPOC's global-phase-aware matching, and the
// persistent on-disk tier that lets the table outlive the process.
#include "circuit/gate.h"
#include "qoc/pulse_library.h"
#include "store/pulse_store.h"

#include <complex>
#include <cstdio>
#include <filesystem>

int main() {
    using namespace epoc;
    const auto h1 = qoc::make_block_hamiltonian(1);
    qoc::LatencySearchOptions opt;
    opt.fidelity_threshold = 0.995;

    qoc::PulseLibrary phase_aware(true);
    qoc::PulseLibrary phase_oblivious(false);

    const linalg::Matrix gates[] = {
        circuit::hadamard(),
        circuit::pauli_x(),
        circuit::kind_matrix(circuit::GateKind::SX, {}),
    };

    std::printf("generating pulses for 3 gates and 3 phase-shifted copies...\n\n");
    for (const auto& g : gates) {
        const auto r = phase_aware.get_or_generate(h1, g, opt);
        phase_oblivious.get_or_generate(h1, g, opt);
        std::printf("  pulse: %2d slots, %5.1f ns, fidelity %.4f\n", r->pulse.num_slots(),
                    r->pulse.duration(), r->pulse.fidelity);
    }
    for (const auto& g : gates) {
        linalg::Matrix shifted = g;
        shifted *= std::polar(1.0, 0.9); // same operation, different global phase
        phase_aware.get_or_generate(h1, shifted, opt);
        phase_oblivious.get_or_generate(h1, shifted, opt);
    }

    std::printf("\nphase-aware lookup (EPOC):      %zu entries, hit rate %.0f%%\n",
                phase_aware.size(), 100.0 * phase_aware.stats().hit_rate());
    std::printf("phase-oblivious lookup (prior): %zu entries, hit rate %.0f%%\n",
                phase_oblivious.size(), 100.0 * phase_oblivious.stats().hit_rate());
    std::printf("\nEPOC recognises phase-shifted duplicates; the exact-matrix table\n"
                "regenerates every one of them from scratch.\n");

    // --- Act two: persistence. The in-memory table dies with the process;
    // the on-disk store (store/pulse_store.h) does not. Fill it through one
    // library, throw that library away, and watch a brand-new one promote
    // every entry from disk without a single GRAPE run.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "epoc-pulse-store-demo";
    std::printf("\npersistent store demo (dir: %s)\n", dir.string().c_str());
    store::PulseStore store({dir.string()});
    {
        qoc::PulseLibrary writer(true);
        writer.set_store(&store);
        for (const auto& g : gates) writer.get_or_generate(h1, g, opt);
        std::printf("  writer library:  %zu generated, %zu written to disk "
                    "(%zu already there)\n",
                    writer.stats().store_misses, writer.stats().store_writes,
                    writer.stats().store_hits);
    } // writer's in-memory table is gone here

    qoc::PulseLibrary reader(true); // cold memory, warm disk
    reader.set_store(&store);
    for (const auto& g : gates) reader.get_or_generate(h1, g, opt);
    std::printf("  fresh library:   %zu disk hits, %zu GRAPE runs -- every pulse\n"
                "                   promoted from the store, bit-identical to the\n"
                "                   run that wrote it\n",
                reader.stats().store_hits, reader.stats().store_misses);
    std::printf("  store totals:    hits=%zu misses=%zu writes=%zu (%llu bytes)\n",
                store.stats().hits, store.stats().misses, store.stats().writes,
                static_cast<unsigned long long>(store.stats().bytes));
    std::printf("\nre-run this demo: the writer library now reports disk hits too.\n"
                "EpocOptions::pulse_store_dir arms the same tier inside the full\n"
                "compiler.\n");
    return 0;
}

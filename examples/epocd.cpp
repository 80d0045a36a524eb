// epocd: the EPOC compile-service daemon.
//
// Starts a long-running compile service on a local (AF_UNIX) socket and
// serves jobs from any number of epocd_client processes until one of them
// sends a shutdown request — or the process receives SIGTERM/SIGINT, which
// triggers the same graceful drain: stop admitting, answer queued jobs as
// cancelled, flush responses to connected clients, exit 0. All clients share
// one compiler — one pulse library, synthesis cache and plan cache — so
// identical blocks from different clients are GRAPE'd exactly once (the
// status endpoint's qoc.library_misses counts unique work, not requests).
//
// Usage: epocd --socket PATH [options]
//   --socket PATH       listening socket path (default /tmp/epocd.sock)
//   --executors N       concurrent compile jobs (default 2)
//   --threads N         compiler worker threads per job batch (default 0 =
//                       hardware concurrency)
//   --max-pending N     admission bound on queued+running jobs (default 256)
//   --store DIR         attach the persistent pulse store
//   --pack-dir DIR      layer a read-only shared pack directory (immutable
//                       *.pack warm-library segments) behind the store
//                       (repeatable, probed in order; requires --store);
//                       hit rates appear in the status endpoint as
//                       store.pack.* counters
//   --drain-ms MS       shutdown drain budget: how long stop() waits for
//                       executors to answer the queue (default 10000)
//   --fast              cheap search settings (CI/smoke: same flag on the
//                       client keeps library-mode digests comparable)
//   --backend-json FILE register a custom hardware backend from a JSON file
//                       (repeatable) on top of the built-in registry; jobs
//                       name it via the client's --backend flag
//
// Exits 0 on a clean shutdown (client-requested or signal-driven); prints
// the final counter snapshot on the way out.
#include "service/daemon.h"

#include "backend/backend.h"
#include "util/fault_injection.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>

namespace {

void apply_fast_options(epoc::core::EpocOptions& opt) {
    // Must match epocd_client's --fast exactly: digest comparisons between
    // daemon compiles and the client's local library-mode compiles are only
    // meaningful when both compilers run the same search configuration.
    opt.latency.fidelity_threshold = 0.99;
    opt.latency.grape.max_iterations = 120;
    opt.qsearch.threshold = 1e-4;
    opt.qsearch.instantiate.restarts = 2;
}

// Signal handlers may only touch lock-free state: set the flag, return, and
// let the main loop (which polls between bounded waits) drive the drain.
std::atomic<int> g_signal{0};

extern "C" void on_signal(int sig) { g_signal.store(sig); }

} // namespace

int main(int argc, char** argv) {
    epoc::service::DaemonOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--socket" && has_value) {
            opt.socket_path = argv[++i];
        } else if (arg == "--executors" && has_value) {
            opt.num_executors = std::atoi(argv[++i]);
        } else if (arg == "--threads" && has_value) {
            opt.compiler.num_threads = std::atoi(argv[++i]);
        } else if (arg == "--max-pending" && has_value) {
            opt.admission.max_pending =
                static_cast<std::size_t>(std::atol(argv[++i]));
        } else if (arg == "--store" && has_value) {
            opt.compiler.pulse_store_dir = argv[++i];
        } else if (arg == "--pack-dir" && has_value) {
            opt.compiler.pulse_pack_dirs.push_back(argv[++i]);
        } else if (arg == "--drain-ms" && has_value) {
            opt.drain_ms = std::atof(argv[++i]);
        } else if (arg == "--fast") {
            apply_fast_options(opt.compiler);
        } else if (arg == "--backend-json" && has_value) {
            const char* path = argv[++i];
            std::ifstream in(path);
            if (!in) {
                std::fprintf(stderr, "epocd: cannot read backend file %s\n", path);
                return 2;
            }
            std::ostringstream text;
            text << in.rdbuf();
            if (opt.backends == nullptr)
                opt.backends = std::make_shared<epoc::backend::BackendRegistry>();
            try {
                const auto be = opt.backends->register_json(text.str());
                std::printf("epocd: registered backend '%s' (%d qubits)\n",
                            be->name.c_str(), be->coupling.num_qubits());
            } catch (const std::exception& e) {
                std::fprintf(stderr, "epocd: bad backend file %s: %s\n", path,
                             e.what());
                return 2;
            }
        } else {
            std::fprintf(stderr, "epocd: unknown or incomplete option: %s\n",
                         arg.c_str());
            return 2;
        }
    }

    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    // Chaos hook: EPOC_FAULT_INJECT arms transport/store fault sites (the
    // chaos-soak CI job runs the daemon with service.* sites at a few
    // percent and still demands bit-identical digests from retrying clients).
    epoc::util::fault::configure_from_env();

    try {
        epoc::service::EpocDaemon daemon(opt);
        daemon.start();
        std::printf("epocd: listening on %s (executors=%d)\n",
                    daemon.socket_path().c_str(), opt.num_executors);
        std::fflush(stdout);
        // Serve until a client's shutdown request or a signal. The bounded
        // wait is the polling point the async-signal-safety rule forces:
        // the handler only sets g_signal, this loop notices within ~100ms.
        while (!daemon.wait_for(100.0)) {
            if (g_signal.load() != 0) break;
        }
        const int sig = g_signal.load();
        if (sig != 0)
            std::printf("epocd: caught signal %d, draining\n", sig);
        else
            std::printf("epocd: shutdown requested, draining\n");
        std::fflush(stdout);
        const auto t0 = std::chrono::steady_clock::now();
        daemon.stop();
        const double drain_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        std::printf("epocd: drained in %.0f ms\n", drain_ms);
        for (const auto& [key, value] : daemon.status().counters)
            std::printf("epocd: %s = %llu\n", key.c_str(),
                        static_cast<unsigned long long>(value));
        std::printf("epocd: clean exit\n");
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "epocd: fatal: %s\n", e.what());
        return 1;
    }
}

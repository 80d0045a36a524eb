#include "epoc/export.h"

#include "util/trace.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace epoc::core {

namespace {

/// JSON has no NaN/inf tokens; a bare `nan` from ostream would make the whole
/// document unparseable. Degraded schedules can carry non-finite fidelities
/// (the fidelity-0 placeholder path's intermediates), so every numeric field
/// goes through here: non-finite serializes as null, which consumers can
/// detect without choking.
void json_number_into(std::ostringstream& os, double v) {
    if (std::isfinite(v))
        os << v;
    else
        os << "null";
}

} // namespace

std::string schedule_to_json(const PulseSchedule& s) {
    std::ostringstream os;
    os.precision(12);
    os << "{\"num_qubits\":" << s.num_qubits << ",\"latency_ns\":";
    json_number_into(os, s.latency);
    os << ",\"esp\":";
    json_number_into(os, s.esp);
    os << ",\"pulses\":[";
    for (std::size_t i = 0; i < s.pulses.size(); ++i) {
        const ScheduledPulse& p = s.pulses[i];
        if (i) os << ",";
        os << "{\"label\":\"";
        util::json_escape_into(os, p.job.label);
        os << "\",\"qubits\":[";
        for (std::size_t q = 0; q < p.job.qubits.size(); ++q) {
            if (q) os << ",";
            os << p.job.qubits[q];
        }
        os << "],\"start_ns\":";
        json_number_into(os, p.start);
        os << ",\"duration_ns\":";
        json_number_into(os, p.job.duration);
        os << ",\"fidelity\":";
        json_number_into(os, p.job.fidelity);
        os << "}";
    }
    os << "]}";
    return os.str();
}

std::string ascii_timeline(const PulseSchedule& s, int columns) {
    std::ostringstream os;
    if (s.num_qubits == 0) return "(empty schedule)\n";
    // The axis footer prints `columns - 2` spaces; anything below 2 columns
    // underflowed to a multi-gigabyte string (size_t wraparound).
    columns = std::max(columns, 2);
    const double span = std::max(s.latency, 1e-9);
    const double per_col = span / columns;
    std::vector<std::string> rows(static_cast<std::size_t>(s.num_qubits),
                                  std::string(static_cast<std::size_t>(columns), '.'));
    for (const ScheduledPulse& p : s.pulses) {
        if (p.job.duration <= 0.0) continue;
        int c0 = static_cast<int>(std::floor(p.start / per_col));
        int c1 = static_cast<int>(std::ceil(p.end / per_col)) - 1;
        c0 = std::clamp(c0, 0, columns - 1);
        c1 = std::clamp(c1, c0, columns - 1);
        for (const int q : p.job.qubits)
            for (int col = c0; col <= c1; ++col)
                rows[static_cast<std::size_t>(q)][static_cast<std::size_t>(col)] = '#';
    }
    for (int q = 0; q < s.num_qubits; ++q) {
        os << "q" << q << (q < 10 ? "  |" : " |") << rows[static_cast<std::size_t>(q)]
           << "|\n";
    }
    os << "     0" << std::string(static_cast<std::size_t>(columns) - 2, ' ')
       << static_cast<long long>(std::llround(s.latency)) << " ns\n";
    return os.str();
}

} // namespace epoc::core

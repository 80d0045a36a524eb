#include "circuit/structure.h"

#include "linalg/phase.h"
#include "util/hash.h"

#include <cstdint>
#include <sstream>
#include <stdexcept>

namespace epoc::circuit {

namespace {

// 2^42 rad: far beyond any physical rotation angle, and every slot index up
// to 2^51 stays an exact integer offset in double.
constexpr double kSentinelBase = 4398046511104.0;

} // namespace

double slot_sentinel(std::size_t slot) {
    return kSentinelBase + static_cast<double>(slot);
}

bool is_slot_sentinel(double v) { return v >= kSentinelBase; }

std::size_t sentinel_slot(double v) {
    return static_cast<std::size_t>(v - kSentinelBase);
}

StrippedCircuit strip_parameters(const Circuit& c) {
    StrippedCircuit out;
    std::ostringstream key;
    // Register width is structural: ghz-on-3 and ghz-on-4 with identical gate
    // lists must not share a plan (schedules span the whole register).
    key << "q" << c.num_qubits();
    out.sentinel_template = c;
    std::size_t slot = 0;
    for (std::size_t gi = 0; gi < c.size(); ++gi) {
        const Gate& g = c.gate(gi);
        key << "|" << kind_name(g.kind);
        for (std::size_t i = 0; i < g.qubits.size(); ++i)
            key << (i == 0 ? " " : ",") << g.qubits[i];
        if (g.is_explicit_unitary() && g.matrix != nullptr) {
            // Attached unitaries are structure, fingerprinted exactly like
            // the pulse-library's phase-oblivious key so distinct matrices
            // never alias.
            key << "@" << std::hex << util::fnv1a64(linalg::raw_key(*g.matrix, 6))
                << std::dec;
            continue;
        }
        const int np = kind_num_params(g.kind);
        if (np <= 0) continue;
        ++out.parametric_gates;
        std::vector<double> stamped = g.params;
        for (int p = 0; p < np; ++p) {
            key << "#" << slot;
            out.params.push_back(stamped[static_cast<std::size_t>(p)]);
            stamped[static_cast<std::size_t>(p)] = slot_sentinel(slot++);
        }
        out.sentinel_template.set_gate_params(gi, std::move(stamped));
    }
    out.key = key.str();
    return out;
}

std::vector<ParamBinding> scan_bindings(const Circuit& c) {
    std::vector<ParamBinding> out;
    for (std::size_t i = 0; i < c.size(); ++i) {
        const Gate& g = c.gate(i);
        const int np = kind_num_params(g.kind);
        if (np <= 0 || g.params.empty() || !is_slot_sentinel(g.params.front()))
            continue;
        ParamBinding b;
        b.gate = i;
        b.slots.reserve(static_cast<std::size_t>(np));
        for (int p = 0; p < np && p < static_cast<int>(g.params.size()); ++p)
            b.slots.push_back(sentinel_slot(g.params[static_cast<std::size_t>(p)]));
        out.push_back(std::move(b));
    }
    return out;
}

void bind_parameters(Circuit& c, const std::vector<ParamBinding>& bindings,
                     const std::vector<double>& values) {
    for (const ParamBinding& b : bindings) {
        if (b.gate >= c.size())
            throw std::out_of_range("bind_parameters: gate index past the circuit");
        std::vector<double> params = c.gate(b.gate).params;
        if (b.slots.size() > params.size())
            throw std::out_of_range("bind_parameters: more slots than parameters");
        for (std::size_t k = 0; k < b.slots.size(); ++k)
            params[k] = values.at(b.slots[k]);
        c.set_gate_params(b.gate, std::move(params));
    }
}

} // namespace epoc::circuit

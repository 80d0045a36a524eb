#include "util/fault_injection.h"

#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <unordered_map>

namespace epoc::util::fault {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace {

struct Trigger {
    enum class Kind { always, nth, from_nth, rate } kind = Kind::always;
    std::size_t n = 1;        ///< ordinal for nth / from_nth
    std::uint64_t rate = 1;   ///< K for rate (fire ~1/K)
    std::uint64_t seed = 0;   ///< S for rate
};

struct Site {
    Trigger trigger;
    bool armed = false;
    std::size_t arrivals = 0;
    std::size_t fired = 0;
};

struct Registry {
    std::mutex mutex;
    std::unordered_map<std::string, Site> sites;
};

Registry& registry() {
    static Registry r;
    return r;
}

Trigger parse_trigger(const std::string& spec, const std::string& s) {
    const auto bad = [&] {
        throw std::invalid_argument("fault::configure: bad trigger '" + s + "' in spec '" +
                                    spec + "'");
    };
    Trigger t;
    if (s == "*") {
        t.kind = Trigger::Kind::always;
        return t;
    }
    try {
        if (s.front() == '%') {
            // %K@S
            const std::size_t at = s.find('@');
            if (at == std::string::npos) bad();
            t.kind = Trigger::Kind::rate;
            t.rate = std::stoull(s.substr(1, at - 1));
            t.seed = std::stoull(s.substr(at + 1));
            if (t.rate == 0) bad();
            return t;
        }
        if (s.back() == '+') {
            t.kind = Trigger::Kind::from_nth;
            t.n = std::stoull(s.substr(0, s.size() - 1));
        } else {
            t.kind = Trigger::Kind::nth;
            t.n = std::stoull(s);
        }
        if (t.n == 0) bad();
    } catch (const std::invalid_argument&) {
        bad();
    } catch (const std::out_of_range&) {
        bad();
    }
    return t;
}

bool fires(const Trigger& t, std::size_t arrival) {
    switch (t.kind) {
        case Trigger::Kind::always: return true;
        case Trigger::Kind::nth: return arrival == t.n;
        case Trigger::Kind::from_nth: return arrival >= t.n;
        case Trigger::Kind::rate:
            return splitmix64(t.seed ^ static_cast<std::uint64_t>(arrival)) % t.rate == 0;
    }
    return false;
}

} // namespace

namespace detail {

bool maybe_fail_slow(const char* site) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    Site& s = r.sites[site]; // unarmed sites still count arrivals
    ++s.arrivals;
    if (!s.armed || !fires(s.trigger, s.arrivals)) return false;
    ++s.fired;
    return true;
}

} // namespace detail

void configure(const std::string& spec) {
    Registry& r = registry();
    std::unordered_map<std::string, Site> sites;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t end = spec.find(';', pos);
        if (end == std::string::npos) end = spec.size();
        const std::string entry = spec.substr(pos, end - pos);
        pos = end + 1;
        if (entry.empty()) continue;
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos || eq == 0)
            throw std::invalid_argument("fault::configure: entry '" + entry +
                                        "' is not site=trigger");
        Site s;
        s.armed = true;
        s.trigger = parse_trigger(spec, entry.substr(eq + 1));
        sites.emplace(entry.substr(0, eq), std::move(s));
    }
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        r.sites = std::move(sites);
    }
    detail::g_enabled.store(!spec.empty(), std::memory_order_relaxed);
}

void configure_from_env() {
    const char* spec = std::getenv("EPOC_FAULT_INJECT");
    if (spec != nullptr && *spec != '\0') configure(spec);
}

void clear() { configure(""); }

std::size_t arrivals(const std::string& site) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    const auto it = r.sites.find(site);
    return it == r.sites.end() ? 0 : it->second.arrivals;
}

std::size_t fired(const std::string& site) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    const auto it = r.sites.find(site);
    return it == r.sites.end() ? 0 : it->second.fired;
}

} // namespace epoc::util::fault

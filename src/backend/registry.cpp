// BackendRegistry: built-in named devices plus JSON load/registration.
//
// The JSON reader is a deliberately small recursive-descent parser for the
// backend schema only (objects, arrays, strings, numbers, booleans) — the
// repo takes no third-party dependencies, and the full generality of JSON
// (escapes beyond the basics, huge nesting) is not needed for device files.
// Device files are untrusted input (epocd's --backend-json): nesting depth
// and device width are capped before any recursion or allocation could run
// away, every number read as an integer is range-checked before conversion,
// and every rejection is std::invalid_argument.
#include "backend/backend.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace epoc::backend {

namespace {

// ---------------------------------------------------------------- JSON value

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
    std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> v;

    bool is_object() const { return std::holds_alternative<JsonObject>(v); }
    bool is_array() const { return std::holds_alternative<JsonArray>(v); }
    bool is_number() const { return std::holds_alternative<double>(v); }
    bool is_string() const { return std::holds_alternative<std::string>(v); }
    bool is_bool() const { return std::holds_alternative<bool>(v); }
};

class JsonParser {
public:
    explicit JsonParser(const std::string& text) : s_(text) {}

    /// Deepest array/object nesting accepted; the backend schema needs 3.
    static constexpr int kMaxDepth = 32;

    JsonValue parse() {
        JsonValue v = value();
        skip_ws();
        if (pos_ != s_.size()) fail("trailing characters after JSON value");
        return v;
    }

private:
    const std::string& s_;
    std::size_t pos_ = 0;
    int depth_ = 0;

    /// Enters one array/object level for its scope, so the recursion stays
    /// bounded whatever the input.
    struct Nest {
        explicit Nest(JsonParser& p) : p_(p) {
            if (++p_.depth_ > kMaxDepth)
                p_.fail("nesting deeper than " + std::to_string(kMaxDepth));
        }
        ~Nest() { --p_.depth_; }
        JsonParser& p_;
    };

    [[noreturn]] void fail(const std::string& what) const {
        throw std::invalid_argument("backend JSON: " + what + " at offset " +
                                    std::to_string(pos_));
    }

    void skip_ws() {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])) != 0)
            ++pos_;
    }

    char peek() {
        if (pos_ >= s_.size()) fail("unexpected end of input");
        return s_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(const std::string& lit) {
        if (s_.compare(pos_, lit.size(), lit) != 0) return false;
        pos_ += lit.size();
        return true;
    }

    JsonValue value() {
        skip_ws();
        const char c = peek();
        if (c == '{') return object();
        if (c == '[') return array();
        if (c == '"') return JsonValue{string()};
        if (c == 't') {
            if (!consume_literal("true")) fail("bad literal");
            return JsonValue{true};
        }
        if (c == 'f') {
            if (!consume_literal("false")) fail("bad literal");
            return JsonValue{false};
        }
        if (c == 'n') {
            if (!consume_literal("null")) fail("bad literal");
            return JsonValue{nullptr};
        }
        return JsonValue{number()};
    }

    JsonValue object() {
        const Nest nest(*this);
        expect('{');
        JsonObject out;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return JsonValue{std::move(out)};
        }
        while (true) {
            skip_ws();
            std::string key = string();
            skip_ws();
            expect(':');
            out[std::move(key)] = value();
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return JsonValue{std::move(out)};
        }
    }

    JsonValue array() {
        const Nest nest(*this);
        expect('[');
        JsonArray out;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return JsonValue{std::move(out)};
        }
        while (true) {
            out.push_back(value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return JsonValue{std::move(out)};
        }
    }

    std::string string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= s_.size()) fail("unterminated string");
            const char c = s_[pos_++];
            if (c == '"') return out;
            if (c == '\\') {
                if (pos_ >= s_.size()) fail("unterminated escape");
                const char e = s_[pos_++];
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                default: fail("unsupported escape");
                }
            } else {
                out += c;
            }
        }
    }

    double number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        if (pos_ == start) fail("expected a number");
        try {
            std::size_t used = 0;
            const double d = std::stod(s_.substr(start, pos_ - start), &used);
            if (used != pos_ - start) fail("malformed number");
            return d;
        } catch (const std::invalid_argument&) {
            fail("malformed number");
        } catch (const std::out_of_range&) {
            fail("number out of range");
        }
    }
};

// ------------------------------------------------------------ schema readers

const JsonValue* get_field(const JsonObject& o, const std::string& key) {
    const auto it = o.find(key);
    return it == o.end() ? nullptr : &it->second;
}

double require_number(const JsonObject& o, const std::string& key) {
    const JsonValue* v = get_field(o, key);
    if (v == nullptr || !v->is_number())
        throw std::invalid_argument("backend JSON: missing numeric field '" + key + "'");
    return std::get<double>(v->v);
}

/// `d` as an int, range-checked before the conversion (which is undefined
/// behaviour for a value outside int, e.g. 1e300 or NaN).
int to_int(double d, const std::string& what) {
    if (!(d >= static_cast<double>(INT_MIN) && d <= static_cast<double>(INT_MAX)) ||
        std::trunc(d) != d)
        throw std::invalid_argument("backend JSON: " + what + " is not an integer");
    return static_cast<int>(d);
}

int require_int(const JsonObject& o, const std::string& key) {
    return to_int(require_number(o, key), "field '" + key + "'");
}

void read_optional_number(const JsonObject& o, const std::string& key, double& out) {
    if (const JsonValue* v = get_field(o, key)) {
        if (!v->is_number())
            throw std::invalid_argument("backend JSON: field '" + key +
                                        "' must be a number");
        out = std::get<double>(v->v);
    }
}

} // namespace

Backend backend_from_json(const std::string& text) {
    const JsonValue root = JsonParser(text).parse();
    if (!root.is_object())
        throw std::invalid_argument("backend JSON: top level must be an object");
    const JsonObject& o = std::get<JsonObject>(root.v);

    const JsonValue* name_v = get_field(o, "name");
    if (name_v == nullptr || !name_v->is_string())
        throw std::invalid_argument("backend JSON: missing string field 'name'");
    const int nq = require_int(o, "num_qubits");
    // Checked before any map is built: the coupling map's distance table
    // grows with the square of the width.
    if (nq < 1 || nq > kMaxBackendQubits)
        throw std::invalid_argument("backend JSON: 'num_qubits' must be in [1, " +
                                    std::to_string(kMaxBackendQubits) + "]");

    const JsonValue* edges_v = get_field(o, "edges");
    if (edges_v == nullptr || !edges_v->is_array())
        throw std::invalid_argument("backend JSON: missing array field 'edges'");
    std::vector<std::pair<int, int>> edges;
    for (const JsonValue& e : std::get<JsonArray>(edges_v->v)) {
        if (!e.is_array() || std::get<JsonArray>(e.v).size() != 2)
            throw std::invalid_argument("backend JSON: each edge must be [a, b]");
        const JsonArray& pair = std::get<JsonArray>(e.v);
        if (!pair[0].is_number() || !pair[1].is_number())
            throw std::invalid_argument("backend JSON: edge endpoints must be numbers");
        edges.emplace_back(to_int(std::get<double>(pair[0].v), "edge endpoint"),
                           to_int(std::get<double>(pair[1].v), "edge endpoint"));
    }

    qoc::DeviceParams base;
    read_optional_number(o, "drive_bound", base.drive_bound);
    read_optional_number(o, "coupling_bound", base.coupling_bound);
    read_optional_number(o, "zz_drift", base.zz_drift);
    read_optional_number(o, "dt", base.dt);

    // CouplingMap's constructor performs the edge validation (range,
    // self-loops, duplicates) and throws with a specific message.
    Backend be(std::get<std::string>(name_v->v), circuit::CouplingMap(nq, edges), base);

    if (const JsonValue* v = get_field(o, "qubit_drive_bounds")) {
        if (!v->is_array())
            throw std::invalid_argument(
                "backend JSON: 'qubit_drive_bounds' must be an array");
        for (const JsonValue& d : std::get<JsonArray>(v->v)) {
            if (!d.is_number())
                throw std::invalid_argument(
                    "backend JSON: 'qubit_drive_bounds' entries must be numbers");
            be.qubit_drive_bounds.push_back(std::get<double>(d.v));
        }
    }
    if (const JsonValue* v = get_field(o, "edge_overrides")) {
        if (!v->is_array())
            throw std::invalid_argument("backend JSON: 'edge_overrides' must be an array");
        for (const JsonValue& ov : std::get<JsonArray>(v->v)) {
            if (!ov.is_object())
                throw std::invalid_argument(
                    "backend JSON: each edge override must be an object");
            const JsonObject& oo = std::get<JsonObject>(ov.v);
            const int a = require_int(oo, "a");
            const int b = require_int(oo, "b");
            EdgeParams p{base.coupling_bound, base.zz_drift};
            read_optional_number(oo, "coupling_bound", p.coupling_bound);
            read_optional_number(oo, "zz_drift", p.zz_drift);
            be.edge_overrides[{std::min(a, b), std::max(a, b)}] = p;
        }
    }
    if (const JsonValue* v = get_field(o, "crosstalk_zz")) {
        if (!v->is_bool())
            throw std::invalid_argument("backend JSON: 'crosstalk_zz' must be a boolean");
        be.crosstalk_zz = std::get<bool>(v->v);
    }
    read_optional_number(o, "crosstalk_strength", be.crosstalk_strength);
    if (get_field(o, "levels") != nullptr) be.levels = require_int(o, "levels");
    read_optional_number(o, "anharmonicity", be.anharmonicity);

    be.validate();
    return be;
}

BackendRegistry::BackendRegistry() {
    // Built-in devices. Calibrations deliberately differ between devices so
    // the same circuit produces visibly different pulses (and cache keys) on
    // each — the bench/CI matrix relies on that.
    register_backend(Backend("linear-5", circuit::CouplingMap::linear(5)));

    {
        qoc::DeviceParams p;
        p.drive_bound = 0.165;
        p.coupling_bound = 0.022;
        p.zz_drift = 0.0018;
        register_backend(Backend("ring-8", circuit::CouplingMap::ring(8), p));
    }
    {
        qoc::DeviceParams p;
        p.drive_bound = 0.150;
        p.coupling_bound = 0.018;
        p.zz_drift = 0.0025;
        Backend be("grid-3x3", circuit::CouplingMap::grid(3, 3), p);
        be.crosstalk_zz = true;
        be.crosstalk_strength = 0.0004;
        register_backend(std::move(be));
    }
    {
        qoc::DeviceParams p;
        p.coupling_bound = 0.016;
        p.zz_drift = 0.0015;
        Backend be("heavy-hex-7", circuit::CouplingMap::heavy_hex7(), p);
        // Per-qubit calibration spread and stronger spine couplers.
        be.qubit_drive_bounds = {0.150, 0.160, 0.150, 0.158, 0.152, 0.162, 0.154};
        be.edge_overrides[{1, 3}] = {0.024, 0.0012};
        be.edge_overrides[{3, 5}] = {0.024, 0.0012};
        register_backend(std::move(be));
    }
}

std::shared_ptr<const Backend> BackendRegistry::find(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = backends_.find(name);
    if (it != backends_.end()) return it->second;
    // Parametric all-to-all family: "full-N".
    const std::string prefix = "full-";
    if (name.compare(0, prefix.size(), prefix) == 0) {
        const std::string digits = name.substr(prefix.size());
        if (!digits.empty() &&
            digits.find_first_not_of("0123456789") == std::string::npos &&
            digits.size() <= 2) {
            const int n = std::stoi(digits);
            if (n >= 1 && n <= 16) {
                auto be = std::make_shared<Backend>(name, circuit::CouplingMap::full(n));
                backends_[name] = be;
                return be;
            }
        }
    }
    return nullptr;
}

std::shared_ptr<const Backend> BackendRegistry::register_backend(Backend be) {
    be.validate();
    std::lock_guard<std::mutex> lock(mutex_);
    auto sp = std::make_shared<Backend>(std::move(be));
    if (!backends_.emplace(sp->name, sp).second)
        throw std::invalid_argument("BackendRegistry: duplicate backend '" + sp->name +
                                    "'");
    return sp;
}

std::shared_ptr<const Backend> BackendRegistry::register_json(const std::string& text) {
    return register_backend(backend_from_json(text));
}

std::vector<std::string> BackendRegistry::names() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(backends_.size());
    for (const auto& [n, be] : backends_) {
        (void)be;
        out.push_back(n);
    }
    return out;
}

} // namespace epoc::backend

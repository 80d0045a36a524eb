#include "util/trace.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <tuple>

namespace epoc::util {

namespace {

std::uint64_t steady_now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

void json_escape_into(std::ostringstream& os, const std::string& s) {
    static const char* hex = "0123456789abcdef";
    for (const char ch : s) {
        switch (ch) {
        case '"': os << "\\\""; break;
        case '\\': os << "\\\\"; break;
        case '\n': os << "\\n"; break;
        case '\t': os << "\\t"; break;
        case '\r': os << "\\r"; break;
        case '\b': os << "\\b"; break;
        case '\f': os << "\\f"; break;
        default:
            // Remaining control characters are invalid raw JSON; \u-escape.
            if (static_cast<unsigned char>(ch) < 0x20)
                os << "\\u00" << hex[(ch >> 4) & 0xf] << hex[ch & 0xf];
            else
                os << ch;
        }
    }
}

// ----------------------------------------------------------------- TraceReport

std::uint64_t TraceReport::counter(const std::string& name) const {
    for (const auto& [n, v] : counters)
        if (n == name) return v;
    return 0;
}

bool TraceReport::has_span(const std::string& name) const {
    for (const TraceEvent& ev : spans)
        if (ev.name == name) return true;
    return false;
}

std::string TraceReport::to_chrome_json() const {
    std::ostringstream os;
    os.precision(6);
    os << std::fixed;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent& ev : spans) {
        if (!first) os << ",";
        first = false;
        os << "{\"name\":\"";
        json_escape_into(os, ev.name);
        os << "\",\"cat\":\"";
        json_escape_into(os, ev.category.empty() ? "default" : ev.category);
        os << "\",\"ph\":\"X\",\"ts\":" << static_cast<double>(ev.begin_ns) / 1000.0
           << ",\"dur\":" << static_cast<double>(ev.end_ns - ev.begin_ns) / 1000.0
           << ",\"pid\":1,\"tid\":" << ev.tid << "}";
    }
    // Counters as one "C" sample each, stamped after the last span so the
    // totals read as end-of-run values in the viewer.
    std::uint64_t last_ns = 0;
    for (const TraceEvent& ev : spans) last_ns = std::max(last_ns, ev.end_ns);
    for (const auto& [name, value] : counters) {
        if (!first) os << ",";
        first = false;
        os << "{\"name\":\"";
        json_escape_into(os, name);
        os << "\",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":"
           << static_cast<double>(last_ns) / 1000.0
           << ",\"pid\":1,\"args\":{\"value\":" << value << "}}";
    }
    os << "]}";
    return os.str();
}

std::string TraceReport::summary() const {
    std::ostringstream os;
    os.precision(3);
    os << std::fixed;
    if (!enabled) {
        os << "trace: disabled\n";
        return os.str();
    }
    // Aggregate spans by name (map: deterministic name order).
    std::map<std::string, std::pair<std::size_t, std::uint64_t>> by_name;
    for (const TraceEvent& ev : spans) {
        auto& [count, total] = by_name[ev.name];
        ++count;
        total += ev.end_ns - ev.begin_ns;
    }
    os << "spans (" << spans.size() << "):\n";
    for (const auto& [name, agg] : by_name)
        os << "  " << name << ": n=" << agg.first
           << " total=" << static_cast<double>(agg.second) / 1e6 << "ms\n";
    os << "counters (" << counters.size() << "):\n";
    for (const auto& [name, value] : counters) os << "  " << name << ": " << value << "\n";
    return os.str();
}

// ---------------------------------------------------------------------- Tracer

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_ns_(steady_now_ns()) {}

std::uint64_t Tracer::now_ns() const {
    const std::uint64_t t = steady_now_ns();
    return t >= epoch_ns_ ? t - epoch_ns_ : 0;
}

int Tracer::tid_of(std::thread::id id) {
    const auto it = thread_ids_.find(id);
    if (it != thread_ids_.end()) return it->second;
    const int tid = static_cast<int>(thread_ids_.size());
    thread_ids_.emplace(id, tid);
    return tid;
}

void Tracer::record(TraceEvent ev) {
    std::lock_guard<std::mutex> lock(mutex_);
    ev.tid = tid_of(std::this_thread::get_id());
    events_.push_back(std::move(ev));
}

Tracer::Span Tracer::span(std::string name, std::string category) {
    if (!enabled()) return Span{};
    return Span{this, std::move(name), std::move(category)};
}

void Tracer::add_counter(const std::string& name, std::uint64_t delta) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] += delta;
}

void Tracer::set_counter(const std::string& name, std::uint64_t value) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] = value;
}

TraceReport Tracer::report() const {
    TraceReport r;
    r.enabled = enabled();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        r.spans = events_;
        r.counters.assign(counters_.begin(), counters_.end());
    }
    std::sort(r.spans.begin(), r.spans.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                  return std::tie(a.begin_ns, a.end_ns, a.name, a.tid) <
                         std::tie(b.begin_ns, b.end_ns, b.name, b.tid);
              });
    return r;
}

void Tracer::reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
    counters_.clear();
    thread_ids_.clear();
    epoch_ns_ = steady_now_ns();
}

// ----------------------------------------------------------------------- Span

Tracer::Span::Span(Tracer* tracer, std::string name, std::string category)
    : tracer_(tracer),
      name_(std::move(name)),
      category_(std::move(category)),
      begin_ns_(tracer->now_ns()) {}

Tracer::Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_),
      name_(std::move(other.name_)),
      category_(std::move(other.category_)),
      begin_ns_(other.begin_ns_) {
    other.tracer_ = nullptr;
}

Tracer::Span& Tracer::Span::operator=(Span&& other) noexcept {
    if (this != &other) {
        end();
        tracer_ = other.tracer_;
        name_ = std::move(other.name_);
        category_ = std::move(other.category_);
        begin_ns_ = other.begin_ns_;
        other.tracer_ = nullptr;
    }
    return *this;
}

void Tracer::Span::end() {
    if (tracer_ == nullptr) return;
    TraceEvent ev;
    ev.name = std::move(name_);
    ev.category = std::move(category_);
    ev.begin_ns = begin_ns_;
    ev.end_ns = std::max(begin_ns_, tracer_->now_ns());
    tracer_->record(std::move(ev));
    tracer_ = nullptr;
}

Tracer::Span::~Span() { end(); }

} // namespace epoc::util

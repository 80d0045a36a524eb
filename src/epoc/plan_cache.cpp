#include "epoc/plan_cache.h"

namespace epoc::core {

void WarmSlots::put(std::size_t index, std::vector<std::vector<double>> amplitudes) const {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_[index] = std::move(amplitudes);
}

std::vector<std::vector<double>> WarmSlots::get(std::size_t index) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = slots_.find(index);
    return it == slots_.end() ? std::vector<std::vector<double>>{} : it->second;
}

std::size_t WarmSlots::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_.size();
}

} // namespace epoc::core

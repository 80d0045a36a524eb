// The deterministic mutator behind the decoder fuzz tests: 1-4 seeded edits
// of a well-formed input — byte flips (any value: embedded NUL, high-bit,
// ...), truncations, duplicated slices, spliced token characters and swaps.
// Fixed seeds and no time or address dependence, so a failure reproduces
// everywhere.
#pragma once

#include <algorithm>
#include <cstddef>
#include <random>
#include <string>
#include <utility>

namespace epoc::test {

/// `base` after 1-4 edits drawn from `rng`; `tokens` lists the characters
/// worth splicing in (the decoder's token boundaries).
inline std::string mutate(const std::string& base, std::mt19937_64& rng,
                          const std::string& tokens) {
    std::string s = base;
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e) {
        if (s.empty()) s.push_back(';'); // (assignment trips GCC12 -Wrestrict)
        const std::size_t pos = rng() % s.size();
        switch (rng() % 5) {
        case 0: // flip a byte
            s[pos] = static_cast<char>(rng() % 256);
            break;
        case 1: // truncate
            s.resize(pos);
            break;
        case 2: { // duplicate a slice onto a random point
            const std::size_t len = std::min<std::size_t>(rng() % 32, s.size() - pos);
            const std::string slice = s.substr(pos, len);
            s.insert(rng() % (s.size() + 1), slice);
            break;
        }
        case 3: // splice a token boundary character
            s.insert(pos, 1, tokens[rng() % tokens.size()]);
            break;
        default: { // swap two regions (token reordering)
            const std::size_t other = rng() % s.size();
            std::swap(s[pos], s[other]);
            break;
        }
        }
    }
    return s;
}

} // namespace epoc::test

/**
 * @file
 * FNV-1a 64: the one byte-stream hash of the tree. Checkpoint images
 * carry it as their checksum, the lockstep cosims compare
 * architectural state by fnv1a(kernel.snapshot()), and the
 * commit-stream digests fold record fields with kFnvPrime.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cmd {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/** FNV-1a 64 over @p n bytes at @p p. */
inline uint64_t
fnv1a(const uint8_t *p, size_t n)
{
    uint64_t h = kFnvOffset;
    for (size_t i = 0; i < n; i++) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** FNV-1a 64 over a whole buffer (e.g. a Kernel::snapshot()). */
inline uint64_t
fnv1a(const std::vector<uint8_t> &bytes)
{
    return fnv1a(bytes.data(), bytes.size());
}

} // namespace cmd

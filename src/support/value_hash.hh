/**
 * @file
 * Shared deterministic value functions: live-in value streams and the
 * order-insensitive load-value digest. Both the cycle simulator and
 * the reference program-order oracle use these, so their results are
 * comparable bit-for-bit.
 */

#ifndef NACHOS_SUPPORT_VALUE_HASH_HH
#define NACHOS_SUPPORT_VALUE_HASH_HH

#include <cstdint>

namespace nachos {

/** splitmix64 finalizer. */
inline uint64_t
valueMix64(uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Deterministic live-in value for (op, invocation). */
inline int64_t
liveInValueFor(uint32_t op, uint64_t invocation)
{
    return static_cast<int64_t>(
        valueMix64(op * 0x100000001b3ULL ^ (invocation + 1)));
}

/**
 * Digest contribution of one load observation. Contributions are
 * summed, making the digest independent of completion order.
 */
inline uint64_t
loadDigestTerm(uint32_t op, uint64_t invocation, int64_t value)
{
    return valueMix64(op * 0x9e3779b97f4a7c15ULL ^
                      invocation * 0x85ebca6bULL ^
                      static_cast<uint64_t>(value));
}

} // namespace nachos

#endif // NACHOS_SUPPORT_VALUE_HASH_HH

#include "rng/xoshiro.hh"

#include "util/message.hh"

namespace sharp
{
namespace rng
{

uint64_t
SplitMix64::next()
{
    uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(uint64_t seed)
{
    SplitMix64 mixer(seed);
    for (auto &word : state)
        word = mixer.next();
}

double
Xoshiro256::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Xoshiro256::nextDoubleOpen()
{
    return (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53;
}

void
Xoshiro256::zeroBound()
{
    util::panic("nextBelow called with bound 0");
}

void
Xoshiro256::jump()
{
    static const uint64_t jumpTable[] = {
        0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL,
        0xA9582618E03FC9AAULL, 0x39ABDC4529B1661CULL,
    };

    uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (uint64_t word : jumpTable) {
        for (int bit = 0; bit < 64; ++bit) {
            if (word & (1ULL << bit)) {
                s0 ^= state[0];
                s1 ^= state[1];
                s2 ^= state[2];
                s3 ^= state[3];
            }
            next();
        }
    }
    state = {s0, s1, s2, s3};
}

Xoshiro256
Xoshiro256::split()
{
    // The child keeps the current state and owns the next 2^128 draws;
    // this generator jumps past that block, so successive split() calls
    // hand out disjoint subsequences.
    Xoshiro256 child = *this;
    jump();
    return child;
}

} // namespace rng
} // namespace sharp

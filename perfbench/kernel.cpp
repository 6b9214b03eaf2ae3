#include "kernel.hpp"

#include <array>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {
namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

/// One SHA-256 compression of `block` into `state`.
void compress(std::array<std::uint32_t, 8>& state, const std::uint8_t* block) {
  std::array<std::uint32_t, 64> w{};
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[4 * i]} << 24) |
           (std::uint32_t{block[4 * i + 1]} << 16) |
           (std::uint32_t{block[4 * i + 2]} << 8) |
           std::uint32_t{block[4 * i + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                             ((e & f) ^ (~e & g)) + kK[i] + w[i];
    const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                             ((a & b) ^ (a & c) ^ (b & c));
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

struct Event {
  std::uint64_t when;
  std::uint64_t id;
  std::function<void()> fn;
};
struct Later {
  bool operator()(const Event& a, const Event& b) const {
    return a.when != b.when ? a.when > b.when : a.id > b.id;
  }
};

}  // namespace

std::uint64_t reference_kernel_unit() {
  std::uint64_t sum = 0;
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 17;
  };

  // Hashing: 600 compressions over a rolling 64-byte message.
  std::array<std::uint32_t, 8> state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                        0x1f83d9ab, 0x5be0cd19};
  std::array<std::uint8_t, 64> block{};
  for (int i = 0; i < 600; ++i) {
    std::memcpy(block.data(), state.data(), sizeof(state));
    block[63] = static_cast<std::uint8_t>(i);
    compress(state, block.data());
  }
  sum += state[0];

  // Event dispatch: closures through a priority queue, each scheduling
  // at most one follow-up (the scheduler's net_deliver/timer shape).
  std::priority_queue<Event, std::vector<Event>, Later> queue;
  std::uint64_t ids = 0;
  std::uint64_t fired = 0;
  std::function<void(std::uint64_t)> schedule = [&](std::uint64_t when) {
    queue.push({when, ++ids, [&, when] {
                  ++fired;
                  if (fired < 4000) schedule(when + next() % 97);
                }});
  };
  for (int i = 0; i < 64; ++i) schedule(next() % 1000);
  while (!queue.empty()) {
    Event ev = queue.top();
    queue.pop();
    ev.fn();
  }
  sum += fired + ids;

  // Keyed-map churn with string keys (dedup sets, block store lookups).
  std::unordered_map<std::string, std::uint64_t> map;
  std::string key(32, '\0');
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t k = next() % 1024;
    std::memcpy(key.data(), &k, sizeof(k));
    auto [it, fresh] = map.try_emplace(key, k);
    if (!fresh) {
      sum += it->second;
      if (k % 3 == 0) map.erase(it);
    }
  }
  sum += map.size();

  // Byte-vector building and copying (message encode/decode).
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < 400; ++i) {
    std::vector<std::uint8_t> frame(64 + next() % 256);
    for (std::size_t j = 0; j < frame.size(); j += 8) {
      frame[j] = static_cast<std::uint8_t>(next());
    }
    frames.push_back(frame);
    sum += frames.back()[0] + frames.back().size();
  }
  return sum;
}

std::uint64_t reference_kernel_checksum() { return 1443343572; }

}  // namespace perfbench

// Standalone check of the reference kernel: links only kernel.cpp (no
// simulator code), runs it and verifies its fixed checksum. Prints the
// median unit time. Exit code 0 on success.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "kernel.hpp"

int main() {
  std::vector<double> ms;
  for (int i = 0; i < 51; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t sum = perfbench::reference_kernel_unit();
    const auto end = std::chrono::steady_clock::now();
    if (sum != perfbench::reference_kernel_checksum()) {
      std::printf("kernel checksum %llu, expected %llu\n",
                  static_cast<unsigned long long>(sum),
                  static_cast<unsigned long long>(
                      perfbench::reference_kernel_checksum()));
      return 1;
    }
    ms.push_back(std::chrono::duration<double, std::milli>(end - start).count());
  }
  std::nth_element(ms.begin(), ms.begin() + 25, ms.end());
  std::printf("kernel ok: median %.4f ms per unit\n", ms[25]);
  return 0;
}

// Self-test workload for tools/profile.sh: spins in this file for a few
// hundred milliseconds of CPU. The script compiles a copy placed under
// src/sim/, so every sample must fold into the "sim" layer.
#include <stdint.h>

static volatile uint64_t sink;

__attribute__((noinline)) static uint64_t Spin(uint64_t n) {
  uint64_t x = 88172645463325252ull;
  for (uint64_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

int main(void) {
  sink = Spin(1ull << 28);
  return 0;
}

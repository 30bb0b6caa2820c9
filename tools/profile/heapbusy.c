// Self-test workload for tools/profile.sh --heap: a known allocation
// pattern. HoldBlocks keeps 65,536 blocks of 1,000 bytes live (about
// 64 MiB, the high-water mark, and about 1,000 samples at heap.c's rate)
// while Churn allocates and frees small blocks one at a time; then the held
// blocks go and Later allocates half as much. At the high-water mark nearly
// every live byte must belong to HoldBlocks.
#include <stdlib.h>
#include <string.h>

#define HELD 65536

static void* held[HELD];
static void* later[HELD / 2];

__attribute__((noinline)) static void HoldBlocks(void) {
  for (int i = 0; i < HELD; ++i) {
    held[i] = malloc(1000);
    memset(held[i], 1, 1000);
  }
}

__attribute__((noinline)) static void Churn(void) {
  for (int i = 0; i < 100000; ++i) {
    volatile char* p = malloc(64);
    p[0] = 1;
    free((void*)p);
  }
}

__attribute__((noinline)) static void Later(void) {
  for (int i = 0; i < HELD / 2; ++i) later[i] = malloc(1000);
  for (int i = 0; i < HELD / 2; ++i) free(later[i]);
}

int main(void) {
  HoldBlocks();
  Churn();
  for (int i = 0; i < HELD; ++i) free(held[i]);
  Later();
  return 0;
}

// CPU-time PC sampler, loaded with LD_PRELOAD (see tools/profile.sh).
//
// A POSIX timer on the process CPU clock delivers SIGPROF every
// millisecond of CPU time (the kernel checks CPU timers once per tick, so
// a 250 Hz kernel delivers about 250 a second); the handler records the
// interrupted program counter. At exit the owning process writes the
// executable mappings, the resolved addresses of libc's string functions
// (their IFUNC targets are not in the dynamic symbol table) and one
// "pc <hex> <count>" line per sampled address to the file named by
// SPONGE_PROFILE_OUT. Without SPONGE_PROFILE_OUT the library does nothing.
//
// Lessons from sizing the sampler:
//  - ITIMER_PROF delivered about 6x fewer signals than a
//    timer_create(CLOCK_PROCESS_CPUTIME_ID) timer for the same busy loop,
//    so this uses the latter;
//  - LD_PRELOAD is removed from the environment in the constructor, so
//    children (a shell, a compiler) are not sampled into the same file;
//  - only the pid that started the timer writes output;
//  - the destructor never spawns a process: a child would load this
//    library's destructor path again and recurse.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 22)  // 32 MiB of PCs: over an hour at 1 kHz
#define INTERVAL_NS 1000000     // one sample per millisecond of CPU time

static uintptr_t* samples;
static volatile uint32_t sample_count;
static volatile uint32_t dropped;
static pid_t owner;
static const char* out_path;
static timer_t timer;
static int timer_armed;

static void OnSignal(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)context;
#if defined(__x86_64__)
  uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
  uintptr_t pc = 0;
  (void)uc;
#endif
  uint32_t slot = __atomic_fetch_add(&sample_count, 1, __ATOMIC_RELAXED);
  if (slot < MAX_SAMPLES) {
    samples[slot] = pc;
  } else {
    __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
  }
}

__attribute__((constructor)) static void Start(void) {
  unsetenv("LD_PRELOAD");
  out_path = getenv("SPONGE_PROFILE_OUT");
  if (out_path == NULL || out_path[0] == '\0') return;
  owner = getpid();
  samples = mmap(NULL, MAX_SAMPLES * sizeof(uintptr_t),
                 PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (samples == MAP_FAILED) {
    samples = NULL;
    return;
  }
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_sigaction = OnSignal;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, NULL) != 0) return;

  struct sigevent event;
  memset(&event, 0, sizeof(event));
  event.sigev_notify = SIGEV_SIGNAL;
  event.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &event, &timer) != 0) return;
  struct itimerspec spec;
  spec.it_interval.tv_sec = 0;
  spec.it_interval.tv_nsec = INTERVAL_NS;
  spec.it_value = spec.it_interval;
  if (timer_settime(timer, 0, &spec, NULL) != 0) return;
  timer_armed = 1;
}

static int ComparePc(const void* a, const void* b) {
  uintptr_t x = *(const uintptr_t*)a;
  uintptr_t y = *(const uintptr_t*)b;
  return x < y ? -1 : x > y;
}

// Copies the executable mappings from /proc/self/maps.
static void WriteMaps(FILE* out) {
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps == NULL) return;
  char line[4096];
  while (fgets(line, sizeof(line), maps) != NULL) {
    unsigned long start, end, offset;
    char perms[8];
    int path_at = 0;
    if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %n", &start, &end, perms,
               &offset, &path_at) < 4) {
      continue;
    }
    if (perms[2] != 'x' || path_at == 0 || line[path_at] != '/') continue;
    line[strcspn(line, "\n")] = '\0';
    fprintf(out, "map %lx %lx %lx %s\n", start, end, offset, line + path_at);
  }
  fclose(maps);
}

__attribute__((destructor)) static void Stop(void) {
  if (!timer_armed || getpid() != owner) return;
  timer_delete(timer);
  timer_armed = 0;
  signal(SIGPROF, SIG_IGN);

  FILE* out = fopen(out_path, "w");
  if (out == NULL) return;
  uint32_t n = sample_count < MAX_SAMPLES ? sample_count : MAX_SAMPLES;
  fprintf(out, "samples %u dropped %u\n", n, dropped);
  WriteMaps(out);
  static const char* const kStringFns[] = {
      "memcpy", "memmove", "memset", "memcmp", "strlen", "strcmp",
      "memchr", "strchr", "__memcpy_chk", "__memmove_chk", "__memset_chk"};
  for (size_t i = 0; i < sizeof(kStringFns) / sizeof(kStringFns[0]); ++i) {
    void* fn = dlsym(RTLD_DEFAULT, kStringFns[i]);
    if (fn != NULL) {
      fprintf(out, "fn %lx %s\n", (unsigned long)fn, kStringFns[i]);
    }
  }
  qsort(samples, n, sizeof(uintptr_t), ComparePc);
  for (uint32_t i = 0; i < n;) {
    uint32_t j = i;
    while (j < n && samples[j] == samples[i]) ++j;
    fprintf(out, "pc %lx %u\n", (unsigned long)samples[i], j - i);
    i = j;
  }
  fclose(out);
}

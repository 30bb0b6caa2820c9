// Live-heap profiler, loaded with LD_PRELOAD (see tools/profile.sh --heap).
//
// Wraps malloc and friends and keeps the program's live heap in usable
// bytes (malloc_usable_size, so allocator rounding counts). Each time the
// live total passes the last snapshot by 1/128 of it (at least 64 KiB), it
// snapshots two breakdowns, so the final snapshot lies within that step of
// the true high-water mark:
//  - live blocks and bytes per usable-size class (exact);
//  - live bytes per allocation site, estimated from sampled allocations.
//    Allocations are sampled per byte, a Poisson process with one sample
//    point per SAMPLE_BYTES (64 KiB) on average, and a sampled block
//    weighs size / P(sampled), which makes the per-site sums unbiased. A
//    site is the block's backtrace (up to MAX_FRAMES return addresses).
//    At most LIVE_SLOTS / 2 sampled blocks are live at once (about 2 GiB
//    of live heap); samples beyond that are dropped and counted.
// The resident set is probed each time live bytes move RSS_STEP; at each
// new resident peak the same two breakdowns are kept once more, with the
// backtrace of the call that moved the heap there, so a resident peak
// that the live heap does not explain can be placed in the program.
// At exit the owning process writes the executable mappings and the
// snapshot to the file named by SPONGE_HEAP_OUT; tools/profile/heapfold.py
// resolves the sites. Without SPONGE_HEAP_OUT the library only forwards.
//
// Blocks that libc allocates internally (not through the PLT) and the
// program frees are subtracted without having been added; live bytes are
// clamped at zero. Not thread-safe beyond a spin lock around the books.
#define _GNU_SOURCE
#include <execinfo.h>
#include <fcntl.h>
#include <malloc.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

extern void* __libc_malloc(size_t);
extern void* __libc_calloc(size_t, size_t);
extern void* __libc_realloc(void*, size_t);
extern void* __libc_memalign(size_t, size_t);
extern void __libc_free(void*);

#define SAMPLE_BYTES 65536.0
#define MIN_SNAP_STEP (64 << 10)
#define RSS_STEP (1 << 20)  // live-byte movement between RSS probes
#define MAX_FRAMES 16  // this file's frames included; heapfold.py drops them
#define MAX_SITES 8192
#define SITE_SLOTS (1u << 14)  // site hash, > 2 * MAX_SITES
#define LIVE_SLOTS (1u << 16)  // sampled live blocks, linear probing
#define SMALL_CLASS_LIMIT 4096  // one class per 8 bytes below this,
#define NUM_CLASSES (SMALL_CLASS_LIMIT / 8 + 48)  // then one per octave

struct Site {
  uintptr_t frames[MAX_FRAMES];
  int depth;
  double live;  // estimated live bytes
  double blocks;
};

struct LiveBlock {
  uintptr_t ptr;  // 0: free slot
  uint32_t site;
  double weight;  // bytes this sample stands for
};

struct Books {
  int64_t live;
  int64_t peak;
  int64_t rss;  // resident set at the last RSS probe
  int64_t class_blocks[NUM_CLASSES];
  int64_t class_bytes[NUM_CLASSES];
};

static int enabled;
static pid_t owner;
static const char* out_path;
static int64_t countdown;
static uint64_t rng_state = 0x9e3779b97f4a7c15ull;
static volatile int lock;
// Initial-exec: a preloaded library has static TLS, and the default model
// may allocate on a thread's first access.
static __thread int in_hook __attribute__((tls_model("initial-exec")));

static struct Books books;
static struct Books snap_books;
static struct Site* sites;
static double* snap_site_live;
static double* snap_site_blocks;
static struct Books rss_books;  // the books at the resident peak
static double* rss_site_live;
static double* rss_site_blocks;
static uintptr_t rss_frames[MAX_FRAMES];  // the call that probed the peak
static int rss_depth;
static uint32_t num_sites;
static uint32_t* site_slots;  // site index + 1; 0 = free
static struct LiveBlock* live_blocks;
static uint32_t live_count;  // occupied slots, kept <= LIVE_SLOTS / 2
static uint64_t sampled;
static uint64_t dropped;
static int64_t probe_live;  // live bytes at the last RSS probe

static void Lock(void) {
  while (__atomic_exchange_n(&lock, 1, __ATOMIC_ACQUIRE)) {
  }
}
static void Unlock(void) { __atomic_store_n(&lock, 0, __ATOMIC_RELEASE); }

static size_t ClassOf(size_t usable) {
  if (usable < SMALL_CLASS_LIMIT) return usable / 8;
  size_t c = SMALL_CLASS_LIMIT / 8;
  for (size_t low = 2 * SMALL_CLASS_LIMIT;
       usable >= low && c + 1 < NUM_CLASSES; low <<= 1) {
    ++c;
  }
  return c;
}

// The smallest usable size in class `c`, as the output names it (glibc's
// usable sizes are multiples of 8, so a small class holds one size).
static size_t ClassLow(size_t c) {
  if (c < SMALL_CLASS_LIMIT / 8) return c * 8;
  return (size_t)SMALL_CLASS_LIMIT << (c - SMALL_CLASS_LIMIT / 8);
}

static double NextExponential(void) {
  rng_state ^= rng_state << 13;
  rng_state ^= rng_state >> 7;
  rng_state ^= rng_state << 17;
  double u = ((rng_state >> 11) + 0.5) / 9007199254740992.0;
  return -log(u) * SAMPLE_BYTES;
}

static void* Map(size_t bytes) {
  void* p = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? NULL : p;
}

__attribute__((constructor)) static void Start(void) {
  unsetenv("LD_PRELOAD");
  out_path = getenv("SPONGE_HEAP_OUT");
  if (out_path == NULL || out_path[0] == '\0') return;
  sites = Map(MAX_SITES * sizeof(struct Site));
  snap_site_live = Map(MAX_SITES * sizeof(double));
  snap_site_blocks = Map(MAX_SITES * sizeof(double));
  rss_site_live = Map(MAX_SITES * sizeof(double));
  rss_site_blocks = Map(MAX_SITES * sizeof(double));
  site_slots = Map(SITE_SLOTS * sizeof(uint32_t));
  live_blocks = Map(LIVE_SLOTS * sizeof(struct LiveBlock));
  if (!sites || !snap_site_live || !snap_site_blocks || !rss_site_live ||
      !rss_site_blocks || !site_slots || !live_blocks) {
    return;
  }
  // Load the unwinder now: its first use allocates.
  void* warm[2];
  in_hook = 1;
  backtrace(warm, 2);
  in_hook = 0;
  countdown = (int64_t)NextExponential();
  owner = getpid();
  enabled = 1;
}

static uint32_t FindSite(uintptr_t* frames, int depth) {
  uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < depth; ++i) h = (h ^ frames[i]) * 1099511628211ull;
  for (uint32_t i = (uint32_t)h & (SITE_SLOTS - 1);;
       i = (i + 1) & (SITE_SLOTS - 1)) {
    uint32_t slot = site_slots[i];
    if (slot == 0) {
      if (num_sites == MAX_SITES) return UINT32_MAX;
      struct Site* site = &sites[num_sites];
      memcpy(site->frames, frames, depth * sizeof(uintptr_t));
      site->depth = depth;
      site_slots[i] = ++num_sites;
      return num_sites - 1;
    }
    struct Site* site = &sites[slot - 1];
    if (site->depth == depth &&
        memcmp(site->frames, frames, depth * sizeof(uintptr_t)) == 0) {
      return slot - 1;
    }
  }
}

static uint32_t LiveSlot(uintptr_t ptr) {
  return (uint32_t)((ptr >> 4) * 0x9e3779b97f4a7c15ull >> 44) &
         (LIVE_SLOTS - 1);
}

// The process's resident set, read without allocating.
static int64_t ReadRss(void) {
  char buf[128];
  int fd = open("/proc/self/statm", O_RDONLY);
  if (fd < 0) return 0;
  ssize_t n = read(fd, buf, sizeof(buf) - 1);
  close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  const char* resident = strchr(buf, ' ');
  return resident ? atoll(resident + 1) * sysconf(_SC_PAGESIZE) : 0;
}

// Probes the resident set whenever live bytes moved RSS_STEP from the
// last probe, so the RSS peak is seen together with the live bytes that
// made it; the gap is allocator overhead, free-but-resident memory and
// the non-heap mappings.
static void MaybeProbeRss(void) {
  if (books.live < probe_live + RSS_STEP &&
      books.live + RSS_STEP > probe_live) {
    return;
  }
  probe_live = books.live;
  books.rss = ReadRss();
  if (books.rss > rss_books.rss) {
    rss_books = books;
    for (uint32_t i = 0; i < num_sites; ++i) {
      rss_site_live[i] = sites[i].live;
      rss_site_blocks[i] = sites[i].blocks;
    }
    rss_depth = backtrace((void**)rss_frames, MAX_FRAMES);
    if (rss_depth < 0) rss_depth = 0;
  }
}

static int64_t SnapStep(void) {
  int64_t step = snap_books.live / 128;
  return step > MIN_SNAP_STEP ? step : MIN_SNAP_STEP;
}

static void Snapshot(void) {
  snap_books = books;
  for (uint32_t i = 0; i < num_sites; ++i) {
    snap_site_live[i] = sites[i].live;
    snap_site_blocks[i] = sites[i].blocks;
  }
}

// Samples a new block into its site's estimate (caller holds the lock).
static void Sample(void* p, size_t usable) {
  countdown -= (int64_t)usable;
  if (countdown > 0) return;
  while (countdown <= 0) countdown += (int64_t)NextExponential();
  uintptr_t frames[MAX_FRAMES];
  int depth = backtrace((void**)frames, MAX_FRAMES);
  uint32_t site = FindSite(frames, depth < 0 ? 0 : depth);
  // A half-empty table keeps probe runs short and always ends them.
  if (site == UINT32_MAX || live_count >= LIVE_SLOTS / 2) {
    ++dropped;
    return;
  }
  double p_sampled = -expm1(-(double)usable / SAMPLE_BYTES);
  double weight = (double)usable / p_sampled;
  uint32_t i = LiveSlot((uintptr_t)p);
  while (live_blocks[i].ptr != 0) i = (i + 1) & (LIVE_SLOTS - 1);
  live_blocks[i] = (struct LiveBlock){(uintptr_t)p, site, weight};
  ++live_count;
  sites[site].live += weight;
  sites[site].blocks += weight / (double)usable;
  ++sampled;
}

// Books a new block (caller holds the lock). The breakdowns are taken
// after the block is sampled, so the sites and the classes both hold it.
static void Add(void* p) {
  size_t usable = malloc_usable_size(p);
  size_t c = ClassOf(usable);
  books.class_blocks[c] += 1;
  books.class_bytes[c] += (int64_t)usable;
  books.live += (int64_t)usable;
  if (books.live > books.peak) books.peak = books.live;
  Sample(p, usable);
  MaybeProbeRss();
  if (books.live >= snap_books.live + SnapStep()) Snapshot();
}

// Unbooks a block about to be freed (caller holds the lock).
static void Remove(void* p) {
  // Probed while the block is still booked and still resident.
  MaybeProbeRss();
  size_t usable = malloc_usable_size(p);
  size_t c = ClassOf(usable);
  books.class_blocks[c] -= 1;
  books.class_bytes[c] -= (int64_t)usable;
  books.live -= (int64_t)usable;
  if (books.live < 0) books.live = 0;
  uint32_t i = LiveSlot((uintptr_t)p);
  while (live_blocks[i].ptr != 0 && live_blocks[i].ptr != (uintptr_t)p) {
    i = (i + 1) & (LIVE_SLOTS - 1);
  }
  if (live_blocks[i].ptr == 0) return;
  struct LiveBlock* block = &live_blocks[i];
  sites[block->site].live -= block->weight;
  sites[block->site].blocks -= block->weight / (double)usable;
  // Backward-shift deletion keeps every probe run unbroken.
  uint32_t hole = i;
  for (uint32_t j = (i + 1) & (LIVE_SLOTS - 1); live_blocks[j].ptr != 0;
       j = (j + 1) & (LIVE_SLOTS - 1)) {
    uint32_t home = LiveSlot(live_blocks[j].ptr);
    if (((j - home) & (LIVE_SLOTS - 1)) >= ((j - hole) & (LIVE_SLOTS - 1))) {
      live_blocks[hole] = live_blocks[j];
      hole = j;
    }
  }
  live_blocks[hole].ptr = 0;
  --live_count;
}

static int Tracking(void) {
  return enabled && !in_hook;
}

#define BOOK(stmt)   \
  do {               \
    in_hook = 1;     \
    Lock();          \
    stmt;            \
    Unlock();        \
    in_hook = 0;     \
  } while (0)

void* malloc(size_t n) {
  void* p = __libc_malloc(n);
  if (p != NULL && Tracking()) BOOK(Add(p));
  return p;
}

void* calloc(size_t n, size_t size) {
  void* p = __libc_calloc(n, size);
  if (p != NULL && Tracking()) BOOK(Add(p));
  return p;
}

void free(void* p) {
  if (p != NULL && Tracking()) BOOK(Remove(p));
  __libc_free(p);
}

void* realloc(void* old, size_t n) {
  if (old == NULL) return malloc(n);
  if (n == 0) {
    free(old);
    return NULL;
  }
  int track = Tracking();
  if (track) BOOK(Remove(old));
  void* p = __libc_realloc(old, n);
  // On failure the old block is still live.
  if (track) BOOK(Add(p != NULL ? p : old));
  return p;
}

void* memalign(size_t alignment, size_t n) {
  void* p = __libc_memalign(alignment, n);
  if (p != NULL && Tracking()) BOOK(Add(p));
  return p;
}

void* aligned_alloc(size_t alignment, size_t n) {
  return memalign(alignment, n);
}

int posix_memalign(void** out, size_t alignment, size_t n) {
  void* p = memalign(alignment, n);
  if (p == NULL) return 12;  // ENOMEM
  *out = p;
  return 0;
}

void* valloc(size_t n) { return memalign((size_t)sysconf(_SC_PAGESIZE), n); }

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

// Writes one breakdown as `class` and `site` lines, each name prefixed.
static void WriteBreakdown(FILE* out, const char* prefix,
                           const struct Books* at, const double* site_live,
                           const double* site_blocks) {
  for (size_t c = 0; c < NUM_CLASSES; ++c) {
    if (at->class_blocks[c] <= 0) continue;
    fprintf(out, "%sclass %zu %lld %lld\n", prefix, ClassLow(c),
            (long long)at->class_blocks[c], (long long)at->class_bytes[c]);
  }
  for (uint32_t i = 0; i < num_sites; ++i) {
    if (site_live[i] < 1) continue;
    fprintf(out, "%ssite %.0f %.0f", prefix, site_live[i], site_blocks[i]);
    for (int f = 0; f < sites[i].depth; ++f) {
      fprintf(out, " %lx", (unsigned long)sites[i].frames[f]);
    }
    fputc('\n', out);
  }
}

__attribute__((destructor)) static void Stop(void) {
  if (!enabled || getpid() != owner) return;
  in_hook = 1;
  Lock();
  enabled = 0;
  FILE* out = fopen(out_path, "w");
  if (out != NULL) {
    fprintf(out, "peak %lld snapshot %lld final %lld step %lld\n",
            (long long)books.peak, (long long)snap_books.live,
            (long long)books.live, (long long)SnapStep());
    fprintf(out, "rss_peak %lld live_at_rss_peak %lld snapshot_rss %lld\n",
            (long long)rss_books.rss, (long long)rss_books.live,
            (long long)snap_books.rss);
    fprintf(out, "sampling %.0f sampled %llu dropped %llu sites %u\n",
            SAMPLE_BYTES, (unsigned long long)sampled,
            (unsigned long long)dropped, num_sites);
    WriteMaps(out);
    WriteBreakdown(out, "", &snap_books, snap_site_live, snap_site_blocks);
    WriteBreakdown(out, "rss_", &rss_books, rss_site_live, rss_site_blocks);
    fprintf(out, "rss_call");
    for (int f = 0; f < rss_depth; ++f) {
      fprintf(out, " %lx", (unsigned long)rss_frames[f]);
    }
    fputc('\n', out);
    fclose(out);
  }
  Unlock();
}

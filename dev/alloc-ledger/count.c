// LD_PRELOAD allocation counter behind dev/alloc-ledger.sh. Counts calls to
// malloc / calloc / realloc / free and the bytes requested, and writes them to
// the file named by ALLOC_LEDGER_OUT when the process exits. With
// ALLOC_LEDGER_SITES set (and not 0) it also counts each distinct call stack:
// 8 return addresses by frame-pointer walk, as offsets into the executable
// (0 = outside it), which only reaches past the allocator when the executable
// was built with -C force-frame-pointers=yes.
#define _GNU_SOURCE
#include <link.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

extern void *__libc_malloc(size_t), *__libc_calloc(size_t, size_t), *__libc_realloc(void *, size_t);
extern void __libc_free(void *);
extern void *__libc_stack_end;

enum { DEPTH = 8, SLOTS = 1 << 16 };
static unsigned long calls[4], bytes, unplaced; // malloc, calloc, realloc, free
static struct site { void *pc[DEPTH]; unsigned long n; } sites[SLOTS];
static int want_sites = -1;

static void note(int kind, size_t size) {
  calls[kind]++, bytes += size;
  if (want_sites < 0) {
    const char *s = getenv("ALLOC_LEDGER_SITES");
    want_sites = s && *s != '0';
  }
  if (want_sites <= 0) return;
  void *pc[DEPTH] = {0}, **fp = __builtin_frame_address(0);
  unsigned long h = 0;
  for (int i = 0; i < DEPTH; i++) {
    void **up = fp[0];
    pc[i] = fp[1], h = h * 31 + (unsigned long)fp[1];
    // A caller without a frame pointer leaves anything in the register: stop
    // unless the chain still climbs the (only) stack, aligned.
    if (up <= fp || up >= (void **)__libc_stack_end || ((unsigned long)up & 7)) break;
    fp = up;
  }
  for (unsigned long probe = 0, i = h % SLOTS; probe < SLOTS; probe++, i = (i + 1) % SLOTS) {
    if (!sites[i].n) memcpy(sites[i].pc, pc, sizeof pc);
    if (!memcmp(sites[i].pc, pc, sizeof pc)) { sites[i].n++; return; }
  }
  unplaced++;
}

void *malloc(size_t n) { note(0, n); return __libc_malloc(n); }
void *calloc(size_t k, size_t n) { note(1, k * n); return __libc_calloc(k, n); }
void *realloc(void *p, size_t n) { note(2, n); return __libc_realloc(p, n); }
void free(void *p) { if (p) calls[3]++; __libc_free(p); }

static unsigned long base, end;
static int executable(struct dl_phdr_info *info, size_t size, void *data) {
  base = info->dlpi_addr; // the first object listed is the executable
  for (int i = 0; i < info->dlpi_phnum; i++)
    if (info->dlpi_phdr[i].p_type == PT_LOAD && base + info->dlpi_phdr[i].p_vaddr + info->dlpi_phdr[i].p_memsz > end)
      end = base + info->dlpi_phdr[i].p_vaddr + info->dlpi_phdr[i].p_memsz;
  return 1;
}

__attribute__((destructor)) static void report(void) {
  unsigned long c[4] = {calls[0], calls[1], calls[2], calls[3]}, b = bytes;
  int with_sites = want_sites > 0;
  want_sites = 0; // stop recording: fopen and fprintf allocate
  const char *path = getenv("ALLOC_LEDGER_OUT");
  FILE *out = path ? fopen(path, "w") : stderr;
  if (!out) return;
  fprintf(out, "calls %lu %lu %lu %lu bytes %lu unplaced %lu\n", c[0], c[1], c[2], c[3], b, unplaced);
  dl_iterate_phdr(executable, NULL);
  for (int i = 0; with_sites && i < SLOTS; i++) {
    if (!sites[i].n) continue;
    fprintf(out, "site %lu", sites[i].n);
    for (int d = 0; d < DEPTH; d++) {
      unsigned long pc = (unsigned long)sites[i].pc[d];
      // A return address; one byte back is inside the calling instruction.
      fprintf(out, " %lx", pc > base && pc <= end ? pc - 1 - base : 0);
    }
    fprintf(out, "\n");
  }
  fclose(out);
}

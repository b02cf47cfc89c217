/* A live-heap sampler for `scripts/profile.sh --heap`, loaded with
 * LD_PRELOAD.
 *
 * A thread of its own reads glibc's mallinfo2() every few milliseconds
 * and keeps the largest live heap it saw: the bytes handed out by every
 * arena (uordblks) plus the mmapped chunks (hblkhd). Beside it, it keeps
 * what glibc held from the system at that moment (arena + hblkhd) and
 * when it was. At exit it takes one last sample and writes to $HEAP_OUT
 * one "key value" line each: peak_live_kib, held_at_peak_kib,
 * peak_at_s, samples, and VmHWM_kib / VmRSS_kib from /proc/self/status.
 * The gap between the peak live heap and VmHWM is what the allocator
 * kept resident and what the program touched outside malloc.
 *
 * A sample locks each arena while it walks its free lists, so the
 * program's own malloc calls can wait on it; read host times off runs
 * without the shim. glibc >= 2.33, Linux only.
 */
#define _GNU_SOURCE
#include <malloc.h>
#include <pthread.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define PERIOD_NS 5000000L

static pthread_t sampler;
static atomic_int stopping;
static size_t peak_live, held_at_peak, samples;
static double peak_at, started;

static double now(void) {
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return t.tv_sec + t.tv_nsec / 1e9;
}

/* Called from the sampler thread, and from the exit handler once that
 * thread is joined: never from two threads at once. */
static void sample(void) {
    struct mallinfo2 m = mallinfo2();
    size_t live = m.uordblks + m.hblkhd;
    if (live > peak_live) {
        peak_live = live;
        held_at_peak = m.arena + m.hblkhd;
        peak_at = now() - started;
    }
    samples++;
}

static void *run(void *arg) {
    (void)arg;
    struct timespec period = {0, PERIOD_NS};
    while (!stopping) {
        sample();
        nanosleep(&period, NULL);
    }
    return NULL;
}

/* One field of /proc/self/status, in KiB (0 if absent). */
static long status_kib(const char *field) {
    FILE *status = fopen("/proc/self/status", "r");
    char line[256];
    long kib = 0;
    size_t n = strlen(field);
    while (status && fgets(line, sizeof line, status))
        if (strncmp(line, field, n) == 0 && line[n] == ':') kib = atol(line + n + 1);
    if (status) fclose(status);
    return kib;
}

static void finish(void) {
    stopping = 1;
    pthread_join(sampler, NULL);
    sample();
    const char *path = getenv("HEAP_OUT");
    FILE *out = fopen(path ? path : "heap.out", "w");
    if (!out) return;
    fprintf(out, "peak_live_kib %zu\n", peak_live / 1024);
    fprintf(out, "held_at_peak_kib %zu\n", held_at_peak / 1024);
    fprintf(out, "peak_at_s %.3f\n", peak_at);
    fprintf(out, "samples %zu\n", samples);
    fprintf(out, "VmHWM_kib %ld\n", status_kib("VmHWM"));
    fprintf(out, "VmRSS_kib %ld\n", status_kib("VmRSS"));
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    started = now();
    if (pthread_create(&sampler, NULL, run, NULL) == 0) atexit(finish);
}

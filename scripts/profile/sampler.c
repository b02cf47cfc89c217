/* A SIGPROF stack sampler for scripts/profile.sh, loaded with LD_PRELOAD.
 *
 * Up to 997 times per second of process CPU time it
 * records the interrupted PC and the return addresses of the
 * frame-pointer chain above it (build with -C force-frame-pointers=yes).
 * At exit it writes to $PROFILE_OUT one "S pc ret ret ..." line per
 * sample, in hex, then "M <line>" per line of /proc/self/maps.
 * x86-64 Linux, single-threaded programs.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define DEPTH 64
#define SAMPLES 100000
/* 997 Hz: a prime rate does not beat against periodic work. */
#define PERIOD_US (1000000 / 997)

static uintptr_t stacks[SAMPLES][DEPTH];
static unsigned char depths[SAMPLES];
static volatile size_t taken;
static uintptr_t stack_top;

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    if (taken >= SAMPLES) return;
    const mcontext_t *m = &((const ucontext_t *)context)->uc_mcontext;
    uintptr_t *frame = stacks[taken];
    uintptr_t sp = m->gregs[REG_RSP], fp = m->gregs[REG_RBP];
    int n = 0;
    frame[n++] = m->gregs[REG_RIP];
    /* Follow saved frame pointers while they stay on the stack, rising. */
    while (n < DEPTH && fp >= sp && fp % 8 == 0 && fp + 16 <= stack_top) {
        frame[n++] = ((const uintptr_t *)fp)[1];
        sp = fp + 16;
        fp = ((const uintptr_t *)fp)[0];
    }
    depths[taken++] = (unsigned char)n;
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROFILE_OUT");
    FILE *out = fopen(path ? path : "profile.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    for (size_t i = 0; i < taken; i++) {
        fputc('S', out);
        for (int d = 0; d < depths[i]; d++) fprintf(out, " %lx", (unsigned long)stacks[i][d]);
        fputc('\n', out);
    }
    char line[4096];
    while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    fclose(maps);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    /* The top of the main thread's stack bounds the frame walk. */
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    unsigned long lo, hi;
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, "[stack]") && sscanf(line, "%lx-%lx", &lo, &hi) == 2) stack_top = hi;
    if (maps) fclose(maps);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, PERIOD_US}, {0, PERIOD_US}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(dump);
}

/* LD_PRELOAD sampling profiler: a CLOCK_MONOTONIC POSIX timer delivers
 * SIGPROF at 1 kHz, the handler stores one glibc backtrace into a
 * preallocated array, and at exit the process writes its
 * /proc/self/maps and every sample to prof.<pid>.txt (or to the
 * directory named by PROF_DIR). A wall-clock timer, because on a VM the
 * CPU-time clocks tick at the scheduler's 250 Hz whatever is asked. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>
#include <unistd.h>

#define DEPTH 48
#define MAX_SAMPLES (120 * 1000) /* two minutes at 1 kHz */

static void *frames[MAX_SAMPLES][DEPTH];
static int depths[MAX_SAMPLES];
static volatile sig_atomic_t taken;
static timer_t timer;

static void on_sigprof(int sig) {
    (void)sig;
    int i = taken;
    if (i < MAX_SAMPLES) {
        depths[i] = backtrace(frames[i], DEPTH);
        taken = i + 1;
    }
}

__attribute__((constructor)) static void start(void) {
    void *warm[1];
    backtrace(warm, 1); /* loads libgcc_s now, not inside the handler */
    struct sigaction sa = {.sa_handler = on_sigprof, .sa_flags = SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev = {.sigev_notify = SIGEV_SIGNAL, .sigev_signo = SIGPROF};
    struct itimerspec every_ms = {{0, 1000000}, {0, 1000000}};
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) == 0)
        timer_settime(timer, 0, &every_ms, NULL);
}

__attribute__((destructor)) static void dump(void) {
    timer_delete(timer);
    const char *dir = getenv("PROF_DIR");
    char path[4096], line[4096];
    snprintf(path, sizeof path, "%s/prof.%d.txt", dir ? dir : ".", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    fputs("# maps\n", out);
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fputs("# samples\n", out);
    for (int i = 0; i < taken; i++) {
        for (int d = 0; d < depths[i]; d++)
            fprintf(out, "%s%lx", d ? " " : "", (unsigned long)frames[i][d]);
        fputc('\n', out);
    }
    fclose(maps);
    fclose(out);
}

#!/usr/bin/env python3
"""Host-side profiler for osprof processes: a SIGPROF sampler and a malloc
counter, both injected with LD_PRELOAD.

    python3 scripts/hostprof.py sample [--runs N] [--period-us P] [--top K] \\
        -- build/src/tools/osprof_tool gate fig07
    python3 scripts/hostprof.py mallocs [--runs N] [--ops N] [--top K] \\
        -- build/src/tools/osprof_tool gate fig07

Each mode builds a small preload library with the system C compiler (`cc`,
or $CC) into a temporary directory and runs the command N times under it.

sample   Fires SIGPROF from a CLOCK_MONOTONIC timer_create() timer every
         P microseconds (default 250).  On kernels whose ITIMER_PROF only
         fires at the scheduler tick, this is what gives a short gate
         process more than two or three samples.  Each sample records a
         backtrace(); the samples of every run (and of every process the
         command starts) are pooled, resolved with `addr2line -f -C`
         against each mapped image, and printed as self and inclusive
         shares per function and self shares per source file.  An inlined
         function is reported under its own name.
mallocs  Counts malloc, calloc and realloc calls per process, and records
         the stack of one malloc in 16.  Prints the counts (divided by
         --ops when given, e.g. the ops a gate records) and, for the
         sampled mallocs, the share of each first caller inside the
         repository's src/ tree.

The command should exit through exit() or a return from main, which is
when the library writes what it recorded.  Build with debug info
(RelWithDebInfo, or perfbench's Release build plus -g) for file and line
resolution.
"""

import argparse
import collections
import os
import shutil
import struct
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(ROOT, "src") + os.sep

PRELOAD_C = r"""
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

#define MAX_DEPTH 48
#define MAX_STACKS 32768

static void* g_stacks[MAX_STACKS][MAX_DEPTH];
static int g_depths[MAX_STACKS];
static volatile int g_count;
static unsigned long g_mallocs, g_callocs, g_reallocs;
static __thread int g_busy;
static int g_ready;
static timer_t g_timer;

static void on_prof(int sig, siginfo_t* info, void* uc) {
  (void)sig; (void)info; (void)uc;
  int n = g_count;
  if (n < MAX_STACKS) {
    g_depths[n] = backtrace(g_stacks[n], MAX_DEPTH);
    g_count = n + 1;
  }
}

extern void* __libc_malloc(size_t);
extern void* __libc_calloc(size_t, size_t);
extern void* __libc_realloc(void*, size_t);

#ifdef HOSTPROF_MALLOCS
static void note_malloc(void) {
  unsigned long n = ++g_mallocs;
  if (!g_ready || g_busy || (n & 15) != 0 || g_count >= MAX_STACKS) return;
  g_busy = 1;
  int i = g_count;
  g_depths[i] = backtrace(g_stacks[i], MAX_DEPTH);
  g_count = i + 1;
  g_busy = 0;
}
void* malloc(size_t n) { note_malloc(); return __libc_malloc(n); }
void* calloc(size_t n, size_t m) { ++g_callocs; return __libc_calloc(n, m); }
void* realloc(void* p, size_t n) { ++g_reallocs; return __libc_realloc(p, n); }
#endif

__attribute__((constructor)) static void hostprof_start(void) {
  void* warm[4];
  backtrace(warm, 4);  /* Loads the unwinder before any signal. */
#ifndef HOSTPROF_MALLOCS
  const char* period = getenv("HOSTPROF_PERIOD_US");
  long us = period != NULL ? atol(period) : 250;
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct sigevent ev;
  memset(&ev, 0, sizeof(ev));
  ev.sigev_notify = SIGEV_SIGNAL;
  ev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &ev, &g_timer) == 0) {
    struct itimerspec its;
    its.it_interval.tv_sec = us / 1000000;
    its.it_interval.tv_nsec = (us % 1000000) * 1000;
    its.it_value = its.it_interval;
    timer_settime(g_timer, 0, &its, NULL);
  }
#endif
  g_ready = 1;
}

__attribute__((destructor)) static void hostprof_stop(void) {
#ifndef HOSTPROF_MALLOCS
  timer_delete(g_timer);
#endif
  g_ready = 0;
  g_busy = 1;
  const char* out = getenv("HOSTPROF_OUT");
  if (out == NULL) return;
  char path[4096];
  snprintf(path, sizeof(path), "%s.%d", out, (int)getpid());
  FILE* f = fopen(path, "w");
  if (f == NULL) return;
  fprintf(f, "counts %lu %lu %lu\n", g_mallocs, g_callocs, g_reallocs);
  FILE* maps = fopen("/proc/self/maps", "r");
  char line[4096];
  while (maps != NULL && fgets(line, sizeof(line), maps) != NULL) {
    fprintf(f, "map %s", line);
  }
  if (maps != NULL) fclose(maps);
  for (int i = 0; i < g_count; ++i) {
    fprintf(f, "stack");
    for (int d = 0; d < g_depths[i]; ++d) fprintf(f, " %lx", (unsigned long)g_stacks[i][d]);
    fprintf(f, "\n");
  }
  fclose(f);
}
"""


def build_library(tmp, mallocs):
    source = os.path.join(tmp, "hostprof.c")
    with open(source, "w") as f:
        f.write(PRELOAD_C)
    lib = os.path.join(tmp, "hostprof.so")
    cmd = [os.environ.get("CC", "cc"), "-O1", "-shared", "-fPIC", "-o", lib,
           source, "-lrt"]
    if mallocs:
        cmd.insert(1, "-DHOSTPROF_MALLOCS")
    subprocess.run(cmd, check=True)
    return lib


def parse_dump(path):
    counts, maps, stacks = (0, 0, 0), [], []
    with open(path) as f:
        for line in f:
            kind, _, rest = line.partition(" ")
            if kind == "counts":
                counts = tuple(int(x) for x in rest.split())
            elif kind == "map":
                fields = rest.split()
                if len(fields) >= 6 and "x" in fields[1]:
                    lo, hi = (int(x, 16) for x in fields[0].split("-"))
                    maps.append((lo, hi, int(fields[2], 16), fields[5]))
            elif kind.strip() == "stack":
                stacks.append([int(x, 16) for x in rest.split()])
    return counts, maps, stacks


SEGMENTS = {}


def load_segments(image):
    """The image's PT_LOAD segments as (offset, vaddr, filesz), 64-bit ELF."""
    cache = SEGMENTS
    if image not in cache:
        segments = []
        try:
            with open(image, "rb") as f:
                head = f.read(64)
                if head[:4] == b"\x7fELF" and head[4] == 2:
                    phoff, = struct.unpack_from("<Q", head, 32)
                    phentsize, phnum = struct.unpack_from("<HH", head, 54)
                    f.seek(phoff)
                    table = f.read(phentsize * phnum)
                    for i in range(phnum):
                        p_type, _, p_offset, p_vaddr, _, p_filesz = (
                            struct.unpack_from("<IIQQQQ", table, i * phentsize))
                        if p_type == 1:
                            segments.append((p_offset, p_vaddr, p_filesz))
        except OSError:
            pass
        cache[image] = segments
    return cache[image]


def to_image_address(addr, maps):
    """(image, address in the image's ELF address space), or None."""
    for lo, hi, offset, image in maps:
        if lo <= addr < hi:
            file_offset = addr - lo + offset
            for seg_off, seg_vaddr, seg_size in load_segments(image):
                if seg_off <= file_offset < seg_off + max(seg_size, 1):
                    return image, seg_vaddr + file_offset - seg_off
            return image, file_offset
    return None


class Resolver:
    """Batches addr2line per image; (function, file) per (image, address)."""

    def __init__(self):
        self.pending = collections.defaultdict(set)
        self.names = {}

    def want(self, image, addr):
        if (image, addr) not in self.names:
            self.pending[image].add(addr)

    def run(self):
        for image, addrs in self.pending.items():
            addrs = sorted(addrs)
            short = "[" + os.path.basename(image) + "]"
            try:
                out = subprocess.run(
                    ["addr2line", "-f", "-C", "-e", image] +
                    ["%x" % a for a in addrs],
                    capture_output=True, text=True, check=True).stdout
                lines = out.splitlines()
            except (OSError, subprocess.CalledProcessError):
                lines = []
            for i, addr in enumerate(addrs):
                func = lines[2 * i] if 2 * i < len(lines) else "??"
                where = lines[2 * i + 1] if 2 * i + 1 < len(lines) else "??"
                source = where.split(":")[0]
                if source in ("??", ""):
                    # No line table: addr2line's name is only the nearest
                    # exported symbol, so charge the image instead.
                    func = source = short
                self.names[(image, addr)] = (func, source)
        self.pending.clear()

    def name(self, image, addr):
        return self.names.get((image, addr), ("??", "??"))


def resolve_stacks(dumps, skip):
    """Per stack, the list of (function, source) frames, leaf first."""
    resolver = Resolver()
    located = []
    for _, maps, stacks in dumps:
        for stack in stacks:
            frames = []
            for depth, addr in enumerate(stack[skip:]):
                # Past the interrupted frame each entry is a return address;
                # the call sits just before it.
                where = to_image_address(addr if depth == 0 else addr - 1, maps)
                if where is not None:
                    resolver.want(*where)
                    frames.append(where)
            located.append(frames)
    resolver.run()
    return [[resolver.name(*where) for where in frames] for frames in located]


def print_shares(title, counter, total, top):
    print(f"\n{title} ({total} samples)")
    for name, n in counter.most_common(top):
        print(f"  {100.0 * n / total:6.2f}%  {n:7d}  {name}")


def run_command(lib, command, runs, env_extra, tmp):
    out = os.path.join(tmp, "dump")
    env = dict(os.environ)
    env.update(env_extra)
    env["LD_PRELOAD"] = lib
    env["HOSTPROF_OUT"] = out
    for _ in range(runs):
        subprocess.run(command, env=env, stdout=subprocess.DEVNULL, check=False)
    dumps = []
    for name in sorted(os.listdir(tmp)):
        if name.startswith("dump."):
            dumps.append(parse_dump(os.path.join(tmp, name)))
    return dumps


def sample(args, tmp):
    lib = build_library(tmp, mallocs=False)
    dumps = run_command(lib, args.command, args.runs,
                        {"HOSTPROF_PERIOD_US": str(args.period_us)}, tmp)
    # Frame 0 is the signal handler and frame 1 the sigreturn trampoline.
    stacks = [s for s in resolve_stacks(dumps, skip=2) if s]
    total = len(stacks)
    if total == 0:
        sys.exit("hostprof: no samples recorded")
    self_funcs = collections.Counter(s[0][0] for s in stacks)
    self_files = collections.Counter(s[0][1] for s in stacks)
    inclusive = collections.Counter()
    for s in stacks:
        # An image without a line table stands for many functions.
        inclusive.update({func for func, _ in s if not func.startswith("[")})
    print(f"{len(dumps)} processes, {args.runs} runs, period {args.period_us} us")
    print_shares("self, by function", self_funcs, total, args.top)
    print_shares("inclusive, by function", inclusive, total, args.top)
    print_shares("self, by source file", self_files, total, args.top)


def mallocs(args, tmp):
    lib = build_library(tmp, mallocs=True)
    dumps = run_command(lib, args.command, args.runs, {}, tmp)
    if not dumps:
        sys.exit("hostprof: no process wrote its counts")
    print(f"{len(dumps)} processes, {args.runs} runs")
    per = f" per op ({args.ops} ops)" if args.ops else " per process"
    for label, i in (("malloc", 0), ("calloc", 1), ("realloc", 2)):
        counts = sorted(d[0][i] for d in dumps)
        median = counts[len(counts) // 2]
        value = median / args.ops if args.ops else median
        print(f"  {label:8s}{per}: {value:.3f} (median over processes)")
    # Frame 0 is inside the library; the first frame in the repository's
    # src/ is the caller charged.
    stacks = resolve_stacks(dumps, skip=1)
    callers = collections.Counter()
    for frames in stacks:
        first = next((f"{func}  ({os.path.relpath(src, ROOT)})"
                      for func, src in frames if src.startswith(SRC_DIR)),
                     "(no frame in src/)")
        callers[first] += 1
    if stacks:
        print_shares("first src/ caller of the sampled mallocs (1 in 16)",
                     callers, len(stacks), args.top)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("sample", "mallocs"))
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--period-us", type=int, default=250)
    parser.add_argument("--ops", type=int, default=0,
                        help="mallocs: divide the counts by this many ops")
    parser.add_argument("--top", type=int, default=25)
    argv = sys.argv[1:]
    if "--" not in argv:
        parser.error("give the command to run after --")
    split = argv.index("--")
    args = parser.parse_args(argv[:split])
    args.command = argv[split + 1:]
    if not args.command:
        parser.error("give the command to run after --")
    tmp = tempfile.mkdtemp(prefix="hostprof.")
    try:
        (sample if args.mode == "sample" else mallocs)(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()

#!/bin/sh
# Where one benchmark workload spends its host time, by function — or,
# with --heap, how much heap it holds live at its peak.
#
#   scripts/profile.sh [--callees <function>] <workload> [seed=2007] [seconds=15]
#   scripts/profile.sh --heap <workload> [seed=2007] [seconds=15]
#
# Builds the benchmark package with frame pointers
# (RUSTFLAGS=-Cforce-frame-pointers=yes) into a fresh directory under
# ${TMPDIR:-/tmp}, and compiles scripts/profile/sampler.c with `cc`: a
# SIGPROF sampler that records the interrupted PC and the frame-pointer
# chain above it, at up to 1 kHz of CPU time (the kernel's tick rate
# caps it, 250 Hz on many hosts), and dumps the samples and
# /proc/self/maps at exit. Runs the BENCHMARK.json command form
# (`--workload <w> --seed <seed> --seconds <seconds> --trace 0`, 15 s by
# default, 1 to 60) with the
# sampler preloaded, then prints the functions with the most samples of
# their own ("self") and on the most stacks ("inclusive"), symbolized
# with `nm -C`, as shares of all samples — set-up included. A sample in
# a shared library (allocator, memcpy, libm) is named by the library and
# the nearest frame of the program above it; library frames are left
# out of the inclusive list. Inlined functions count as their caller,
# and a chain a library cuts short loses the frames above the cut.
#
# Every sampled stack is also written, folded, to stacks.folded in the
# work directory (one `root;…;leaf count` line per distinct stack, the
# input flame-graph tools read), and its path printed. With
# --callees <function> the script then prints, for the samples whose
# stack holds a frame whose name contains <function> (its outermost
# such frame), the share each direct callee of that frame takes, and
# the share the frame takes itself ("(self)").
#
# With --heap it preloads scripts/profile/heap.c instead: a thread that
# reads glibc's mallinfo2() every 5 ms and keeps the largest live heap
# (bytes malloc has handed out and not had back). It prints that peak,
# what glibc held from the system at that moment, and VmHWM — the
# benchmark's `peak_rss_mb` — so a memory claim can tell live bytes
# from allocator retention: two runs with the same `rows_digest` can
# differ in VmHWM by MiBs that the peak live heap does not show.
#
# A longer run buys samples, not precision per sample: at 15 s,
# join_heavy's run_op gets about 250 of its 728 samples, too few to
# split a 3 % component from the noise; 60 s gives four times as many.
#
# Needs cc, nm and python3; x86-64 Linux with glibc >= 2.33. Not run by
# CI: profiles are for finding where to look, and claims are still
# made with scripts/bench_pairs.sh.
set -eu

heap=no
callees=
if [ "${1:-}" = --heap ]; then
    heap=yes
    shift
elif [ "${1:-}" = --callees ] && [ $# -ge 2 ]; then
    callees=$2
    shift 2
fi
usage="usage: $0 [--heap | --callees <function>] <workload> [seed=2007] [seconds=15]"
if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "$usage" >&2
    exit 2
fi
workload=$1
seed=${2:-2007}
seconds=${3:-15}
case $seconds in
    '' | *[!0-9]*) echo "$usage: seconds is a whole number from 1 to 60" >&2; exit 2 ;;
esac
if [ "$seconds" -lt 1 ] || [ "$seconds" -gt 60 ]; then
    echo "$usage: seconds is a whole number from 1 to 60" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/profile.XXXXXX")
echo "work dir: $work"

RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$work/target" \
    cargo build --release --offline --quiet \
    --manifest-path "$root/benchmarks/Cargo.toml"
bin="$work/target/release/gridvine-benchmarks"

if [ $heap = yes ]; then
    cc -O2 -shared -fPIC -pthread -o "$work/heap.so" "$root/scripts/profile/heap.c"
    (cd "$work" && HEAP_OUT="$work/heap" LD_PRELOAD="$work/heap.so" \
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        >"$work/run.txt" 2>&1)
    awk '{ v[$1] = $2 } END {
        printf "peak live heap    %8.1f MiB  (at %.1f s, %d samples)\n",
            v["peak_live_kib"] / 1024, v["peak_at_s"], v["samples"]
        printf "held by glibc     %8.1f MiB  (at that peak)\n", v["held_at_peak_kib"] / 1024
        printf "VmHWM             %8.1f MiB  (peak_rss_mb)\n", v["VmHWM_kib"] / 1024
        printf "VmRSS at exit     %8.1f MiB\n", v["VmRSS_kib"] / 1024
    }' "$work/heap"
    grep '^rows_digest' "$work/run.txt" || true
    exit 0
fi

cc -O2 -shared -fPIC -o "$work/sampler.so" "$root/scripts/profile/sampler.c"
(cd "$work" && PROFILE_OUT="$work/samples" LD_PRELOAD="$work/sampler.so" \
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    >"$work/run.txt" 2>&1)
nm -C -n --defined-only "$bin" >"$work/symbols"

python3 - "$work/samples" "$work/symbols" "$bin" "$work/stacks.folded" "$callees" <<'EOF'
import bisect, collections, os, re, struct, sys

samples_path, symbols_path, exe, folded_path, callees = sys.argv[1:]
stacks, maps = [], []
for line in open(samples_path):
    if line.startswith("S "):
        stacks.append([int(a, 16) for a in line.split()[1:]])
    elif line.startswith("M "):
        maps.append(line[2:].split())

# Load bias of the executable: where its offset-0 mapping starts, less
# the lowest virtual address its LOAD segments ask for.
with open(exe, "rb") as f:
    elf = f.read(64)
    phoff, = struct.unpack_from("<Q", elf, 32)
    phentsize, phnum = struct.unpack_from("<HH", elf, 54)
    f.seek(phoff)
    headers = f.read(phentsize * phnum)
lowest = min(struct.unpack_from("<Q", headers, i * phentsize + 16)[0]
             for i in range(phnum)
             if struct.unpack_from("<I", headers, i * phentsize)[0] == 1)
real = os.path.realpath(exe)
bias = next(int(m[0].split("-")[0], 16) for m in maps
            if len(m) > 5 and os.path.realpath(m[5]) == real and int(m[2], 16) == 0) - lowest

addrs, names = [], []
for line in open(symbols_path):
    parts = line.rstrip("\n").split(" ", 2)
    if len(parts) == 3 and parts[1] in "tTwW":
        addrs.append(int(parts[0], 16))
        names.append(re.sub(r"::h[0-9a-f]{16}$", "", parts[2]))
libs = []
for m in maps:
    if len(m) > 5 and "x" in m[1]:
        lo, hi = (int(x, 16) for x in m[0].split("-"))
        libs.append((lo, hi, os.path.basename(m[5])))

def name(addr):
    for lo, hi, lib in libs:
        if lo <= addr < hi and lib != os.path.basename(real):
            return "[" + lib + "]"
    i = bisect.bisect_right(addrs, addr - bias) - 1
    return names[i] if i >= 0 else "[unknown]"

own, on, folded = collections.Counter(), collections.Counter(), collections.Counter()
under, callee = 0, collections.Counter()
for stack in stacks:
    # A return address is just past its call: step back into it.
    frames = [name(stack[0])] + [name(a - 1) for a in stack[1:]]
    folded[";".join(reversed(frames))] += 1
    if callees:
        # Outermost frame naming the function; the frame below it (one
        # step toward the leaf) is its direct callee.
        at = [i for i, f in enumerate(frames) if callees in f]
        if at:
            under += 1
            callee[frames[at[-1] - 1] if at[-1] > 0 else "(self)"] += 1
    ours = [f for f in frames if not f.startswith("[")]
    leaf = frames[0]
    if leaf.startswith("[") and ours:
        leaf += " under " + ours[0]
    own[leaf] += 1
    on.update(set(ours))
total = len(stacks)
print(f"{total} samples")
for title, counts in (("self", own), ("inclusive", on)):
    print(f"\n{title}:")
    for fn, n in counts.most_common(25):
        print(f"{100 * n / total:6.1f} %  {fn[:150]}")
with open(folded_path, "w") as out:
    for stack, n in sorted(folded.items()):
        out.write(f"{stack} {n}\n")
print(f"\nfolded stacks: {folded_path}")
if callees:
    print(f"\ndirect callees of '{callees}' ({under} samples, "
          f"{100 * under / max(total, 1):.1f} % of all):")
    for fn, n in callee.most_common(25):
        print(f"{100 * n / max(under, 1):6.1f} %  {fn[:150]}")
EOF

#!/bin/sh
# Where one benchmark workload spends its host time, by function.
#
#   scripts/profile.sh <workload> [seed=2007]
#
# Builds the benchmark package with frame pointers
# (RUSTFLAGS=-Cforce-frame-pointers=yes) into a fresh directory under
# ${TMPDIR:-/tmp}, and compiles scripts/profile/sampler.c with `cc`: a
# SIGPROF sampler that records the interrupted PC and the frame-pointer
# chain above it, at up to 1 kHz of CPU time (the kernel's tick rate
# caps it, 250 Hz on many hosts), and dumps the samples and
# /proc/self/maps at exit. Runs the BENCHMARK.json command form
# (`--workload <w> --seed <seed> --seconds 15 --trace 0`) with the
# sampler preloaded, then prints the functions with the most samples of
# their own ("self") and on the most stacks ("inclusive"), symbolized
# with `nm -C`, as shares of all samples — set-up included. A sample in
# a shared library (allocator, memcpy, libm) is named by the library and
# the nearest frame of the program above it; library frames are left
# out of the inclusive list. Inlined functions count as their caller,
# and a chain a library cuts short loses the frames above the cut.
#
# Needs cc, nm and python3; x86-64 Linux only. Not run by CI: host
# profiles are for finding where to look, and claims are still made
# with scripts/bench_pairs.sh.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <workload> [seed=2007]" >&2
    exit 2
fi
workload=$1
seed=${2:-2007}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/profile.XXXXXX")
echo "work dir: $work"

cc -O2 -shared -fPIC -o "$work/sampler.so" "$root/scripts/profile/sampler.c"
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$work/target" \
    cargo build --release --offline --quiet \
    --manifest-path "$root/benchmarks/Cargo.toml"
bin="$work/target/release/gridvine-benchmarks"

(cd "$work" && PROFILE_OUT="$work/samples" LD_PRELOAD="$work/sampler.so" \
    "$bin" --workload "$workload" --seed "$seed" --seconds 15 --trace 0 \
    >"$work/run.txt" 2>&1)
nm -C -n --defined-only "$bin" >"$work/symbols"

python3 - "$work/samples" "$work/symbols" "$bin" <<'EOF'
import bisect, collections, os, re, struct, sys

samples_path, symbols_path, exe = sys.argv[1:]
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

own, on = collections.Counter(), collections.Counter()
for stack in stacks:
    # A return address is just past its call: step back into it.
    frames = [name(stack[0])] + [name(a - 1) for a in stack[1:]]
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
EOF

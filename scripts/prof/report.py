#!/usr/bin/env python3
"""Self, inclusive and caller shares of a `sampler.c` profile.

    scripts/prof/report.py prof.<pid>.txt [--top N]

Each sample is one backtrace taken in the SIGPROF handler: its first two
frames are the handler and the kernel's signal trampoline, the third is
the interrupted instruction, the rest are return addresses. An address is
placed in its mapping from the dump's `/proc/self/maps`, made relative to
that file's offset-0 mapping (the PIE or library base) and symbolised by
`llvm-symbolizer`, inlined frames included. A return address is looked up
one byte back, so that it names the call, not the instruction after it.

Printed, as shares of all samples:
- self: the innermost function at the interrupted instruction;
- inclusive: every sample with the function anywhere on its stack;
- callers: for each of the top self functions, the nearest other
  function above it.
"""

import argparse
import bisect
import collections
import re
import subprocess

HANDLER_FRAMES = 2
HASH = re.compile(r"::h[0-9a-f]{16}( \(\.llvm\.\d+\))?$")
# Escapes of Rust's legacy mangling that llvm-symbolizer leaves in place.
ESCAPES = [("::_$", "::$"), ("$u7b$", "{"), ("$u7d$", "}"), ("$LT$", "<"),
           ("$GT$", ">"), ("$RF$", "&"), ("$BP$", "*"), ("$C$", ","),
           ("$u20$", " "), ("$u27$", "'"), ("$u5b$", "["), ("$u5d$", "]"),
           ("..", "::")]


def clean(name):
    """A symbolizer name without its hash suffix and mangling escapes."""
    name = HASH.sub("", name)
    for old, new in ESCAPES:
        name = name.replace(old, new)
    return name


def parse(path):
    """(mappings, samples): mappings as sorted (start, end, offset, path)."""
    maps, samples, section = [], [], None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# "):
                section = line[2:]
            elif section == "maps":
                parts = line.split(None, 5)
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                name = parts[5] if len(parts) > 5 else "[anon]"
                maps.append((lo, hi, int(parts[2], 16), name))
            elif section == "samples" and line:
                frames = [int(x, 16) for x in line.split()][HANDLER_FRAMES:]
                if frames:
                    samples.append(frames)
    maps.sort()
    return maps, samples


def locate(maps, starts, bases, addr):
    """(file, address relative to its base), or None outside any file."""
    i = bisect.bisect_right(starts, addr) - 1
    if i < 0 or addr >= maps[i][1] or maps[i][3] not in bases:
        return None
    return maps[i][3], addr - bases[maps[i][3]]


def symbolise(wanted):
    """{(file, rel): [innermost function, ..., outermost]}."""
    by_file = collections.defaultdict(list)
    for obj, rel in wanted:
        by_file[obj].append(rel)
    names = {}
    for obj, rels in by_file.items():
        out = subprocess.run(
            ["llvm-symbolizer", "--obj=" + obj, "--inlines"],
            input="".join(f"0x{r:x}\n" for r in rels),
            capture_output=True, text=True, check=True).stdout
        blocks = out.split("\n\n")
        short = obj.rsplit("/", 1)[-1]
        for rel, block in zip(rels, blocks):
            funcs = [clean(ln) for ln in block.strip("\n").split("\n")[0::2]]
            # A stripped library (libc here) names nothing: fold its
            # addresses into one entry per file.
            names[(obj, rel)] = [f if f != "??" else f"[{short}]" for f in funcs]
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    maps, samples = parse(args.profile)
    starts = [m[0] for m in maps]
    bases = {m[3]: m[0] for m in maps if m[2] == 0 and m[3].startswith("/")}
    stacks = []
    for frames in samples:
        stacks.append([locate(maps, starts, bases, a if k == 0 else a - 1)
                       for k, a in enumerate(frames)])
    names = symbolise({loc for st in stacks for loc in st if loc})

    own, incl = collections.Counter(), collections.Counter()
    callers = collections.defaultdict(collections.Counter)
    for st in stacks:
        chain = [f for loc in st for f in (names[loc] if loc else ["[unknown]"])]
        leaf = chain[0]
        own[leaf] += 1
        incl.update(set(chain))
        caller = next((f for f in chain[1:] if f != leaf), "[root]")
        callers[leaf][caller] += 1

    total = len(stacks) or 1
    pct = lambda n: f"{100 * n / total:6.1f} %"
    print(f"{len(stacks)} samples")
    print("\n-- self")
    for f, n in own.most_common(args.top):
        print(pct(n), f)
    print("\n-- inclusive")
    for f, n in incl.most_common(args.top):
        print(pct(n), f)
    print("\n-- callers of the top self functions")
    for f, _ in own.most_common(min(args.top, 10)):
        print(f)
        for c, n in callers[f].most_common(5):
            print("   ", pct(n), c)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Check that every library function is reachable from a shipped program.

    python3 tools/unreachable.py [--build-dir DIR] [--jobs N] [--list]

Run from anywhere; paths resolve against the repository root. The shipped
programs are the examples (examples/*.cpp), the bench harnesses
(bench/*.cc) and perfbench. The script builds the crophe library and those
programs at -O0 with -ffunction-sections, links each program against the
whole libcrophe.a (--whole-archive) with --gc-sections --print-gc-sections,
and intersects the strong (nm type T) .text sections the linker discards.
What remains is every out-of-line crophe:: function that no shipped program
can reach. Inline and template functions (weak COMDAT copies) and
file-local functions are outside the check.

-O0 matters: at higher levels a function the compiler inlines into all its
callers keeps an out-of-line body nothing calls, and would read as
unreachable.

The library, the examples and the harnesses come from the top-level CMake
project; perfbench's own objects come from perfbench/CMakeLists.txt, built
object by object, so neither project is changed. Each program is relinked
from the link command CMake wrote for it.

Exit status 1 when the result and tools/unreachable_allowlist.txt disagree:
an unreachable function that the list lacks, or a list entry that is now
reachable or no longer exists. --list prints the unreachable functions
whatever the list says, and exits 0.
"""

import argparse
import os
import re
import shlex
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "tools", "unreachable_allowlist.txt")
PERFBENCH_CORE = ["bench_stats.cc", "tracer.cc", "workloads.cc"]
CMAKE_FLAGS = [
    "-G", "Unix Makefiles",
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections",
]
GC_LINE = re.compile(r"removing unused section '([^']+)' in file '([^']+)'")


def check(cmd, cwd=None):
    """Run cmd, sending its output to stderr; exit on failure."""
    code = subprocess.call(cmd, cwd=cwd, stdout=sys.stderr)
    if code != 0:
        sys.exit("unreachable: command failed (%d): %s"
                 % (code, " ".join(cmd)))


def programs():
    """(name, CMake subdirectory) of each top-level shipped program."""
    found = []
    for subdir, ext in (("examples", ".cpp"), ("bench", ".cc")):
        for f in sorted(os.listdir(os.path.join(ROOT, subdir))):
            if f.endswith(ext):
                found.append((f[:-len(ext)], subdir))
    return found


def build(build_dir, jobs):
    """Build everything the links need; return the path of libcrophe.a."""
    main = os.path.join(build_dir, "main")
    pb = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(main, "CMakeCache.txt")):
        check(["cmake", "-S", ROOT, "-B", main] + CMAKE_FLAGS)
    check(["cmake", "--build", main, "-j", str(jobs), "--target"]
          + [name for name, _ in programs()])
    if not os.path.exists(os.path.join(pb, "CMakeCache.txt")):
        check(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", pb]
              + CMAKE_FLAGS)
    # Object targets only: building the perfbench target would compile a
    # second copy of the library.
    check(["make", "-C", pb, "-j", str(jobs), "main.cc.o"]
          + [src + ".o" for src in PERFBENCH_CORE])
    return os.path.join(main, "src", "libcrophe.a")


def link_command(link_txt, lib, out):
    """CMake's link command for one program, made to link the whole
    library into @p out and report every section it discards."""
    with open(link_txt) as f:
        cmd = shlex.split(f.read())
    result = []
    i = 0
    while i < len(cmd):
        tok = cmd[i]
        if tok == "-o":
            result += ["-o", out]
            i += 2
            continue
        if tok.endswith("libcrophe.a"):
            result += ["-Wl,--whole-archive", lib, "-Wl,--no-whole-archive"]
        elif tok == "libperfbench_core.a":
            result += [os.path.join("CMakeFiles", "perfbench_core.dir",
                                    src + ".o") for src in PERFBENCH_CORE]
        else:
            result.append(tok)
        i += 1
    return result + ["-Wl,--gc-sections", "-Wl,--print-gc-sections"]


def discarded(cwd, cmd):
    """(archive member, section) pairs of libcrophe.a the link drops."""
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit("unreachable: link failed: %s" % " ".join(cmd))
    dropped = set()
    for line in proc.stderr.splitlines():
        m = GC_LINE.search(line)
        if not m or not m.group(2).endswith(")"):
            continue
        archive, member = m.group(2)[:-1].split("(", 1)
        if archive.endswith("libcrophe.a"):
            dropped.add((member, m.group(1)))
    return dropped


def strong_text(lib):
    """(archive member, '.text.' + symbol) of every T symbol in @p lib."""
    out = subprocess.run(["nm", "--defined-only", lib], capture_output=True,
                         text=True, check=True).stdout
    sections = set()
    member = None
    for line in out.splitlines():
        if line.endswith(":") and " " not in line:
            member = line[:-1]
            continue
        parts = line.split()
        if len(parts) == 3 and parts[1] == "T":
            sections.add((member, ".text." + parts[2]))
    return sections


def demangle(symbols):
    out = subprocess.run(["c++filt"], input="\n".join(symbols) + "\n",
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()


def unreachable(build_dir, jobs):
    lib = build(build_dir, jobs)
    main = os.path.join(build_dir, "main")
    links = [(os.path.join(main, subdir), "CMakeFiles/%s.dir/link.txt" % name,
              name) for name, subdir in programs()]
    links.append((os.path.join(build_dir, "perfbench"),
                  "CMakeFiles/perfbench.dir/link.txt", "perfbench"))
    common = None
    for cwd, link_txt, name in links:
        cmd = link_command(os.path.join(cwd, link_txt), lib,
                           os.path.join(build_dir, name + ".gc"))
        dropped = discarded(cwd, cmd)
        common = dropped if common is None else common & dropped
    common &= strong_text(lib)
    names = demangle(sorted(sec[len(".text."):] for _, sec in common))
    print("linked %d programs" % len(links), file=sys.stderr)
    return sorted({n for n in names if n.startswith("crophe::")})


def allowlist():
    """Signature -> line number of each allow-list entry. An entry is
    '<demangled signature> ; <test that needs it> ; <why>'."""
    entries = {}
    with open(ALLOWLIST) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = [x.strip() for x in line.split(";")]
            if len(fields) != 3 or not all(fields):
                sys.exit("%s:%d: expected '<signature> ; <test> ; <why>'"
                         % (ALLOWLIST, lineno))
            entries[fields[0]] = lineno
    return entries


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir",
                        default=os.path.join(ROOT, "build-unreachable"))
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1))
    parser.add_argument("--list", action="store_true",
                        help="print the unreachable functions and exit 0")
    args = parser.parse_args(argv)

    found = unreachable(os.path.abspath(args.build_dir), args.jobs)
    if args.list:
        print("\n".join(found))
        return 0
    allowed = allowlist()
    missing = [f for f in found if f not in allowed]
    stale = sorted(set(allowed) - set(found), key=allowed.get)
    for f in missing:
        print("unreachable from every shipped program: %s" % f)
    for f in stale:
        print("%s:%d: stale entry, reachable or deleted: %s"
              % (os.path.relpath(ALLOWLIST, ROOT), allowed[f], f))
    if missing or stale:
        print("Delete the function, or list it with the test that needs "
              "it; drop stale entries.")
        return 1
    print("%d unreachable functions, all allow-listed" % len(found))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Dead-code gate: every out-of-line hedra:: function in src/ is linked into
a program, or scripts/dead_code_allow.txt says why it stays.

Usage: python3 scripts/dead_code.py

The programs are every binary of bench/ and examples/ (the figure CLIs,
admissiond, bnb_batch, micro_algorithms and the examples), built from the
root CMake with tests off, plus hedra_perfbench, built from
perfbench/CMakeLists.txt.  Both builds go to build-deadcode/ at -O0 with
-ffunction-sections and link with -Wl,--gc-sections, so a function survives
in a binary only if that program reaches it, and no inlining hides a caller.

The gate lists the global text symbols (`nm -C`, type T) of libhedra.a in
namespace hedra:: and fails on each one that no program keeps and no
allowlist entry covers.  It also fails when an allowlist entry covers no
unreached function (a stale entry), and when a program was not built:
micro_algorithms needs google-benchmark, and without it the functions only
it reaches would read as dead.

Allowlist lines are `<qualified name>  # <reason>`.  A name matches every
overload of that function; a name ending in `::` matches everything under
that scope.  ABI tags (`[abi:cxx11]`) are ignored on both sides.

Uses only the Python standard library, cmake, a C++ compiler and nm.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-deadcode"
ALLOWLIST = ROOT / "scripts" / "dead_code_allow.txt"
ABI_TAG = re.compile(r"\[abi:[^\]]*\]")
# -O0 so no caller is inlined away; one section per function so the linker
# can drop each function no program reaches.
CMAKE_FLAGS = [
    "-DCMAKE_BUILD_TYPE=DeadCode",
    "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def fail(message: str) -> None:
    print(f"dead_code: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(command: list[str]) -> str:
    result = subprocess.run(command, capture_output=True, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-4000:] + result.stderr[-4000:])
        fail(f"`{' '.join(command)}` exited {result.returncode}")
    return result.stdout


def build(source: Path, binary_dir: Path, configure: list[str], targets: list[str]) -> None:
    run(["cmake", "-S", str(source), "-B", str(binary_dir), *CMAKE_FLAGS, *configure])
    run(["cmake", "--build", str(binary_dir), "-j", str(os.cpu_count() or 1), *targets])


def text_symbols(path: Path, types: str) -> set[str]:
    """Demangled names of the defined text symbols of `path` of the given nm types."""
    names = set()
    for line in run(["nm", "-C", "--defined-only", str(path)]).splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in types:
            names.add(ABI_TAG.sub("", parts[2]))
    return names


def load_allowlist() -> list[str]:
    entries = []
    for line in ALLOWLIST.read_text(encoding="utf-8").splitlines():
        name = ABI_TAG.sub("", line.split("#", 1)[0]).strip()
        if name:
            entries.append(name)
    return entries


def covers(entry: str, symbol: str) -> bool:
    name = symbol.split("(", 1)[0]  # `hedra::a::f(int) const` -> `hedra::a::f`
    return name.startswith(entry) if entry.endswith("::") else name == entry


def main() -> int:
    programs_dir = BUILD / "programs"
    perfbench_dir = BUILD / "perfbench"
    expected = [programs_dir / src.stem
                for folder in ("bench", "examples")
                for src in sorted((ROOT / folder).glob("*.cpp"))]
    expected.append(perfbench_dir / "hedra_perfbench")
    # A binary left over from an earlier run must not stand in for one this
    # build could not make.
    for path in expected:
        path.unlink(missing_ok=True)
    build(ROOT, programs_dir, ["-DHEDRA_BUILD_TESTS=OFF"], [])
    build(ROOT / "perfbench", perfbench_dir, [], ["--target", "hedra_perfbench"])

    missing = [path.name for path in expected if not path.is_file()]
    if missing:
        fail(f"program(s) not built: {', '.join(missing)} (micro_algorithms "
             "needs google-benchmark); a function only a missing program "
             "reaches would read as dead, so no findings are reported")

    library = {name for name in text_symbols(programs_dir / "libhedra.a", "T")
               if name.startswith("hedra::")}
    kept: set[str] = set()
    for program in expected:
        kept |= text_symbols(program, "TtWw")
    unreached = sorted(library - kept)

    entries = load_allowlist()
    findings = [s for s in unreached if not any(covers(e, s) for e in entries)]
    stale = [e for e in entries if not any(covers(e, s) for s in unreached)]

    print(f"dead_code: {len(library)} functions in libhedra.a, "
          f"{len(unreached)} linked into no program, {len(entries)} allowlist "
          f"entries, {len(findings)} findings, {len(stale)} stale entries "
          f"({len(expected)} programs)")
    for symbol in findings:
        print(f"  unreached: {symbol}")
    for entry in stale:
        print(f"  stale allowlist entry: {entry}")
    return 1 if findings or stale else 0


if __name__ == "__main__":
    sys.exit(main())

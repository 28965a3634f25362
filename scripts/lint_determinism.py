#!/usr/bin/env python3
"""Determinism & locking-discipline lint for the sgm-pinn sources.

The library's contract is byte-identical results at any thread count
(docs/TESTING.md "Determinism"). Most violations of that contract enter the
tree through one of a handful of textual patterns, so this lint bans them
outright in src/:

  raw-mutex        std::mutex / std::lock_guard / std::unique_lock /
                   std::condition_variable / std::scoped_lock / shared or
                   timed mutexes anywhere outside src/util/mutex.hpp. All
                   locking goes through the capability-annotated wrappers so
                   clang -Wthread-safety can check the discipline; a raw
                   mutex is invisible to the analysis.
  raw-rand         rand() / srand() / std::random_device outside
                   src/util/rng.*. All randomness flows from the seedable
                   util::Rng; an ambient entropy source breaks run-to-run
                   reproducibility.
  time-seeded-rng  constructing any RNG from time(), a <chrono> clock or
                   clock() — the classic nondeterministic seed.
  std-async        std::async: its launch policy (and therefore execution
                   interleaving and the thread that runs the task) is
                   implementation-defined; use util::ThreadPool /
                   parallel_for_chunks, whose chunk layout is deterministic.
  unordered-accum  a range-for over a std::unordered_map/unordered_set
                   declared in the same file whose body does `+=`
                   accumulation. Hash-table iteration order is unspecified,
                   so floating-point accumulation over it is
                   layout-dependent. (Membership tests and lookups are fine.)
  failpoint-rng    a <random> engine or distribution anywhere outside
                   src/util/rng.*. Probabilistic decisions — including the
                   failpoint registry's `prob:` sites — must draw from a
                   seedable util::Rng, so a chaos run replays exactly given
                   SGM_FAILPOINT_SEED. Enforced structurally too: the
                   failpoint machinery (src/util/failpoint.cpp) must
                   reference util::Rng for its probability draw.
  fp-contract      every translation unit that includes the generic GEMM
                   micro-kernels (gemm_kernels.inl), and every source whose
                   CMake COMPILE_OPTIONS carry -mavx* or -mfma, must be
                   compiled with -ffp-contract=off in CMakeLists.txt.
                   Otherwise the compiler may fuse mul+add in the tile loops
                   but not the edge loops (C(i,j) becomes tiling-dependent),
                   or fuse differently from the baseline build of the same
                   code (results fork between hosts).

Usage:
  scripts/lint_determinism.py [--root DIR]   lint DIR (default: repo root)
  scripts/lint_determinism.py --self-test    prove each rule fires on a bad
                                             fixture and stays quiet on a
                                             clean one

Exit status: 0 clean, 1 findings (or self-test failure).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
import tempfile

SRC_EXTENSIONS = {".hpp", ".cpp", ".inl", ".h", ".cc"}

# Files allowed to touch the raw primitives a rule otherwise bans.
RAW_MUTEX_ALLOWED = {"src/util/mutex.hpp"}
RAW_RAND_ALLOWED = {"src/util/rng.hpp", "src/util/rng.cpp"}

RAW_MUTEX_RE = re.compile(
    r"std::(mutex|lock_guard|unique_lock|scoped_lock|condition_variable(_any)?"
    r"|shared_mutex|shared_lock|timed_mutex|recursive_mutex)\b")
RAW_RAND_RE = re.compile(r"(?<![\w:])(rand|srand)\s*\(|std::random_device")
STD_RANDOM_ENGINE_RE = re.compile(
    r"std::(mt19937(_64)?|minstd_rand0?|default_random_engine|knuth_b"
    r"|ranlux\w+|(uniform_real|uniform_int|bernoulli|normal|poisson"
    r"|discrete|exponential|geometric)_distribution)\b")
STD_ASYNC_RE = re.compile(r"std::async\b")
# An RNG constructed with a seed expression mentioning a clock. Covers both
# util::Rng and the <random> engines (which are themselves suspicious in
# src/, but the seed is the determinism bug).
TIME_SEED_RE = re.compile(
    r"\b(Rng|mt19937(_64)?|default_random_engine|minstd_rand0?|ranlux\w+)\s*"
    r"(\w+\s*)?[({][^;]*\b(time\s*\(|chrono|::clock\s*\(|clock\s*\(\))")
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(map|set|multimap|multiset)\s*<[^;{]*>\s+(\w+)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;)]*?:\s*([^)]+)\)")
ACCUM_RE = re.compile(r"[-+*]=")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line numbers."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            out.extend(ch if ch == "\n" else " " for ch in text[i:end])
            i = end
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                i += 2 if text[i] == "\\" else 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def brace_block(text: str, open_pos: int) -> str:
    """The {...} block starting at the first '{' at/after open_pos."""
    start = text.find("{", open_pos)
    if start < 0:  # single-statement loop body: up to the next ';'
        end = text.find(";", open_pos)
        return text[open_pos:end if end >= 0 else len(text)]
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[start:i + 1]
    return text[start:]


def check_file(rel: str, text: str) -> list[Finding]:
    findings: list[Finding] = []
    code = strip_comments_and_strings(text)

    if rel not in RAW_MUTEX_ALLOWED:
        for m in RAW_MUTEX_RE.finditer(code):
            findings.append(Finding(
                rel, line_of(code, m.start()), "raw-mutex",
                f"{m.group(0)} bypasses the annotated util::Mutex wrappers "
                "(util/mutex.hpp); clang -Wthread-safety cannot see it"))

    if rel not in RAW_RAND_ALLOWED:
        for m in RAW_RAND_RE.finditer(code):
            findings.append(Finding(
                rel, line_of(code, m.start()), "raw-rand",
                "ambient entropy source; all randomness must flow from a "
                "seedable util::Rng"))

    if rel not in RAW_RAND_ALLOWED:
        for m in STD_RANDOM_ENGINE_RE.finditer(code):
            findings.append(Finding(
                rel, line_of(code, m.start()), "failpoint-rng",
                f"{m.group(0)} bypasses util::Rng; probabilistic decisions "
                "(incl. failpoint prob: sites) must come from the seedable "
                "util::Rng so runs replay exactly"))

    for m in STD_ASYNC_RE.finditer(code):
        findings.append(Finding(
            rel, line_of(code, m.start()), "std-async",
            "launch policy and executing thread are implementation-defined; "
            "use util::ThreadPool / parallel_for_chunks"))

    for m in TIME_SEED_RE.finditer(code):
        findings.append(Finding(
            rel, line_of(code, m.start()), "time-seeded-rng",
            "RNG seeded from a clock is nondeterministic run-to-run; take "
            "the seed as a parameter"))

    unordered_names = {m.group(2) for m in UNORDERED_DECL_RE.finditer(code)}
    if unordered_names:
        for m in RANGE_FOR_RE.finditer(code):
            range_expr = m.group(1)
            tokens = set(re.findall(r"\w+", range_expr))
            hit = tokens & unordered_names
            if not hit:
                continue
            body = brace_block(code, m.end())
            if ACCUM_RE.search(body):
                findings.append(Finding(
                    rel, line_of(code, m.start()), "unordered-accum",
                    f"accumulation over unordered container '{hit.pop()}' "
                    "depends on hash-table iteration order; iterate a sorted "
                    "view or an ordered container"))
    return findings


SOURCE_PROPERTIES_RE = re.compile(
    r"set_source_files_properties\s*\(([^)]*)\)", re.S)
COMPILE_OPTIONS_RE = re.compile(r'COMPILE_OPTIONS\s+(?:"([^"]*)"|(\S+))')
VECTOR_ISA_FLAG_RE = re.compile(r"-m(avx[\w.]*|fma)\b")


def source_compile_options(cmake: str) -> list[tuple[int, list[str], str]]:
    """(line, sources, COMPILE_OPTIONS value) per set_source_files_properties
    call in a CMakeLists text, whole-line comments ignored."""
    code = re.sub(r"(?m)^\s*#.*$", "", cmake)
    out = []
    for m in SOURCE_PROPERTIES_RE.finditer(code):
        head, _, props = m.group(1).partition("PROPERTIES")
        opt = COMPILE_OPTIONS_RE.search(props)
        value = (opt.group(1) or opt.group(2)) if opt else ""
        out.append((line_of(code, m.start()), head.split(), value))
    return out


def check_fp_contract(root: pathlib.Path) -> list[Finding]:
    """-ffp-contract=off on every TU including gemm_kernels.inl and on every
    source CMake gives -mavx* or -mfma."""
    findings: list[Finding] = []
    cmake_path = root / "CMakeLists.txt"
    if not cmake_path.exists():
        return [Finding("CMakeLists.txt", 1, "fp-contract",
                        "CMakeLists.txt not found")]
    stanzas = source_compile_options(cmake_path.read_text())

    def contract_off(source: str) -> bool:
        return any(source in sources and "-ffp-contract=off" in value
                   for _, sources, value in stanzas)

    kernel_tus: list[str] = []
    src = root / "src"
    if src.is_dir():
        for path in sorted(src.rglob("*.cpp")):
            if re.search(r'#\s*include\s*"[^"]*gemm_kernels\.inl"',
                         path.read_text()):
                kernel_tus.append(str(path.relative_to(root)))

    for tu in kernel_tus:
        if not contract_off(tu):
            findings.append(Finding(
                tu, 1, "fp-contract",
                "includes gemm_kernels.inl but CMakeLists.txt does not set "
                "-ffp-contract=off for it; contraction makes C(i,j) depend "
                "on where a row falls in the tiling"))

    for line, sources, value in stanzas:
        flag = VECTOR_ISA_FLAG_RE.search(value)
        if not flag:
            continue
        for source in sources:
            if not contract_off(source):
                findings.append(Finding(
                    "CMakeLists.txt", line, "fp-contract",
                    f"{source} is compiled with {flag.group(0)} but without "
                    "-ffp-contract=off; the compiler may then fuse some "
                    "mul+add pairs and not others, and results depend on "
                    "the code path and the host"))
    return findings


def check_failpoint_routing(root: pathlib.Path) -> list[Finding]:
    """The failpoint machinery must draw its prob: decisions from util::Rng.

    The textual engine ban above catches a <random> rewrite; this structural
    check catches the subtler regression where the probability draw stops
    going through a seedable Rng at all (hash-of-pointer tricks, counters).
    """
    fp = root / "src" / "util" / "failpoint.cpp"
    if not fp.exists():
        return []
    code = strip_comments_and_strings(fp.read_text())
    if not re.search(r"\bRng\b", code):
        return [Finding(
            "src/util/failpoint.cpp", 1, "failpoint-rng",
            "failpoint prob: decisions must draw from a seedable util::Rng "
            "(SGM_FAILPOINT_SEED replay contract), but the file no longer "
            "references Rng")]
    return []


def lint(root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    src = root / "src"
    if src.is_dir():
        for path in sorted(src.rglob("*")):
            if path.suffix in SRC_EXTENSIONS and path.is_file():
                rel = str(path.relative_to(root)).replace("\\", "/")
                findings.extend(check_file(rel, path.read_text()))
    findings.extend(check_fp_contract(root))
    findings.extend(check_failpoint_routing(root))
    return findings


# ---------------------------------------------------------------------------
# Self-test: every rule must fire on its bad fixture and stay quiet on the
# clean one. Run by tier-1 CI so a regressed regex cannot silently stop
# guarding the tree.
# ---------------------------------------------------------------------------

BAD_FIXTURE = """
#include <mutex>
#include <random>
#include <future>
#include <unordered_map>
std::mutex raw_mu;                                   // raw-mutex
void f() {
  std::lock_guard<std::mutex> lock(raw_mu);          // raw-mutex (x2)
  int r = rand();                                    // raw-rand
  std::random_device rd;                             // raw-rand
  std::mt19937 gen(std::chrono::steady_clock::now().time_since_epoch().count());
  std::uniform_real_distribution<double> dist(0, 1); // failpoint-rng
  auto fut = std::async([] { return 1; });           // std-async
  std::unordered_map<int, double> weights;
  double total = 0.0;
  for (const auto& [k, v] : weights) {
    total += v;                                      // unordered-accum
  }
}
"""

CLEAN_FIXTURE = """
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include <unordered_map>
// Comment mentioning std::mutex and rand() must not trip the lint.
void g(sgm::util::Rng& rng) {
  const char* s = "std::async in a string literal";
  sgm::util::Mutex mu;
  sgm::util::MutexLock lock(mu);
  double x = rng.uniform();
  std::unordered_map<int, double> lookup;
  double y = lookup.count(1) ? lookup[1] : x;  // lookup, not iteration
  (void)s; (void)y;
}
"""

BAD_CMAKE = """
add_library(x STATIC src/tensor/matrix.cpp)
# no fp-contract property at all
"""

BAD_KERNEL_TU = """
#include "tensor/gemm_kernels.inl"
"""

# A vector-ISA source without -ffp-contract=off (one flag is enough to
# fire), then the fixed stanza.
BAD_ISA_CMAKE = """
# set_source_files_properties(src/commented.cpp PROPERTIES
#   COMPILE_OPTIONS "-mavx2")
set_source_files_properties(src/tensor/gemm_avx512.cpp PROPERTIES
  COMPILE_OPTIONS "-mavx512f;-mfma")
set_source_files_properties(src/tensor/plain.cpp PROPERTIES
  COMPILE_OPTIONS "-O3")
"""

CLEAN_ISA_CMAKE = """
# set_source_files_properties(src/commented.cpp PROPERTIES
#   COMPILE_OPTIONS "-mavx2")
set_source_files_properties(src/tensor/gemm_avx512.cpp PROPERTIES
  COMPILE_OPTIONS "-mavx512f;-mfma;-ffp-contract=off"
  COMPILE_DEFINITIONS X)
set_source_files_properties(src/tensor/plain.cpp PROPERTIES
  COMPILE_OPTIONS "-O3")
"""


def self_test() -> int:
    failures: list[str] = []

    def expect(name: str, cond: bool):
        if not cond:
            failures.append(name)

    bad = check_file("src/bad.cpp", BAD_FIXTURE)
    rules = {f.rule for f in bad}
    expect("raw-mutex fires", "raw-mutex" in rules)
    expect("raw-rand fires", "raw-rand" in rules)
    expect("time-seeded-rng fires", "time-seeded-rng" in rules)
    expect("std-async fires", "std-async" in rules)
    expect("failpoint-rng fires", "failpoint-rng" in rules)
    expect("unordered-accum fires", "unordered-accum" in rules)

    clean = check_file("src/clean.cpp", CLEAN_FIXTURE)
    expect("clean fixture is clean",
           not clean or [str(f) for f in clean] == [])

    # Allowlisted paths may use the raw primitives.
    allowed = check_file("src/util/mutex.hpp", "std::mutex m_;")
    expect("mutex.hpp allowlisted", not allowed)

    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "src" / "tensor").mkdir(parents=True)
        (root / "src" / "tensor" / "matrix.cpp").write_text(BAD_KERNEL_TU)
        (root / "CMakeLists.txt").write_text(BAD_CMAKE)
        fp = check_fp_contract(root)
        expect("fp-contract fires on missing property",
               any(f.rule == "fp-contract" for f in fp))

        (root / "CMakeLists.txt").write_text(
            'set_source_files_properties(src/tensor/matrix.cpp PROPERTIES\n'
            '  COMPILE_OPTIONS "-ffp-contract=off")\n')
        fp_ok = check_fp_contract(root)
        expect("fp-contract quiet when property present", not fp_ok)

        (root / "src" / "tensor" / "matrix.cpp").unlink()
        (root / "CMakeLists.txt").write_text(BAD_ISA_CMAKE)
        isa = check_fp_contract(root)
        expect("fp-contract fires on a -mavx*/-mfma source",
               [f.rule for f in isa] == ["fp-contract"]
               and "gemm_avx512.cpp" in isa[0].message)
        (root / "CMakeLists.txt").write_text(CLEAN_ISA_CMAKE)
        expect("fp-contract quiet on a -mavx*/-mfma source with the flag",
               not check_fp_contract(root))

        # Structural failpoint-rng check: fires when failpoint.cpp stops
        # routing through Rng, quiet when it does.
        (root / "src" / "util").mkdir(parents=True)
        fp_cpp = root / "src" / "util" / "failpoint.cpp"
        fp_cpp.write_text("bool fire() { return counter++ % 7 == 0; }\n")
        expect("failpoint-rng fires on Rng-free failpoint.cpp",
               any(f.rule == "failpoint-rng"
                   for f in check_failpoint_routing(root)))
        fp_cpp.write_text("// prob draw\nbool fire(Rng& rng) "
                          "{ return rng.uniform() < p; }\n")
        expect("failpoint-rng quiet when routed through Rng",
               not check_failpoint_routing(root))

    if failures:
        for name in failures:
            print(f"SELF-TEST FAIL: {name}", file=sys.stderr)
        return 1
    print("lint_determinism self-test: all rules fire on bad fixtures and "
          "stay quiet on clean ones")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repository root (default: script's parent dir)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the rules against built-in fixtures")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = pathlib.Path(args.root) if args.root else \
        pathlib.Path(__file__).resolve().parent.parent
    findings = lint(root)
    for f in findings:
        print(f)
    if findings:
        print(f"\n{len(findings)} determinism-lint finding(s)",
              file=sys.stderr)
        return 1
    print("lint_determinism: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

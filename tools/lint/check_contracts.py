#!/usr/bin/env python3
"""Project-contract linter: mechanically enforces conventions that used to
live only in prose. Run from anywhere; exits non-zero with one line per
violation. CI runs it in the static-analysis lane.

Checks:
  1. thread-safety tags   — every public method declared in
     src/core/graphitti.h carries exactly one of the tags [read],
     [commit], [any-thread], [unversioned], [boot] in the comment block
     immediately above it ([durable] is a supplemental tag, not a primary
     one). Constructors, destructors, operators and nested-type bodies are
     exempt. [unversioned] (an unpinned reference into the current
     version) is only allowed on a const method, so no mutable escape
     hatch into published state can come back.
  2. bench registration   — every bench/bench_*.cc is listed in the
     BENCHES array of bench/run_benchmarks.sh (CMake registration is
     GLOB-based and checked to still be so).
  3. test registration    — every tests/*.cc matches *_test.cc, the glob
     CMake turns into a ctest suite (a stray helper.cc would silently
     never run).
  4. hot-path maps/sets   — no std::map / std::unordered_map / std::set /
     std::unordered_set in src/agraph, src/query, src/spatial without a
     `// lint: allow-map(<reason>)` waiver on the same or preceding line.
  5. bench result pairs   — every BENCH_<name>.json at the repo root has
     its BENCH_<name>_pre.json companion, so a perf claim always ships
     with its baseline.
  6. WAL record numbers   — the WalRecordType enumerators in
     src/persist/wal.h carry explicit values that are unique and leave no
     gap in 1..WAL_RECORD_HIGH_WATER. A retired record type keeps its
     enumerator, so its number never passes to a new type that old WALs
     would replay as the wrong mutation.
"""
import os
import re
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

PRIMARY_TAGS = ("[read]", "[commit]", "[any-thread]", "[unversioned]", "[boot]")

HOT_DIRS = ("src/agraph", "src/query", "src/spatial")
WAL_HEADER = "src/persist/wal.h"
# The largest number ever given to a WalRecordType. It only rises: raise it
# when adding a record type, so deleting the newest enumerator (retired or
# not) is a gap like any other.
WAL_RECORD_HIGH_WATER = 8
WAL_ENUMERATOR_RE = re.compile(r"\s*(k\w+)\s*(?:=\s*(\d+))?\s*,?\s*(?://.*)?")
MAP_RE = re.compile(r"\bstd::(?:unordered_)?(?:map|set)\b")
WAIVER_RE = re.compile(r"//\s*lint:\s*allow-map\([^)]+\)")


def fail(errors, msg):
    errors.append(msg)


def check_thread_safety_tags(errors):
    path = os.path.join(ROOT, "src/core/graphitti.h")
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()

    # Walk the class body of `class Graphitti`, tracking public/private
    # regions and brace depth so nested struct bodies are skipped.
    in_class = False
    access_public = False
    depth = 0          # brace depth relative to the class body
    comment_tags = []  # tags seen in the comment block directly above
    pending_decl = ""  # declaration spanning multiple lines

    for lineno, raw in enumerate(lines, 1):
        line = raw.rstrip("\n")
        stripped = line.strip()
        if not in_class:
            if re.match(r"class Graphitti\b", stripped):
                in_class = True
                access_public = False
            continue
        if depth == 0 and stripped.startswith("};"):
            break
        if depth == 0:
            if stripped.startswith("public:"):
                access_public = True
                comment_tags = []
                continue
            if stripped.startswith(("private:", "protected:")):
                access_public = False
                continue

        open_braces = line.count("{")
        close_braces = line.count("}")

        if access_public and depth == 0:
            if stripped.startswith("//"):
                # A tag only counts at the start of a comment line; prose
                # references like "a [commit] call may retire it" don't.
                m = re.match(r"//[/!]*\s*(\[[a-z-]+\])", stripped)
                if m and m.group(1) in PRIMARY_TAGS:
                    comment_tags.append(m.group(1))
            elif stripped == "":
                comment_tags = []
            else:
                pending_decl += " " + stripped
                # A declaration ends at `;` or at its body's opening `{`.
                if ";" in stripped or "{" in stripped:
                    decl = pending_decl.strip()
                    pending_decl = ""
                    if _is_taggable_method(decl):
                        if not comment_tags:
                            fail(errors,
                                 f"src/core/graphitti.h:{lineno}: public method "
                                 f"lacks a thread-safety tag {PRIMARY_TAGS}: "
                                 f"{decl[:80]}")
                        elif len(set(comment_tags)) > 1:
                            fail(errors,
                                 f"src/core/graphitti.h:{lineno}: public method "
                                 f"carries conflicting tags {sorted(set(comment_tags))}: "
                                 f"{decl[:80]}")
                        elif comment_tags[0] == "[unversioned]" and not _is_const_method(decl):
                            fail(errors,
                                 f"src/core/graphitti.h:{lineno}: [unversioned] on a "
                                 f"non-const method (published versions are immutable; "
                                 f"mutate through a [commit] API or Mutate): {decl[:80]}")
                    comment_tags = []

        depth += open_braces - close_braces
        if depth < 0:
            depth = 0


def _is_taggable_method(decl):
    if "(" not in decl:
        return False  # data member / using / typedef
    head = decl.split("(", 1)[0]
    # Constructors, destructor, deleted/defaulted special members, operators.
    if re.search(r"(~?Graphitti|operator)\s*$", head.strip()):
        return False
    if "= delete" in decl or "= default" in decl:
        return False
    # Nested type definitions like `struct EngineState : util::Versioned {`.
    if re.match(r"(struct|class|enum|union)\b", decl):
        return False
    return True


def _is_const_method(decl):
    """True when the qualifiers after the parameter list include `const`."""
    depth = 0
    for i, ch in enumerate(decl):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return re.match(r"\s*const\b", decl[i + 1:]) is not None
    return False


def check_bench_registration(errors):
    bench_dir = os.path.join(ROOT, "bench")
    sources = sorted(f[:-3] for f in os.listdir(bench_dir)
                     if f.startswith("bench_") and f.endswith(".cc"))
    script = os.path.join(bench_dir, "run_benchmarks.sh")
    with open(script, encoding="utf-8") as f:
        text = f.read()
    m = re.search(r"BENCHES=\((.*?)\)", text, re.S)
    if not m:
        fail(errors, "bench/run_benchmarks.sh: BENCHES array not found")
        return
    registered = set(m.group(1).split())
    for name in sources:
        if name not in registered:
            fail(errors, f"bench/{name}.cc is not registered in "
                         f"bench/run_benchmarks.sh BENCHES")
    for name in registered:
        if name not in sources:
            fail(errors, f"bench/run_benchmarks.sh registers {name} "
                         f"but bench/{name}.cc does not exist")
    # CMake registration is GLOB-driven; make sure that stays true so the
    # two sources of truth cannot drift three ways.
    with open(os.path.join(ROOT, "CMakeLists.txt"), encoding="utf-8") as f:
        cmake = f.read()
    if "bench/bench_*.cc" not in cmake:
        fail(errors, "CMakeLists.txt no longer GLOBs bench/bench_*.cc; "
                     "bench registration must be re-checked")


def check_test_registration(errors):
    tests_dir = os.path.join(ROOT, "tests")
    for f in sorted(os.listdir(tests_dir)):
        if f.endswith(".cc") and not f.endswith("_test.cc"):
            fail(errors, f"tests/{f} does not match *_test.cc and will "
                         f"never be registered as a ctest suite")
    with open(os.path.join(ROOT, "CMakeLists.txt"), encoding="utf-8") as f:
        cmake = f.read()
    if "tests/*_test.cc" not in cmake:
        fail(errors, "CMakeLists.txt no longer GLOBs tests/*_test.cc; "
                     "test registration must be re-checked")


def check_hot_path_maps(errors):
    for rel in HOT_DIRS:
        for dirpath, _, files in os.walk(os.path.join(ROOT, rel)):
            for fname in sorted(files):
                if not fname.endswith((".h", ".cc")):
                    continue
                path = os.path.join(dirpath, fname)
                with open(path, encoding="utf-8") as f:
                    lines = f.readlines()
                for i, line in enumerate(lines):
                    if not MAP_RE.search(line):
                        continue
                    code = line.split("//", 1)[0]
                    if not MAP_RE.search(code):
                        continue  # only mentioned in a comment
                    prev = lines[i - 1] if i > 0 else ""
                    if WAIVER_RE.search(line) or WAIVER_RE.search(prev):
                        continue
                    relpath = os.path.relpath(path, ROOT)
                    fail(errors,
                         f"{relpath}:{i + 1}: std::(unordered_)map/set in a "
                         f"hot-path dir without a "
                         f"'// lint: allow-map(<reason>)' waiver")


def check_bench_pairs(errors):
    names = [f for f in os.listdir(ROOT)
             if re.fullmatch(r"BENCH_\w+\.json", f)]
    mains = [f for f in names if not f.endswith("_pre.json")]
    for f in sorted(mains):
        pre = f[:-5] + "_pre.json"
        if pre not in names:
            fail(errors, f"{f} has no {pre} companion (add the baseline "
                         f"taken on the same machine)")


def check_wal_record_numbers(errors):
    with open(os.path.join(ROOT, WAL_HEADER), encoding="utf-8") as f:
        lines = f.readlines()
    start = next((i for i, line in enumerate(lines)
                  if line.strip().startswith("enum class WalRecordType")), None)
    if start is None:
        fail(errors, f"{WAL_HEADER}: enum class WalRecordType not found")
        return
    owner = {}  # value -> enumerator
    for i in range(start + 1, len(lines)):
        stripped = lines[i].strip()
        if stripped.startswith("};"):
            break
        m = WAL_ENUMERATOR_RE.fullmatch(stripped)
        if not m:
            continue  # blank or comment line
        name, value = m.group(1), m.group(2)
        if value is None:
            fail(errors, f"{WAL_HEADER}:{i + 1}: WalRecordType::{name} has no "
                         f"explicit value")
        elif int(value) in owner:
            fail(errors, f"{WAL_HEADER}:{i + 1}: WalRecordType::{name} reuses "
                         f"value {value} of {owner[int(value)]}")
        else:
            owner[int(value)] = name
    top = max(owner, default=0)
    if top > WAL_RECORD_HIGH_WATER:
        fail(errors, f"{WAL_HEADER}: WalRecordType value {top} is above "
                     f"WAL_RECORD_HIGH_WATER; raise it to {top} in "
                     f"tools/lint/check_contracts.py")
    gaps = sorted(set(range(1, max(top, WAL_RECORD_HIGH_WATER) + 1)) - set(owner))
    if gaps:
        fail(errors, f"{WAL_HEADER}: WalRecordType has no enumerator for "
                     f"value(s) {', '.join(map(str, gaps))}; a retired record "
                     f"type keeps its enumerator so its number is never reused")


def main():
    errors = []
    check_thread_safety_tags(errors)
    check_bench_registration(errors)
    check_test_registration(errors)
    check_hot_path_maps(errors)
    check_bench_pairs(errors)
    check_wal_record_numbers(errors)
    if errors:
        for e in errors:
            print(f"contract violation: {e}", file=sys.stderr)
        print(f"\n{len(errors)} contract violation(s); see "
              f"docs/STATIC_ANALYSIS.md for the rules and waiver process.",
              file=sys.stderr)
        return 1
    print("check_contracts: all contracts hold "
          "(tags, bench/test registration, hot-path maps/sets, bench pairs, "
          "WAL record numbers)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

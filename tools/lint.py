#!/usr/bin/env python3
"""CAPE repo lint: invariants the type system cannot enforce.

The compile-time layer (Clang thread-safety annotations, [[nodiscard]]
Status) catches lock-discipline and dropped-error bugs; this linter covers
the repo-specific rules that need whole-file or naming context instead of
types (DESIGN.md §12). Rules:

  raw-sync            No raw std synchronization primitive (std::mutex,
                      std::lock_guard, std::condition_variable, ...) outside
                      src/common/mutex.h. Everything locks through the
                      annotated cape::Mutex/MutexLock/CondVar wrappers so the
                      thread-safety analysis sees every acquisition.
  raw-thread          No direct thread creation (std::thread/jthread/async)
                      outside src/common/thread_pool.{h,cc}. All parallelism
                      goes through ThreadPool::ParallelFor, which owns
                      cooperative stop, exception capture, and determinism.
  nondeterminism      No nondeterministic source (rand, std::random_device,
                      wall clocks) in src/ result paths. Mining/explain
                      output must be byte-identical across runs and thread
                      counts; seeded std::mt19937 and steady_clock (used
                      only for deadlines/profiling) stay legal.
  check-in-status-fn  No CAPE_CHECK/CAPE_DCHECK inside a function that
                      returns Status or Result<T>: such a function has an
                      error channel, so aborting the process is almost
                      always the wrong response to a recoverable condition.
  failpoint-name      CAPE_FAILPOINT sites are dotted lower_snake paths
                      ("csv.read_row"), ≥ 2 segments, so CAPE_FAILPOINTS env
                      syntax and the site registry stay parseable.
  internal-include    "<dir>/x_internal.h" headers are private to src/<dir>/:
                      only .cc/_internal.h files in that directory may
                      include them, and no include path may contain "../".
  raw-file-io         No raw file IO (fopen/fread/fwrite/pread/pwrite/mmap/
                      lseek/::open, ...) outside src/storage/. All disk bytes
                      go through HeapFile/BufferManager so checksums, the
                      storage.page_read failpoint, and the page-cache budget
                      cannot be bypassed (DESIGN.md §15). Socket IO
                      (::read/::write/::close) and iostreams stay legal.
  fixed-temp-path     No `TempDir() + "literal"` path, and no
                      std::filesystem::temp_directory_path() under tests/.
                      ctest runs every test case as its own process, in
                      parallel, and all of them share ::testing::TempDir(),
                      so a fixed file name there lets two cases clobber each
                      other's files; temp_directory_path() is /tmp itself,
                      shared by every build tree (it ignores TEST_TMPDIR).
                      Use TestTempPath(name) from tests/test_util.h, which
                      names the path after the running test case.

Suppression: append `// lint:allow(<rule>) <why>` to the offending line, or
put `// lint:allow-next-line(<rule>) <why>` on the line above when the
statement is too long to carry a trailing comment (tools/srcscan.py parses
both forms, for this tool and for tools/analyzer alike). Suppressions are
meant to be rare and must carry a justification.

Usage:
  tools/lint.py                 # lint the whole repo
  tools/lint.py FILE...         # lint specific files (CI changed-file mode)
  tools/lint.py --self-test     # prove every rule fires on a seeded violation
"""

import argparse
import os
import re
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import srcscan  # noqa: E402  (shared stripping + suppression semantics)

# ----------------------------------------------------------------------------
# Rule tables

RAW_SYNC_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable(?:_any)?|call_once|once_flag)\b")
RAW_SYNC_ALLOWED = {"src/common/mutex.h"}

RAW_THREAD_RE = re.compile(r"\bstd::(?:thread|jthread|async)\b")
RAW_THREAD_ALLOWED = {"src/common/thread_pool.h", "src/common/thread_pool.cc"}

NONDETERMINISM_RE = re.compile(
    r"\b(?:rand|srand|rand_r|drand48|random)\s*\(|"
    r"\bstd::random_device\b|"
    r"\b(?:std::chrono::)?(?:system_clock|high_resolution_clock)\b|"
    r"\bgettimeofday\b|\blocaltime(?:_r)?\b|\bgmtime(?:_r)?\b|"
    r"\bstd::time\b|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)")

CHECK_RE = re.compile(r"\bCAPE_D?CHECK\s*\(")

FAILPOINT_CALL_RE = re.compile(r'\bCAPE_FAILPOINT(?:_FIRES)?\s*\(\s*"([^"]*)"')
FAILPOINT_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

RAW_FILE_IO_RE = re.compile(
    r"\b(?:fopen|fdopen|freopen|fread|fwrite|fseeko?|ftello?|fclose|fflush|"
    r"mmap|munmap|pread|pwrite|lseek)\s*\(|::open\s*\(")
RAW_FILE_IO_ALLOWED_PREFIX = "src/storage/"

# Matched against the raw text (the literal is the point); a match counts
# only when its `TempDir` token is code, not comment.
FIXED_TEMP_PATH_RE = re.compile(r'\bTempDir\s*\(\s*\)\s*\+\s*(?:u8|[LuU])?R?"')
# Matched against the stripped text, in tests/ only (benches run one at a
# time, outside ctest).
TEMP_DIRECTORY_PATH_RE = re.compile(r"\btemp_directory_path\s*\(")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

SOURCE_EXTENSIONS = srcscan.SOURCE_EXTENSIONS


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ----------------------------------------------------------------------------
# Comment/string stripping and suppression parsing are shared with
# tools/analyzer via srcscan.py, so the two tools cannot drift on what
# counts as code or on `:allow(...)` semantics.

strip_comments_and_strings = srcscan.strip_comments_and_strings
line_of_offset = srcscan.line_of_offset
_skip_balanced = srcscan.skip_balanced


def suppressed(original_lines, line_no, rule):
    return srcscan.suppressed(original_lines, line_no, rule, tool="lint")


# ----------------------------------------------------------------------------
# check-in-status-fn: find spans of function bodies whose return type is
# Status or Result<T>, then flag CAPE_CHECK/CAPE_DCHECK inside them.

STATUS_FN_RE = re.compile(
    r"^[ \t]*(?:static\s+|inline\s+|virtual\s+|constexpr\s+|friend\s+)*"
    r"(?:::)?(?:cape::)?(Status|Result\s*<[^;{}]*?>)[ \t\n]+"
    r"(~?[A-Za-z_][\w:]*)[ \t\n]*\(",
    re.MULTILINE)


def status_function_spans(stripped):
    """Yields (body_start, body_end) offsets of Status/Result function bodies."""
    for m in STATUS_FN_RE.finditer(stripped):
        i = _skip_balanced(stripped, m.end() - 1, "(", ")")
        n = len(stripped)
        # Consume trailing qualifiers/attribute macros: `const`, `noexcept`,
        # `override`, CAPE_EXCLUDES(mu_), ... until `{` (definition) or
        # anything else (declaration — skip).
        while True:
            while i < n and stripped[i] in " \t\n":
                i += 1
            if i >= n:
                break
            if stripped[i] == "{":
                yield (i, _skip_balanced(stripped, i, "{", "}"))
                break
            w = re.match(r"[A-Za-z_]\w*", stripped[i:])
            if w:
                i += w.end()
                while i < n and stripped[i] in " \t\n":
                    i += 1
                if i < n and stripped[i] == "(":
                    i = _skip_balanced(stripped, i, "(", ")")
                continue
            break  # `;`, `=`, `:` ... — not a definition


# ----------------------------------------------------------------------------
# Per-file linting

relpath = srcscan.relpath


def lint_file(path, root):
    rel = relpath(path, root)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        return [Finding(rel, 0, "io", f"cannot read file: {e}")]

    original_lines = text.splitlines()
    stripped = strip_comments_and_strings(text)
    findings = []

    def report(line_no, rule, message):
        if not suppressed(original_lines, line_no, rule):
            findings.append(Finding(rel, line_no, rule, message))

    in_src = rel.startswith("src/")

    if in_src and rel not in RAW_SYNC_ALLOWED:
        for m in RAW_SYNC_RE.finditer(stripped):
            report(line_of_offset(stripped, m.start()), "raw-sync",
                   f"raw {m.group(0)} — use cape::Mutex/MutexLock/CondVar "
                   "(common/mutex.h) so the thread-safety analysis sees the lock")

    if in_src and rel not in RAW_THREAD_ALLOWED:
        for m in RAW_THREAD_RE.finditer(stripped):
            report(line_of_offset(stripped, m.start()), "raw-thread",
                   f"direct {m.group(0)} — all parallelism goes through "
                   "ThreadPool::ParallelFor (common/thread_pool.h)")

    if in_src and not rel.startswith(RAW_FILE_IO_ALLOWED_PREFIX):
        for m in RAW_FILE_IO_RE.finditer(stripped):
            report(line_of_offset(stripped, m.start()), "raw-file-io",
                   f"raw file IO '{m.group(0).strip()}' outside src/storage/ — "
                   "go through HeapFile/BufferManager (storage/) so checksums, "
                   "failpoints, and the page-cache budget apply")

    if in_src:
        for m in NONDETERMINISM_RE.finditer(stripped):
            report(line_of_offset(stripped, m.start()), "nondeterminism",
                   f"nondeterministic source '{m.group(0).strip()}' in a result "
                   "path — results must be byte-identical across runs; use a "
                   "seeded generator or steady_clock")

        for body_start, body_end in status_function_spans(stripped):
            for m in CHECK_RE.finditer(stripped, body_start, body_end):
                report(line_of_offset(stripped, m.start()), "check-in-status-fn",
                       "CAPE_CHECK in a Status/Result-returning function — "
                       "return the error instead of aborting the process")

        # Failpoint names live inside string literals — scan the raw text.
        for m in FAILPOINT_CALL_RE.finditer(text):
            name = m.group(1)
            if not FAILPOINT_NAME_RE.match(name):
                report(line_of_offset(text, m.start()), "failpoint-name",
                       f"failpoint site '{name}' must be dotted lower_snake "
                       "segments like 'module.site'")

    for m in FIXED_TEMP_PATH_RE.finditer(text):
        if stripped[m.start()] != " ":
            report(line_of_offset(text, m.start()), "fixed-temp-path",
                   "fixed file name under TempDir() is shared by every test "
                   "process ctest runs in parallel — use TestTempPath(name) "
                   "(tests/test_util.h)")

    if rel.startswith("tests/"):
        for m in TEMP_DIRECTORY_PATH_RE.finditer(stripped):
            report(line_of_offset(stripped, m.start()), "fixed-temp-path",
                   "temp_directory_path() ignores TEST_TMPDIR, so build trees "
                   "running the same case share its files — use "
                   "TestTempPath(name) (tests/test_util.h)")

    for idx, line in enumerate(original_lines, start=1):
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        inc = m.group(1)
        if "../" in inc:
            report(idx, "internal-include",
                   f"relative include '{inc}' — include project headers "
                   "root-relative (\"dir/file.h\")")
            continue
        base = os.path.basename(inc)
        if base.endswith("_internal.h"):
            inc_dir = os.path.dirname(inc)
            ok = (rel.startswith(f"src/{inc_dir}/")
                  and (rel.endswith(".cc") or rel.endswith("_internal.h")))
            if not ok:
                report(idx, "internal-include",
                       f"'{inc}' is internal to src/{inc_dir}/ — only .cc files "
                       "in that directory may include it; depend on the public "
                       "header instead")

    return findings


def collect_files(root):
    return srcscan.collect_files(root)


def run_lint(root, files=None):
    if files is None:
        files = collect_files(root)
    findings = []
    for path in files:
        findings.extend(lint_file(path, root))
    return findings


# ----------------------------------------------------------------------------
# Self-test: seed one violation per rule in a temp tree and require the
# linter to (a) flag each one, (b) pass the clean + suppressed fixtures.

SELF_TEST_FIXTURES = {
    # filename -> (content, expected rule or None)
    "src/foo/bad_sync.cc": (
        "#include <mutex>\nstd::mutex mu;\n", "raw-sync"),
    "src/foo/bad_thread.cc": (
        "#include <thread>\nvoid F() { std::thread t([]{}); t.join(); }\n",
        "raw-thread"),
    "src/foo/bad_rand.cc": (
        "#include <cstdlib>\nint F() { return rand() % 7; }\n",
        "nondeterminism"),
    "src/foo/bad_clock.cc": (
        "#include <chrono>\nauto F() { return std::chrono::system_clock::now(); }\n",
        "nondeterminism"),
    "src/foo/bad_check.cc": (
        '#include "common/status.h"\n'
        '#include "common/logging.h"\n'
        "cape::Status F(int x) {\n"
        "  CAPE_CHECK(x > 0);\n"
        "  return cape::Status::OK();\n"
        "}\n", "check-in-status-fn"),
    "src/foo/bad_failpoint.cc": (
        '#include "common/failpoint.h"\n'
        "cape::Status F() {\n"
        '  CAPE_FAILPOINT("BadName");\n'
        "  return cape::Status::OK();\n"
        "}\n", "failpoint-name"),
    "src/foo/bad_failpoint_fires.cc": (
        '#include "common/failpoint.h"\n'
        "bool F() {\n"
        '  return CAPE_FAILPOINT_FIRES("AlsoBad");\n'
        "}\n", "failpoint-name"),
    "src/foo/bad_fileio.cc": (
        "#include <cstdio>\n"
        "#include <fcntl.h>\n"
        "void F() {\n"
        '  std::FILE* f = std::fopen("x", "rb");\n'
        "  std::fclose(f);\n"
        '  (void)::open("x", O_RDONLY);\n'
        "}\n", "raw-file-io"),
    "src/foo/bad_include.cc": (
        '#include "bar/widget_internal.h"\n', "internal-include"),
    "src/foo/bad_relative.cc": (
        '#include "../foo/thing.h"\n', "internal-include"),
    "tests/bad_temp_path.cc": (
        "#include <gtest/gtest.h>\n"
        "std::string P() {\n"
        '  return ::testing::TempDir() + "fixed.csv";\n'
        "}\n", "fixed-temp-path"),
    "tests/bad_temp_directory.cc": (
        "#include <filesystem>\n"
        "std::string P() {\n"
        '  return (std::filesystem::temp_directory_path() / "x.csv").string();\n'
        "}\n", "fixed-temp-path"),
    # Benches run one at a time, outside ctest: /tmp is theirs to use.
    "bench/temp_directory_ok.cc": (
        "#include <filesystem>\n"
        "std::string P() {\n"
        '  return (std::filesystem::temp_directory_path() / "x.csv").string();\n'
        "}\n", None),
    # A computed suffix, or the literal in a comment, is not a fixed path.
    "tests/temp_path_ok.cc": (
        '// ::testing::TempDir() + "fixed.csv" in a comment must not fire\n'
        "// nor may std::filesystem::temp_directory_path() in a comment\n"
        "#include <gtest/gtest.h>\n"
        "std::string P(const std::string& name) {\n"
        "  std::string path = ::testing::TempDir();\n"
        "  path += name;\n"
        "  return path;\n"
        "}\n", None),
    # Clean fixture: mentions forbidden names only in comments/strings, uses
    # a well-formed failpoint, a CHECK in a void function, and a justified
    # suppression — none of which may fire.
    "src/foo/clean.cc": (
        "// std::mutex and rand() in a comment must not fire\n"
        '#include "common/logging.h"\n'
        '#include "common/failpoint.h"\n'
        'const char* kDoc = "std::thread in a string";\n'
        "void G(int x) { CAPE_CHECK(x >= 0); }\n"
        'bool H() { return CAPE_FAILPOINT_FIRES("foo.soft_site"); }\n'
        "cape::Status F() {\n"
        '  CAPE_FAILPOINT("foo.load_row");\n'
        "  return cape::Status::OK();\n"
        "}\n", None),
    "src/foo/suppressed.cc": (
        "#include <mutex>\n"
        "std::mutex mu;  // lint:allow(raw-sync) self-test: justified escape\n",
        None),
    # The allowlisted files may use the raw primitives.
    "src/common/mutex.h": ("#include <mutex>\nstd::mutex raw;\n", None),
    "src/common/thread_pool.cc": (
        "#include <thread>\nstd::thread worker;\n", None),
    # Storage owns the disk: raw file IO is legal only under src/storage/.
    # Socket-style ::read/::write/::close stay legal everywhere (server.cc).
    "src/storage/io_ok.cc": (
        "#include <unistd.h>\n"
        "long F(int fd, void* buf) { return pread(fd, buf, 8, 0); }\n", None),
    "src/foo/sockets_ok.cc": (
        "#include <unistd.h>\n"
        "long G(int fd, void* buf) { return ::read(fd, buf, 8); }\n"
        "void H(int fd) { ::close(fd); }\n", None),
}


def self_test():
    failures = []
    with tempfile.TemporaryDirectory(prefix="cape_lint_selftest_") as root:
        for name, (content, _) in SELF_TEST_FIXTURES.items():
            path = os.path.join(root, name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        findings = run_lint(root)
        by_file = {}
        for f in findings:
            by_file.setdefault(f.path, []).append(f)
        for name, (_, expected_rule) in sorted(SELF_TEST_FIXTURES.items()):
            got = by_file.get(name, [])
            if expected_rule is None:
                if got:
                    failures.append(
                        f"{name}: expected clean, got {[str(f) for f in got]}")
            else:
                if not any(f.rule == expected_rule for f in got):
                    failures.append(
                        f"{name}: expected a {expected_rule} finding, got "
                        f"{[str(f) for f in got] or 'nothing'}")
                extra = [f for f in got if f.rule != expected_rule]
                if extra:
                    failures.append(
                        f"{name}: unexpected extra findings "
                        f"{[str(f) for f in extra]}")
    if failures:
        print("lint self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"lint self-test passed: {len(SELF_TEST_FIXTURES)} fixtures, "
          "every rule fires on its seeded violation and stays quiet on clean "
          "code")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="*",
                        help="files to lint (default: whole repo)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the seeded-violation self-test and exit")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test())

    root = os.path.abspath(
        args.root or os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
    files = [os.path.abspath(f) for f in args.files] or None
    findings = run_lint(root, files)
    for f in findings:
        print(f)
    if findings:
        print(f"\nlint: {len(findings)} finding(s). Fix them or, if a line is "
              "genuinely exempt, append `// lint:allow(<rule>) <why>`.",
              file=sys.stderr)
        sys.exit(1)
    count = len(files) if files is not None else len(collect_files(root))
    print(f"lint: OK ({count} files)")


if __name__ == "__main__":
    main()

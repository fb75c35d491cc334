"""The four invariant checks of the CAPE analyzer (DESIGN.md §17).

Each check walks the structural AST (cxxast.py) of every analyzed file plus
a whole-program call graph keyed by function base name, and yields Finding
objects. Check names are the suppression keys for
`// analyzer:allow(<check>) <why>`:

  cancellation        every data-bounded loop in the request-path
                      directories reaches a stop-token check (directly, or
                      through a callee that provably checks) — an
                      uncancellable scan turns a deadline into a hang.
  lock-order          the static lock-acquisition graph (MutexLock scopes +
                      CAPE_REQUIRES annotations, closed over calls) must be
                      acyclic, and no lock may be held across file IO,
                      CondVar::Wait on a foreign mutex, or a blocking
                      thread-pool call (ParallelFor waits for its workers).
  residency-dispatch  every relational operator entry point must handle
                      out-of-core tables: check Table::rows_resident(),
                      return NotImplemented, or scan through the kernels'
                      ScanChunks loop — directly or through a callee that
                      does. A miss sends a table whose rows live in a heap
                      file down code that reads resident column arrays.
  unordered-iteration iteration over std::unordered_{map,set} must not feed
                      an order-sensitive sink (container append, string/
                      stream build-up, float accumulation): hash-bucket
                      order varies across libstdc++ versions and seeds, and
                      CAPE's outputs are promised byte-identical.
"""

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import srcscan  # noqa: E402


class Finding:
    def __init__(self, rel, line, check, message):
        self.path = rel
        self.line = line
        self.check = check
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"

    def sort_key(self):
        return (self.path, self.line, self.check)


# ----------------------------------------------------------------------------
# Whole-program facts

STOP_CALL_NAMES = {
    "CAPE_RETURN_IF_STOPPED", "CAPE_RETURN_IF_STOPPED_BLOCK",
    "ShouldStop", "ShouldStopNow",
}

# Raw file IO (the lint's raw-file-io set) plus the storage-layer page IO and
# C++ stream types — anything that can put a disk access inside a lock scope.
IO_CALL_NAMES = {
    "fopen", "fdopen", "freopen", "fread", "fwrite", "fseek", "fseeko",
    "ftell", "ftello", "fclose", "fflush", "mmap", "munmap", "pread",
    "pwrite", "lseek", "ReadPage", "WritePage",
}
IO_TYPE_RE = re.compile(
    r"\bstd\s*::\s*(?:o|i)?fstream\b|\bstd::filesystem::\w+\s*\(")

# Pool calls that block the calling thread until worker tasks finish.
POOL_WAIT_NAMES = {"ParallelFor"}

CONDVAR_WAIT_NAMES = {"Wait", "WaitFor"}

# Handling out-of-core tables: the residency test, the NotImplemented
# refusal, or the scan loop that picks resident arrays or pinned pages.
RESIDENCY_RE = re.compile(r"\brows_resident\b|\bNotImplemented\b|\bScanChunks\b")


class Program:
    """Cross-file facts: call graph plus per-function derived properties."""

    def __init__(self, file_asts):
        self.files = file_asts
        self.by_base = {}
        for fa in file_asts:
            for fn in fa.functions:
                self.by_base.setdefault(fn.base_name, []).append(fn)
        self.checks_stop = self._fixpoint(self._direct_checks_stop,
                                          include_lambda_calls=True)
        self.does_io = self._fixpoint(self._direct_does_io,
                                      include_lambda_calls=False)
        self.handles_residency = self._fixpoint(self._direct_handles_residency,
                                                include_lambda_calls=True)
        self.acquires = self._acquires_fixpoint()

    def _direct_checks_stop(self, fn):
        # Lambda bodies count: a ParallelFor worker lambda that checks the
        # stop token is exactly how hot loops stay cancellable.
        return any(c.name in STOP_CALL_NAMES for c in fn.calls)

    def _direct_handles_residency(self, fn):
        body = fn.file.stripped[fn.body_start:fn.body_end]
        return bool(RESIDENCY_RE.search(body))

    def _direct_does_io(self, fn):
        # Lambda bodies do NOT count: a closure handed to the thread pool
        # runs on a worker later, not at the lexical site, so its IO is not
        # this function's IO (the lock checks consume this fact).
        if any(c.name in IO_CALL_NAMES for c in fn.calls
               if not fn.in_lambda(c.start)):
            return True
        body = _blank_lambda_spans(fn)
        return bool(IO_TYPE_RE.search(body))

    def _fixpoint(self, direct_fn, include_lambda_calls):
        prop = {}
        for fns in self.by_base.values():
            for fn in fns:
                prop[id(fn)] = direct_fn(fn)
        changed = True
        while changed:
            changed = False
            for fns in self.by_base.values():
                for fn in fns:
                    if prop[id(fn)]:
                        continue
                    for c in fn.calls:
                        if not include_lambda_calls and fn.in_lambda(c.start):
                            continue
                        if any(prop[id(g)] for g in self.by_base.get(c.name, ())):
                            prop[id(fn)] = True
                            changed = True
                            break
        return prop

    def _acquires_fixpoint(self):
        """Function -> set of qualified mutex names it (or a callee) may
        acquire via a MutexLock scope. CAPE_REQUIRES scopes are *held*, not
        acquired, so they do not propagate to callers (the caller already
        holds the lock — no acquisition edge). Scopes and call edges inside
        lambda bodies are deferred work and excluded likewise."""
        acq = {}
        for fns in self.by_base.values():
            for fn in fns:
                acq[id(fn)] = {s.qualified for s in fn.lock_scopes
                               if s.decl_line_offset != fn.header_start
                               and not fn.in_lambda(s.decl_line_offset)}
        changed = True
        while changed:
            changed = False
            for fns in self.by_base.values():
                for fn in fns:
                    for c in fn.calls:
                        if fn.in_lambda(c.start):
                            continue
                        for g in self.by_base.get(c.name, ()):
                            extra = acq[id(g)] - acq[id(fn)]
                            if extra:
                                acq[id(fn)] |= extra
                                changed = True
        return acq

    def calls_within(self, fn, start, end, include_lambda_calls=True):
        return [c for c in fn.calls if start <= c.start < end and
                (include_lambda_calls or not fn.in_lambda(c.start))]


def _blank_lambda_spans(fn):
    body = fn.file.stripped[fn.body_start:fn.body_end]
    for start, end in fn.lambda_spans:
        a, b = start - fn.body_start, end - fn.body_start
        if 0 <= a < b <= len(body):
            body = body[:a] + " " * (b - a) + body[b:]
    return body


# ----------------------------------------------------------------------------
# Check 1: cancellation coverage

CANCELLATION_DIRS = ("src/pattern/", "src/relational/", "src/explain/",
                     "src/fd/", "src/storage/")

# A loop is *data-bounded* when its trip count scales with table contents:
# rows, pages, groups, fragments, candidate patterns. Loops bounded by the
# schema (columns, attributes, aggregate specs) or by a 2048-row block are
# bounded by construction and excluded. The identifier lists below are the
# repo's actual naming vocabulary for data-scaled quantities; extend them
# when new ones appear (the self-test pins the classifier).
DATA_BOUND_RE = re.compile(
    r"\bnum_rows\b|\bnum_pages\b|\bpage_count\b|\bnum_groups\b|"
    r"\bnum_fragments\b|\brow_count\b|\brows_folded\b|\bend_row\b|"
    r"\btotal_rows\b|\bn_rows\b|\bnum_tuples\b|\brows\.size\b")
DATA_CONTAINER_RE = re.compile(
    r"(?:^|[\s.>:&*(])(?:\w*_)?(rows|pages|fragments|frags|groups|"
    r"candidates|cands|patterns|tuples|row_ids|matches)_?\s*$")


def _range_expr(header):
    """The range expression of a range-for header (after the ':')."""
    depth = 0
    for i, c in enumerate(header):
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth -= 1
        elif c == ":" and depth == 0 and header[i - 1:i] != ":" \
                and header[i + 1:i + 2] != ":":
            return header[i + 1:]
    return ""


def _is_data_bounded(loop):
    if loop.kind == "range-for":
        return bool(DATA_CONTAINER_RE.search(_range_expr(loop.header_text).strip()))
    return bool(DATA_BOUND_RE.search(loop.header_text))


def check_cancellation(program, fa, report):
    if not any(fa.rel.startswith(d) for d in CANCELLATION_DIRS):
        return
    for fn in fa.functions:
        for loop in fn.loops:
            if not _is_data_bounded(loop):
                continue
            if _loop_reaches_stop_check(program, fn, loop):
                continue
            report(fa, fa.line_at(loop.start), "cancellation",
                   f"data-bounded {loop.kind} loop in {fn.name}() has no "
                   "reachable stop-token check — add a kStopCheckStride "
                   "strided CAPE_RETURN_IF_STOPPED_BLOCK, or route the scan "
                   "through a checked kernel")


def _loop_reaches_stop_check(program, fn, loop):
    for c in program.calls_within(fn, loop.start, loop.body_end):
        if c.name in STOP_CALL_NAMES:
            return True
        if any(program.checks_stop[id(g)] for g in program.by_base.get(c.name, ())):
            return True
    return False


# ----------------------------------------------------------------------------
# Check 2: lock-order and blocking calls under a lock

LOCK_EXEMPT_FILES = {"src/common/mutex.h"}  # implements the primitives


def check_locks(program, fa, report):
    if not fa.rel.startswith("src/") or fa.rel in LOCK_EXEMPT_FILES:
        return
    for fn in fa.functions:
        for scope in fn.lock_scopes:
            if fn.in_lambda(scope.decl_line_offset):
                continue  # a lock taken inside a closure guards that closure
            for c in program.calls_within(fn, scope.start, scope.end,
                                          include_lambda_calls=False):
                _check_blocking_call(program, fa, fn, scope, c, report)


def _check_blocking_call(program, fa, fn, scope, c, report):
    line = fa.line_at(c.start)
    if c.name in IO_CALL_NAMES or \
            any(program.does_io[id(g)] for g in program.by_base.get(c.name, ())):
        report(fa, line, "lock-order",
               f"{fn.name}() holds {scope.qualified} across file IO "
               f"('{c.expr}') — stage the data under the lock, do the IO "
               "outside it")
        return
    if c.name in POOL_WAIT_NAMES:
        report(fa, line, "lock-order",
               f"{fn.name}() holds {scope.qualified} across blocking pool "
               f"call '{c.expr}' — workers that need the lock deadlock "
               "against the waiting submitter")
        return
    if c.name in CONDVAR_WAIT_NAMES and "." in c.expr or \
            c.name in CONDVAR_WAIT_NAMES and "_cv" in c.expr or \
            c.name in CONDVAR_WAIT_NAMES and "cv_" in c.expr:
        arg = c.args_text.split(",")[0].strip().lstrip("&")
        if arg and arg != scope.mutex_expr:
            held = {s.mutex_expr for s in fn.held_locks_at(c.start)}
            if arg not in held:
                report(fa, line, "lock-order",
                       f"{fn.name}() calls {c.expr}({arg}) while holding "
                       f"{scope.qualified} — waiting on a foreign mutex "
                       "keeps the held lock blocked for the whole wait")


def check_lock_graph(program, all_files, report_global):
    """Builds the static lock-order graph and rejects cycles. An edge A->B
    exists when a scope holding A acquires B, directly or via a callee."""
    edges = {}
    sites = {}
    for fa in all_files:
        if not fa.rel.startswith("src/") or fa.rel in LOCK_EXEMPT_FILES:
            continue
        for fn in fa.functions:
            for scope in fn.lock_scopes:
                if fn.in_lambda(scope.decl_line_offset):
                    continue
                held = scope.qualified
                for other in fn.lock_scopes:
                    if other is scope or other.mutex_expr == scope.mutex_expr:
                        continue
                    if scope.start <= other.decl_line_offset < scope.end and \
                            other.decl_line_offset != fn.header_start and \
                            not fn.in_lambda(other.decl_line_offset):
                        edges.setdefault(held, set()).add(other.qualified)
                        sites.setdefault((held, other.qualified),
                                         (fa, fa.line_at(other.decl_line_offset)))
                for c in program.calls_within(fn, scope.start, scope.end,
                                              include_lambda_calls=False):
                    for g in program.by_base.get(c.name, ()):
                        for acquired in program.acquires[id(g)]:
                            if acquired == held:
                                continue
                            edges.setdefault(held, set()).add(acquired)
                            sites.setdefault((held, acquired),
                                             (fa, fa.line_at(c.start)))
    # DFS cycle detection with path recovery.
    WHITE, GREY, BLACK = 0, 1, 2
    color = {}
    stack = []

    def visit(node):
        color[node] = GREY
        stack.append(node)
        for nxt in sorted(edges.get(node, ())):
            st = color.get(nxt, WHITE)
            if st == GREY:
                cycle = stack[stack.index(nxt):] + [nxt]
                fa, line = sites.get((node, nxt), (None, 0))
                report_global(fa, line, "lock-order",
                              "lock-order cycle: " + " -> ".join(cycle) +
                              " — impose a single acquisition order")
                return True
            if st == WHITE and visit(nxt):
                return True
        stack.pop()
        color[node] = BLACK
        return False

    for node in sorted(edges):
        if color.get(node, WHITE) == WHITE:
            if visit(node):
                return


# ----------------------------------------------------------------------------
# Check 3: residency-dispatch completeness

# Operator entry points that every caller routes table scans through. Each
# must handle out-of-core tables — check rows_resident(), return
# NotImplemented, or scan through ScanChunks — directly or through any
# callee that does (e.g. GroupByAggregate delegating to the fused kernel).
DISPATCH_SEEDS = {
    "FilterEquals", "GroupByAggregate", "FilterGroupAggregate",
    "CountFilterMatches", "Filter", "Project", "ProjectDistinct",
    "SortTable", "Cube",
}
DISPATCH_DIRS = ("src/relational/",)


def check_dispatch(program, all_files, report_global):
    for fa in all_files:
        if not any(fa.rel.startswith(d) for d in DISPATCH_DIRS):
            continue
        for fn in fa.functions:
            if fn.base_name not in DISPATCH_SEEDS:
                continue
            if program.handles_residency[id(fn)]:
                continue
            report_global(fa, fa.line_at(fn.header_start), "residency-dispatch",
                          f"operator {fn.name}() never checks residency — no "
                          "rows_resident(), NotImplemented or ScanChunks, "
                          "directly or through a callee — so an out-of-core "
                          "table would take a resident-row path")


# ----------------------------------------------------------------------------
# Check 4: determinism hazards — unordered iteration feeding ordered output

ORDER_SINK_RE = re.compile(
    r"\bpush_back\b|\bemplace_back\b|\bpush_front\b|\bAppendRow\b|"
    r"\bAppendValue\b|\bappend\b|\bAdd[A-Z]\w*\s*\(|<<|\+=")


PUSH_SINK_RE = re.compile(r"(\w+)\s*(?:\.|->)\s*(?:push_back|emplace_back)\s*\(")


def check_unordered(program, fa, unordered_names, report):
    """`unordered_names` must be scoped: names declared in this file plus in
    headers (where members live). A name that is unordered in some *other*
    .cc must not taint an identically-named local here."""
    if not fa.rel.startswith("src/"):
        return
    for fn in fa.functions:
        for loop in fn.loops:
            target = None
            if loop.kind == "range-for":
                expr = _range_expr(loop.header_text).strip()
                last = re.findall(r"[A-Za-z_]\w*", expr)
                if "unordered_map" in expr or "unordered_set" in expr:
                    target = expr
                elif last and last[-1] in unordered_names:
                    target = last[-1]
            else:
                m = re.search(r"(\w+)\s*(?:\.|->)\s*begin\s*\(", loop.header_text)
                if m and m.group(1) in unordered_names:
                    target = m.group(1)
            if target is None:
                continue
            body = fa.stripped[loop.body_start:loop.body_end]
            if not _has_order_hazard(fa, fn, loop, body):
                continue
            report(fa, fa.line_at(loop.start), "unordered-iteration",
                   f"{fn.name}() iterates unordered container '{target}' "
                   "into an order-sensitive sink — hash-bucket order is not "
                   "deterministic across platforms; iterate a sorted key "
                   "list (or switch to an ordered/first-seen index)")


def _has_order_hazard(fa, fn, loop, body):
    """Collect-then-sort is the sanctioned pattern: pushing into a vector
    that is std::sort-ed (with a deterministic comparator) after the loop
    erases the bucket order, so such pushes are not hazards."""
    after = fa.stripped[loop.body_end:fn.body_end]
    benign = set()
    for pm in PUSH_SINK_RE.finditer(body):
        v = pm.group(1)
        if re.search(r"\bsort\s*\(\s*" + re.escape(v) + r"\b", after):
            benign.add(v)
    for sm in ORDER_SINK_RE.finditer(body):
        pre = re.search(r"(\w+)\s*(?:\.|->)\s*$", body[:sm.start()])
        if sm.group(0).split("(")[0].strip() in ("push_back", "emplace_back") \
                and pre and pre.group(1) in benign:
            continue
        return True
    return False


ALL_CHECKS = ("cancellation", "lock-order", "residency-dispatch",
              "unordered-iteration")


def run_checks(file_asts, enabled=None):
    """Runs every enabled check over the parsed files; returns findings with
    inline `analyzer:allow` suppressions already applied."""
    enabled = set(enabled or ALL_CHECKS)
    program = Program(file_asts)
    # Unordered names seen in headers are visible everywhere (members,
    # aliases); names from a .cc stay scoped to that file.
    header_names = set()
    for fa in file_asts:
        if fa.rel.endswith((".h", ".hpp")):
            header_names |= set(fa.unordered_vars)

    findings = []

    def report(fa, line, check, message):
        if fa is not None and srcscan.suppressed(fa.lines, line, check,
                                                 tool="analyzer"):
            return
        findings.append(Finding(fa.rel if fa else "<global>", line, check,
                                message))

    for fa in file_asts:
        if "cancellation" in enabled:
            check_cancellation(program, fa, report)
        if "lock-order" in enabled:
            check_locks(program, fa, report)
        if "unordered-iteration" in enabled:
            check_unordered(program, fa, header_names | set(fa.unordered_vars),
                            report)
    if "lock-order" in enabled:
        check_lock_graph(program, file_asts, report)
    if "residency-dispatch" in enabled:
        check_dispatch(program, file_asts, report)

    findings.sort(key=Finding.sort_key)
    return findings

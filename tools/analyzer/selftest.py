"""Seeded-violation fixtures for `tools/analyzer --self-test`.

Mirrors tools/lint.py's self-test: a set of in-memory fixture files — each
seeding one violation, one clean twin of the same shape, or one suppression
— is parsed and run through the real checks, and the produced findings must
match the expectation list exactly. Every check has at least one seeded
violation (including a lock-order *cycle* and an uncancellable data-bounded
loop), one clean fixture proving the check does not overfire on the
sanctioned idiom (strided stop check, collect-then-sort, residency check or
scan-loop delegation, closure-deferred IO), and the suppression syntax is
exercised in
both its same-line and next-line forms.

Expectations name a unique line *substring* instead of a line number, so
editing a fixture does not silently shift an assertion onto the wrong line.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from analyzer import checks, cxxast  # noqa: E402

# ----------------------------------------------------------------------------
# Fixtures. Paths choose which checks apply (cancellation only fires under
# its request-path directories, dispatch only under src/relational/).

FIXTURES = {
    # -- cancellation ------------------------------------------------------
    "src/pattern/st_cancel.cc": """\
Status ScanAll(const Table& t, StopToken* stop) {
  for (int64_t row = 0; row < t.num_rows(); ++row) {  // seeded: unchecked
    Use(row);
  }
  return Status::OK();
}

Status ScanChecked(const Table& t, StopToken* stop) {
  for (int64_t row = 0; row < t.num_rows(); ++row) {
    if ((row & (kStopCheckStride - 1)) == 0) CAPE_RETURN_IF_STOPPED_BLOCK(stop);
    Use(row);
  }
  return Status::OK();
}

Status ScanViaKernel(const Table& t, StopToken* stop) {
  for (int64_t row = 0; row < t.num_rows(); row += kStopCheckStride) {
    CAPE_RETURN_IF_ERROR(CheckedKernel(t, stop));
  }
  return Status::OK();
}

Status ScanSuppressed(const Table& t, const std::vector<Row>& rows) {
  // analyzer:allow-next-line(cancellation) self-test: justified escape
  for (int64_t row = 0; row < t.num_rows(); ++row) {
    Use(row);
  }
  for (const Row& r : rows) {  // analyzer:allow(cancellation) same-line form
    Use(r);
  }
  return Status::OK();
}

Status ScanRows(const std::vector<Row>& rows) {
  for (const Row& r : rows) {  // seeded: unchecked range-for
    Use(r);
  }
  return Status::OK();
}
""",
    "src/pattern/st_cancel_helper.cc": """\
Status CheckedKernel(const Table& t, StopToken* stop) {
  for (int64_t row = 0; row < t.num_rows(); ++row) {
    if ((row & (kStopCheckStride - 1)) == 0) CAPE_RETURN_IF_STOPPED_BLOCK(stop);
    Use(row);
  }
  return Status::OK();
}
""",
    # -- lock-order: cycle -------------------------------------------------
    "src/core/st_lock_cycle.cc": """\
class Pair {
 public:
  void One() {
    MutexLock l(mu_a);
    TakeB();
  }
  void TakeB() { MutexLock l(mu_b); }
  void Two() {
    MutexLock l(mu_b);
    TakeA();  // seeded: closes the mu_a -> mu_b -> mu_a cycle
  }
  void TakeA() { MutexLock l(mu_a); }

 private:
  Mutex mu_a;
  Mutex mu_b;
};
""",
    # -- lock-order: blocking calls under a lock ---------------------------
    "src/core/st_lock_block.cc": """\
void FlushUnderLock(State* s) {
  MutexLock l(s->mu);
  fwrite(s->buf, 1, s->n, s->file);  // seeded: IO under lock
}

void WaitForWorkers(State* s) {
  MutexLock l(s->mu);
  s->pool->ParallelFor(s->n, s->opts, s->body);  // seeded: pool wait
}

void WaitForeign(Rep* r) {
  MutexLock l(r->mu);
  r->cv_.Wait(&r->other_mu);  // seeded: foreign-mutex wait
}

void WaitOwn(Rep* r) {
  MutexLock l(r->mu);
  r->cv_.Wait(&r->mu);
}

void KickWorker(State* s) {
  MutexLock l(s->mu);
  s->pool->Submit([s] { WriteSideFile(s); });
}

Status WriteSideFile(State* s) {
  fwrite(s->buf, 1, s->n, s->file);
  return Status::OK();
}

class Pinned {
 public:
  void HelperLocked() CAPE_REQUIRES(mu_) {
    fwrite(nullptr, 1, 1, nullptr);  // seeded: IO while mu_ held
  }

 private:
  Mutex mu_;
};
""",
    # -- residency-dispatch ------------------------------------------------
    "src/relational/st_dispatch.cc": """\
Result<TablePtr> SortTable(const Table& t) {  // seeded: ignores residency
  return SortRows(t);
}

Result<TablePtr> Cube(const Table& t) {  // seeded: residency-blind helper
  return CubeRows(t);
}

Status CubeRows(const Table& t) {
  return SortRows(t).status();
}

Result<TablePtr> Project(const Table& t) {
  if (!t.rows_resident()) return Status::NotImplemented("paged project");
  return ProjectRows(t);
}

Result<TablePtr> FilterEquals(const Table& t) {
  return ScanChunks(t, [&](const PageView& view) { return Select(view); });
}

Result<TablePtr> GroupByAggregate(const Table& t) {
  return GroupRows(t);
}

Status GroupRows(const Table& t) {
  return ScanBlocks(t, [&](const PageView& view) { return Fold(view); });
}

// A function template: the delegation above only resolves if templates
// parse as functions.
template <typename Fn>
Status ScanBlocks(const Table& t, Fn fn) {
  return ScanChunks(t, fn);
}
""",
    # -- unordered-iteration ----------------------------------------------
    "src/explain/st_unordered.cc": """\
void EmitCounts(std::vector<std::string>* out) {
  std::unordered_map<std::string, int> counts;
  for (const auto& [k, v] : counts) {  // seeded: hash order reaches output
    out->push_back(k);
  }
}

void EmitSorted(std::vector<std::string>* out) {
  std::unordered_map<std::string, int> counts;
  std::vector<std::string> keys;
  for (const auto& [k, v] : counts) {
    keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  for (const std::string& k : keys) out->push_back(k);
}

int CountSeen() {
  std::unordered_set<int> seen;
  int total = 0;
  for (int v : seen) {  // analyzer:allow(unordered-iteration) sum is order-free
    total += v;
  }
  return total;
}
""",
    # The local `seen` below is a vector; the unordered `seen` in
    # st_unordered.cc must not taint it across files.
    "src/fd/st_shadow.cc": """\
int SumLocal() {
  std::vector<int> seen(8, 1);
  int total = 0;
  for (int v : seen) {
    total += v;
  }
  return total;
}
""",
    # Unordered members declared in headers are visible to every file.
    "src/core/st_index.h": """\
class IndexHolder {
 public:
  std::unordered_map<std::string, int> index_;
};
""",
    "src/core/st_index.cc": """\
std::string DumpIndex(const IndexHolder& h) {
  std::string out;
  for (const auto& [k, v] : h.index_) {  // seeded: member via header
    out += k;
  }
  return out;
}
""",
}

# (file, unique line substring, check) — resolved to line numbers below.
EXPECTED = [
    ("src/pattern/st_cancel.cc", "// seeded: unchecked", "cancellation"),
    ("src/pattern/st_cancel.cc", "// seeded: unchecked range-for", "cancellation"),
    ("src/core/st_lock_cycle.cc", "// seeded: closes the", "lock-order"),
    ("src/core/st_lock_block.cc", "// seeded: IO under lock", "lock-order"),
    ("src/core/st_lock_block.cc", "// seeded: pool wait", "lock-order"),
    ("src/core/st_lock_block.cc", "// seeded: foreign-mutex wait", "lock-order"),
    ("src/core/st_lock_block.cc", "// seeded: IO while mu_ held", "lock-order"),
    ("src/relational/st_dispatch.cc", "// seeded: ignores residency",
     "residency-dispatch"),
    ("src/relational/st_dispatch.cc", "// seeded: residency-blind helper",
     "residency-dispatch"),
    ("src/explain/st_unordered.cc", "// seeded: hash order reaches output",
     "unordered-iteration"),
    ("src/core/st_index.cc", "// seeded: member via header",
     "unordered-iteration"),
]


def _line_of(rel, needle):
    for i, line in enumerate(FIXTURES[rel].split("\n")):
        if needle in line:
            return i + 1
    raise AssertionError(f"self-test fixture {rel} lost its marker {needle!r}")


def self_test():
    asts = [cxxast.FileAst("<selftest>/" + rel, rel, text)
            for rel, text in sorted(FIXTURES.items())]
    findings = checks.run_checks(asts)
    got = {(f.path, f.line, f.check) for f in findings}
    want = {(rel, _line_of(rel, needle), check)
            for rel, needle, check in EXPECTED}

    ok = True
    for key in sorted(want - got):
        ok = False
        print(f"self-test: MISSED expected finding {key[0]}:{key[1]} [{key[2]}]")
    for key in sorted(got - want):
        ok = False
        f = next(x for x in findings if (x.path, x.line, x.check) == key)
        print(f"self-test: UNEXPECTED finding {f}")
    if not ok:
        print(f"analyzer --self-test: FAILED "
              f"({len(want)} expected, {len(got)} produced)")
        return 1
    print(f"analyzer --self-test: OK ({len(FIXTURES)} fixtures, "
          f"{len(want)} seeded violations caught, clean twins quiet)")
    return 0

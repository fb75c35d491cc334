"""Structural C++ AST for the CAPE invariant analyzer.

The analyzer needs a real syntactic model of each translation unit —
functions with their bodies, the loop nests inside them, every call
expression, and the exact region over which each RAII lock is held. A full
Clang AST would be the luxurious way to get that, but this repo must analyze
itself on boxes that carry only gcc (the CI image installs clang for the
CAPE_ANALYZE job, the dev container does not), so the default frontend is a
built-in structural parser over the comment/string-stripped text
(tools/srcscan.py — the same stripping the lint shares). It is not a full
C++ parser; it is a *recognizer* for the constructs the checks reason
about, built on balanced-delimiter scanning rather than line regexes:

  * function definitions: header, qualifier text (where CAPE_REQUIRES /
    CAPE_EXCLUDES annotations live), and the exact body span;
  * loops (`for` / range-`for` / `while` / `do`), each with header text and
    body span, nesting derivable from span containment;
  * call expressions with callee name, object-expression prefix, and
    argument text — the edges of the call graph the checks walk;
  * lock scopes: each `MutexLock l(mu);` declaration mapped to the region
    from the declaration to the end of its enclosing block, plus whole-body
    scopes implied by CAPE_REQUIRES(mu) on the function;
  * declarations of unordered containers (std::unordered_map/set and
    one-level `using` aliases of them), tree-wide, for the determinism
    check.

Spans are offsets into the stripped text, whose newlines match the original
file, so every reported position converts to a 1-based line number with
srcscan.line_of_offset.

Known, deliberate limits (documented in DESIGN.md §17): preprocessor
conditionals are not evaluated (both arms are parsed), templates are parsed
textually, and overloads sharing a base name merge into one call-graph node
(properties union — conservative for "does this call chain check the stop
token", which is the direction the checks care about).
"""

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import srcscan  # noqa: E402

KEYWORDS = {
    "if", "for", "while", "switch", "return", "catch", "sizeof", "alignof",
    "decltype", "new", "delete", "do", "else", "case", "default", "goto",
    "throw", "static_assert", "alignas", "co_await", "co_return", "co_yield",
}

TYPE_INTRO = {"class", "struct", "enum", "union", "namespace", "using",
              "typedef", "template", "concept", "requires"}

IDENT_RE = re.compile(r"[A-Za-z_]\w*")


class Loop:
    __slots__ = ("kind", "start", "header_start", "header_end", "body_start",
                 "body_end", "header_text")

    def __init__(self, kind, start, header_start, header_end, body_start, body_end,
                 header_text):
        self.kind = kind  # 'for' | 'range-for' | 'while' | 'do'
        self.start = start
        self.header_start = header_start
        self.header_end = header_end
        self.body_start = body_start
        self.body_end = body_end
        self.header_text = header_text

    def contains(self, offset):
        return self.body_start <= offset < self.body_end

    def span_contains(self, other):
        return self.body_start <= other.body_start and other.body_end <= self.body_end


class Call:
    __slots__ = ("name", "expr", "args_text", "start")

    def __init__(self, name, expr, args_text, start):
        self.name = name        # callee base identifier, e.g. "Submit"
        self.expr = expr        # full prefix, e.g. "pool_->Submit"
        self.args_text = args_text
        self.start = start


class LockScope:
    __slots__ = ("mutex_expr", "qualified", "start", "end", "decl_line_offset")

    def __init__(self, mutex_expr, qualified, start, end, decl_line_offset):
        self.mutex_expr = mutex_expr    # normalized, e.g. "mu_" or "state.mu"
        self.qualified = qualified      # "Class::mu_" (or "::mu_" at file scope)
        self.start = start              # first offset at which the lock is held
        self.end = end                  # end of the enclosing block
        self.decl_line_offset = decl_line_offset

    def holds(self, offset):
        return self.start <= offset < self.end


class Function:
    __slots__ = ("name", "base_name", "cls", "params_text", "quals_text",
                 "header_start", "body_start", "body_end", "loops", "calls",
                 "lock_scopes", "lambda_spans", "file")

    def __init__(self, name, cls, params_text, quals_text, header_start,
                 body_start, body_end):
        self.name = name                      # as written, may contain ::
        self.base_name = name.rsplit("::", 1)[-1]
        self.cls = cls                        # owning class name or ""
        self.params_text = params_text
        self.quals_text = quals_text
        self.header_start = header_start
        self.body_start = body_start
        self.body_end = body_end
        self.loops = []
        self.calls = []
        self.lock_scopes = []
        self.lambda_spans = []                # (body_start, body_end) pairs
        self.file = None                      # set by FileAst

    def held_locks_at(self, offset):
        return [s for s in self.lock_scopes if s.holds(offset)]

    def in_lambda(self, offset):
        """True when `offset` sits inside a lambda body. Code there runs when
        the closure is *invoked*, not where it is written — lock scopes and
        IO/acquire propagation must not attribute it to the lexical site."""
        return any(start <= offset < end for start, end in self.lambda_spans)


class FileAst:
    """Parsed model of one source file."""

    def __init__(self, path, rel, text):
        self.path = path
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        stripped = srcscan.strip_comments_and_strings(text)
        self.stripped = _mask_preprocessor(stripped)
        self.classes = []          # (name, body_start, body_end)
        self.functions = []
        self.unordered_vars = {}   # var name -> line
        self.unordered_aliases = set()
        self._parse()

    def line_at(self, offset):
        return srcscan.line_of_offset(self.stripped, offset)

    # ------------------------------------------------------------------
    def _parse(self):
        self._find_classes()
        self._find_functions()
        for fn in self.functions:
            fn.file = self
            self._find_loops(fn)
            self._find_calls(fn)
            self._find_lock_scopes(fn)
            self._find_lambda_spans(fn)
        self._find_unordered_decls()

    # ------------------------------------------------------------------
    CLASS_RE = re.compile(r"\b(class|struct)\s+")

    def _find_classes(self):
        s = self.stripped
        for m in self.CLASS_RE.finditer(s):
            i = m.end()
            # Skip attribute macros with arguments (CAPE_CAPABILITY(...)) and
            # find the class name: the last identifier before ':' / '{' / ';'.
            name = None
            while i < len(s):
                c = s[i]
                if c in " \t\n":
                    i += 1
                elif c == "(":
                    i = srcscan.skip_balanced(s, i, "(", ")")
                elif c in "{;:<," or c == ")":
                    break
                else:
                    w = IDENT_RE.match(s, i)
                    if not w:
                        break
                    name = w.group(0)
                    i = w.end()
            if name is None:
                continue
            # Advance over a base-clause to the opening brace, if any.
            j = i
            while j < len(s) and s[j] not in "{;":
                if s[j] == "(":
                    j = srcscan.skip_balanced(s, j, "(", ")")
                else:
                    j += 1
            if j < len(s) and s[j] == "{":
                self.classes.append((name, j, srcscan.skip_balanced(s, j, "{", "}")))

    def innermost_class(self, offset):
        best = ""
        best_len = None
        for name, start, end in self.classes:
            if start <= offset < end and (best_len is None or end - start < best_len):
                best, best_len = name, end - start
        return best

    # ------------------------------------------------------------------
    def _find_functions(self):
        s = self.stripped
        n = len(s)
        i = 0
        while i < n:
            p = s.find("(", i)
            if p == -1:
                break
            i = p + 1
            # Identifier (possibly qualified) immediately before '('.
            j = p
            while j > 0 and s[j - 1] in " \t\n":
                j -= 1
            k = j
            while k > 0 and (s[k - 1].isalnum() or s[k - 1] in "_:~"):
                k -= 1
            ident = s[k:j]
            if not ident or ident.rsplit("::", 1)[-1] in KEYWORDS:
                continue
            if not IDENT_RE.match(ident.rsplit("::", 1)[-1] or " "):
                continue
            if k > 0 and (s[k - 1] == "." or s[k - 2:k] == "->"):
                continue  # member call, not a definition
            # Statement must not introduce a type/namespace (handles
            # `class CAPE_CAPABILITY("mutex") Mutex {`).
            if self._statement_keyword(k) in TYPE_INTRO:
                continue
            close = srcscan.skip_balanced(s, p, "(", ")")
            body = self._body_after_params(close)
            if body is None:
                continue
            body_start, quals = body
            body_end = srcscan.skip_balanced(s, body_start, "{", "}")
            cls = (ident.rsplit("::", 1)[0] if "::" in ident
                   else self.innermost_class(k))
            fn = Function(ident, cls, s[p + 1:close - 1], quals, k,
                          body_start + 1, body_end - 1)
            self.functions.append(fn)
            i = body_start + 1  # nested constructs are parsed per-function

    def _statement_keyword(self, offset):
        s = self.stripped
        j = offset
        while j > 0 and s[j - 1] not in ";{}":
            j -= 1
        m = IDENT_RE.search(s, j, offset)
        # A template's own keyword is the one after its parameter list, so
        # function templates parse as functions and class templates stay
        # types.
        while m and m.group(0) == "template":
            lt = s.find("<", m.end(), offset)
            if lt == -1:
                break
            m = IDENT_RE.search(s, srcscan.skip_balanced(s, lt, "<", ">"), offset)
        return m.group(0) if m else ""

    def _body_after_params(self, i):
        """From just past ')', returns (offset of '{', qualifier text) for a
        definition, or None for declarations/expressions."""
        s = self.stripped
        n = len(s)
        quals_start = i
        while i < n:
            c = s[i]
            if c in " \t\n":
                i += 1
            elif c == "{":
                return i, s[quals_start:i]
            elif c in ";=":
                return None
            elif c == ":" and s[i:i + 2] != "::":
                # Constructor initializer list: consume `name(args)` /
                # `name{args}` items up to the body brace.
                i += 1
                while i < n and s[i] != "{":
                    if s[i] == "(":
                        i = srcscan.skip_balanced(s, i, "(", ")")
                    elif s[i] == ";":
                        return None
                    else:
                        i += 1
                    # A brace directly after an identifier inside the list is
                    # a brace-init; one after ',' or at item end is the body.
                    if i < n and s[i] == "{" and _prev_nonspace(s, i) not in ",:)":
                        i = srcscan.skip_balanced(s, i, "{", "}")
                if i < n:
                    return i, s[quals_start:i]
                return None
            elif c == "-" and s[i:i + 2] == "->":
                i += 2  # trailing return type: skip tokens until '{' or ';'
                while i < n and s[i] not in "{;=":
                    if s[i] == "<":
                        i = srcscan.skip_balanced(s, i, "<", ">")
                    else:
                        i += 1
            elif IDENT_RE.match(s, i):
                w = IDENT_RE.match(s, i)
                if w.group(0) in TYPE_INTRO:
                    return None
                i = w.end()
                while i < n and s[i] in " \t\n":
                    i += 1
                if i < n and s[i] == "(":
                    i = srcscan.skip_balanced(s, i, "(", ")")
            elif c in "&*,)":
                i += 1
            else:
                return None
        return None

    # ------------------------------------------------------------------
    LOOP_RE = re.compile(r"\b(for|while|do)\b")

    def _find_loops(self, fn):
        s = self.stripped
        for m in self.LOOP_RE.finditer(s, fn.body_start, fn.body_end):
            kw = m.group(1)
            if kw == "do":
                i = m.end()
                while i < len(s) and s[i] in " \t\n":
                    i += 1
                if i < len(s) and s[i] == "{":
                    body_end = srcscan.skip_balanced(s, i, "{", "}")
                    # Attach the trailing while-condition as the header.
                    t = s.find("(", body_end)
                    header = s[t + 1:srcscan.skip_balanced(s, t, "(", ")") - 1] \
                        if t != -1 else ""
                    fn.loops.append(Loop("do", m.start(), i, i, i + 1,
                                         body_end - 1, header))
                continue
            p = s.find("(", m.end())
            if p == -1 or s[m.end():p].strip():
                continue
            close = srcscan.skip_balanced(s, p, "(", ")")
            header = s[p + 1:close - 1]
            if kw == "while" and self._is_do_tail(m.start(), close):
                continue
            i = close
            while i < len(s) and s[i] in " \t\n":
                i += 1
            if i < len(s) and s[i] == "{":
                body_start, body_end = i + 1, srcscan.skip_balanced(s, i, "{", "}") - 1
            else:
                body_start, body_end = i, self._statement_end(i, fn.body_end)
            kind = kw
            if kw == "for" and _range_for_colon(header):
                kind = "range-for"
            fn.loops.append(Loop(kind, m.start(), p + 1, close - 1, body_start,
                                 body_end, header))

    def _is_do_tail(self, while_start, close):
        s = self.stripped
        prev = _prev_nonspace_idx(s, while_start)
        if prev is None or s[prev] != "}":
            return False
        i = close
        while i < len(s) and s[i] in " \t\n":
            i += 1
        return i < len(s) and s[i] == ";"

    def _statement_end(self, i, limit):
        s = self.stripped
        while i < limit:
            c = s[i]
            if c == ";":
                return i + 1
            if c == "(":
                i = srcscan.skip_balanced(s, i, "(", ")")
            elif c == "{":
                i = srcscan.skip_balanced(s, i, "{", "}")
            else:
                i += 1
        return limit

    # ------------------------------------------------------------------
    CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*\(")

    def _find_calls(self, fn):
        s = self.stripped
        for m in self.CALL_RE.finditer(s, fn.body_start, fn.body_end):
            name = m.group(1)
            if name in KEYWORDS or name in TYPE_INTRO:
                continue
            k = m.start()
            while k > fn.body_start:
                c = s[k - 1]
                if c.isalnum() or c in "_.":
                    k -= 1
                elif c == ":" and s[k - 2:k - 1] == ":":
                    k -= 2
                elif c == ">" and s[k - 2:k - 1] == "-":
                    k -= 2
                else:
                    break
            expr = s[k:m.start() + len(name)].strip()
            p = m.end() - 1
            close = srcscan.skip_balanced(s, p, "(", ")")
            fn.calls.append(Call(name, expr, s[p + 1:close - 1], m.start()))

    # ------------------------------------------------------------------
    def _find_lambda_spans(self, fn):
        s = self.stripped
        i = fn.body_start
        while i < fn.body_end:
            b = s.find("[", i)
            if b == -1 or b >= fn.body_end:
                break
            prev = _prev_nonspace(s, b)
            if prev and (prev.isalnum() or prev in "_])"):
                i = b + 1  # subscript, not a capture list
                continue
            close = srcscan.skip_balanced(s, b, "[", "]")
            j = _skip_space(s, close)
            if s[j:j + 1] == "(":
                j = _skip_space(s, srcscan.skip_balanced(s, j, "(", ")"))
            while True:
                w = IDENT_RE.match(s, j)
                if w and w.group(0) in ("mutable", "noexcept", "constexpr"):
                    j = _skip_space(s, w.end())
                    continue
                if s[j:j + 2] == "->":
                    j += 2
                    while j < fn.body_end and s[j] not in "{;":
                        if s[j] == "<":
                            j = srcscan.skip_balanced(s, j, "<", ">")
                        else:
                            j += 1
                break
            if s[j:j + 1] == "{":
                end = srcscan.skip_balanced(s, j, "{", "}")
                fn.lambda_spans.append((j + 1, end - 1))
                i = j + 1  # keep scanning inside for nested lambdas
            else:
                i = b + 1

    # ------------------------------------------------------------------
    LOCK_DECL_RE = re.compile(r"\bMutexLock\s+\w+\s*\(([^();]*)\)\s*;")
    REQUIRES_RE = re.compile(r"\bCAPE_REQUIRES\s*\(([^()]*)\)")

    def _find_lock_scopes(self, fn):
        s = self.stripped
        qual = (fn.cls + "::") if fn.cls else "::"
        for m in self.REQUIRES_RE.finditer(fn.quals_text):
            for expr in m.group(1).split(","):
                norm = _normalize_mutex(expr)
                if norm:
                    fn.lock_scopes.append(LockScope(
                        norm, qual + norm, fn.body_start, fn.body_end,
                        fn.header_start))
        brace_pairs = _brace_pairs(s, fn.body_start, fn.body_end)
        for m in self.LOCK_DECL_RE.finditer(s, fn.body_start, fn.body_end):
            norm = _normalize_mutex(m.group(1))
            if not norm:
                continue
            end = fn.body_end
            for open_b, close_b in brace_pairs:
                if open_b < m.start() < close_b and close_b < end:
                    end = close_b
            fn.lock_scopes.append(LockScope(norm, qual + norm, m.end(), end,
                                            m.start()))

    # ------------------------------------------------------------------
    UNORDERED_RE = re.compile(r"\bstd\s*::\s*unordered_(?:map|set)\s*<")
    USING_RE = re.compile(r"\busing\s+(\w+)\s*=\s*std\s*::\s*unordered_(?:map|set)\s*<")

    def _find_unordered_decls(self):
        s = self.stripped
        for m in self.USING_RE.finditer(s):
            self.unordered_aliases.add(m.group(1))
        for m in self.UNORDERED_RE.finditer(s):
            i = srcscan.skip_balanced(s, m.end() - 1, "<", ">")
            w = IDENT_RE.match(s, _skip_space(s, i))
            if w:
                self.unordered_vars[w.group(0)] = self.line_at(m.start())
        for alias in self.unordered_aliases:
            for m in re.finditer(r"\b" + re.escape(alias) + r"\s+(\w+)\s*[;={(]", s):
                self.unordered_vars[m.group(1)] = self.line_at(m.start())


# ----------------------------------------------------------------------------
# Small helpers

def _mask_preprocessor(stripped):
    """Blanks preprocessor directives (with continuations) so `#define F(x)
    do {` cannot be mistaken for a definition. Line structure is kept."""
    out = []
    cont = False
    for line in stripped.split("\n"):
        if cont or line.lstrip().startswith("#"):
            cont = line.rstrip().endswith("\\")
            out.append(" " * len(line))
        else:
            cont = False
            out.append(line)
    return "\n".join(out)


def _prev_nonspace(s, i):
    j = _prev_nonspace_idx(s, i)
    return s[j] if j is not None else ""


def _prev_nonspace_idx(s, i):
    j = i - 1
    while j >= 0 and s[j] in " \t\n":
        j -= 1
    return j if j >= 0 else None


def _skip_space(s, i):
    while i < len(s) and s[i] in " \t\n":
        i += 1
    return i


def _range_for_colon(header):
    depth = 0
    i = 0
    while i < len(header):
        c = header[i]
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth -= 1
        elif c == ":" and depth == 0:
            if header[i + 1:i + 2] == ":" or header[i - 1:i] == ":":
                i += 1
            else:
                return True
        i += 1
    return False


def _normalize_mutex(expr):
    e = expr.strip().lstrip("&").strip()
    if e.startswith("this->"):
        e = e[len("this->"):]
    return e


def _brace_pairs(s, start, end):
    pairs = []
    stack = []
    i = start
    while i < end:
        c = s[i]
        if c == "{":
            stack.append(i)
        elif c == "}":
            if stack:
                pairs.append((stack.pop(), i))
        i += 1
    return pairs


def parse_file(path, root):
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    return FileAst(path, srcscan.relpath(path, root), text)

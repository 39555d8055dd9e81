#!/usr/bin/env python3
"""Project lint gate: textual invariants the compilers cannot check.

Run by ci/check.sh (and as a ctest) over the library sources. Each rule
enforces a project-wide convention that complements a machine-checked
discipline:

  raw-sync          src/common/mutex.h is the ONLY file allowed to name the
                    std synchronization primitives (std::mutex, lock_guard,
                    .lock() ...). Everything else must use the annotated
                    wrappers, because a raw std lock is invisible to clang's
                    -Wthread-safety analysis: code using one would need
                    escape hatches on every guarded access, silently
                    un-proving the lock discipline.
  no-stdout         no std::cout / printf-to-stdout in src/ library code;
                    the library reports through Status and returns values,
                    never by printing (tools, tests, benches may print).
  nodiscard-status  every Status- / Result-returning function declared in a
                    src/ header spells [[nodiscard]] (on the declaration or
                    the line above). The classes are [[nodiscard]] too; the
                    spelling keeps the contract visible at the API and
                    protects against a future plain-struct error type.
  include-guard     header guards are XQTP_<DIR>_<FILE>_H_, derived from
                    the path under src/, so a moved header cannot silently
                    shadow another one's guard.
  assert-side-effect  no mutation inside assert(...): the expression
                    vanishes under NDEBUG, so an increment, assignment or
                    mutating container call there makes Release behave
                    differently from Debug.
  allow-reason      every lint:allow(<rule>) must carry a
                    `reason=<why>` — an unexplained escape hatch is
                    unreviewable.
  fault-site-registered  every fault-injection site named in src/ (via
                    XQTP_FAULT_POINT("...") or a direct fault::Poll("...")
                    in void context) must appear in the sweep registry
                    (kRegistry in tests/fault_injection_test.cc), so a new
                    site cannot ship without the sweep forcing a failure
                    through it; and every registry row must name such a
                    site, so a deleted site cannot leave a dead row behind
                    (the sweep itself only notices where fault points are
                    compiled in).
  compiled-query-immutable  CompiledQuery is immutable after Engine::Compile
                    returns — the plan cache shares one instance across
                    threads without a lock, so that immutability IS the
                    thread-safety proof. Only the build path
                    (src/engine/engine.{h,cc}) may assign its members;
                    everywhere else, assigning to them or const_cast-ing
                    a CompiledQuery is a data race waiting to happen.
  no-throwing-conversion  no std::sto{i,l,ll,ul,ull,f,d,ld} in src/: they
                    throw on malformed or out-of-range input, and the
                    library reports errors through Status and catches
                    nothing, so one such call on outside input (XML text,
                    query text) kills the server. Parse by hand or with
                    std::from_chars and return the error.
  no-raw-thread     src/exec/parallel.cc is the ONLY file allowed to start a
                    thread (std::thread other than ::hardware_concurrency,
                    std::jthread, std::async, pthread_create). Every
                    intra-query thread is then a parked worker that
                    RunMorsels borrows from the reservoir, so no query
                    starts or joins a thread of its own, and the malloc
                    arenas the serving threads touch stay put
                    (EXPERIMENTS.md E15).

A finding prints as `path:line: [rule] message` and the process exits 1.
A line may opt out with a trailing `lint:allow(<rule>, reason=<why>)`
comment — intended to be rare and reviewable. `--self-test` proves each
rule fires on a known-bad fixture and stays quiet on a known-good one
(exit 0 only if all rules behave). Stdlib only; no third-party imports.
"""

import argparse
import os
import re
import sys
import tempfile

# --------------------------------------------------------------------------
# helpers

ALLOW_RE = re.compile(r"lint:allow\(([a-z-]+)(?:,\s*reason=([^)]+))?\)")


def strip_comments_and_strings(lines):
    """Returns lines with //, /* */ comments and string literals blanked
    (lengths preserved so column/line numbers stay meaningful)."""
    out = []
    in_block = False
    for line in lines:
        buf = []
        i, n = 0, len(line)
        in_str = None
        while i < n:
            c = line[i]
            if in_block:
                if line.startswith("*/", i):
                    in_block = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
            elif in_str:
                if c == "\\" and i + 1 < n:
                    buf.append("  ")
                    i += 2
                elif c == in_str:
                    in_str = None
                    buf.append(c)
                    i += 1
                else:
                    buf.append(" ")
                    i += 1
            elif c in "\"'":
                in_str = c
                buf.append(c)
                i += 1
            elif line.startswith("//", i):
                buf.append(" " * (n - i))
                break
            elif line.startswith("/*", i):
                in_block = True
                buf.append("  ")
                i += 2
            else:
                buf.append(c)
                i += 1
        out.append("".join(buf))
    return out


def allowed(raw_line, rule):
    m = ALLOW_RE.search(raw_line)
    return m is not None and m.group(1) == rule


class Finding:
    def __init__(self, path, line, rule, message):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# rule: raw-sync

RAW_SYNC_EXEMPT = os.path.join("src", "common", "mutex.h")

RAW_SYNC_TOKENS = [
    (re.compile(r"\bstd::(?:recursive_|timed_|recursive_timed_)?mutex\b"),
     "std::mutex family"),
    (re.compile(r"\bstd::shared_(?:timed_)?mutex\b"), "std::shared_mutex"),
    (re.compile(r"\bstd::condition_variable(?:_any)?\b"),
     "std::condition_variable"),
    (re.compile(r"\bstd::(?:lock_guard|unique_lock|shared_lock|scoped_lock)\b"),
     "std lock holder"),
    (re.compile(r"\bstd::(?:call_once|once_flag)\b"), "std::call_once"),
    (re.compile(r"\.\s*(?:try_)?lock(?:_shared)?\s*\("), "manual .lock() call"),
    (re.compile(r"\.\s*unlock(?:_shared)?\s*\("), "manual .unlock() call"),
]


def check_raw_sync(relpath, raw, code, findings):
    if relpath.replace(os.sep, "/") == RAW_SYNC_EXEMPT.replace(os.sep, "/"):
        return
    for lineno, line in enumerate(code, 1):
        for pat, what in RAW_SYNC_TOKENS:
            if pat.search(line) and not allowed(raw[lineno - 1], "raw-sync"):
                findings.append(Finding(
                    relpath, lineno, "raw-sync",
                    f"{what} outside src/common/mutex.h — use the annotated "
                    "wrappers (Mutex/SharedMutex/MutexLock/ReaderLock/"
                    "WriterLock/CondVar) so clang -Wthread-safety can see "
                    "the acquisition"))
                break


# --------------------------------------------------------------------------
# rule: no-stdout

NO_STDOUT_PATTERNS = [
    (re.compile(r"\bstd::cout\b"), "std::cout"),
    (re.compile(r"(?<![\w.:>])(?:std::)?printf\s*\("), "printf"),
    (re.compile(r"\bfprintf\s*\(\s*stdout\b"), "fprintf(stdout, ...)"),
    (re.compile(r"(?<![\w.:>])(?:std::)?puts\s*\("), "puts"),
]


def check_no_stdout(relpath, raw, code, findings):
    for lineno, line in enumerate(code, 1):
        for pat, what in NO_STDOUT_PATTERNS:
            if pat.search(line) and not allowed(raw[lineno - 1], "no-stdout"):
                findings.append(Finding(
                    relpath, lineno, "no-stdout",
                    f"{what} in library code — the library communicates via "
                    "Status/Result and return values, never stdout "
                    "(printing belongs in tools/, tests/, bench/)"))
                break


# --------------------------------------------------------------------------
# rule: nodiscard-status

STATUS_DECL_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:static\s+|virtual\s+)?"
    r"(?:Status|Result<.*?>)\s+[A-Za-z_]\w*\s*\(")


def check_nodiscard_status(relpath, raw, code, findings):
    if not relpath.endswith(".h"):
        return
    for lineno, line in enumerate(code, 1):
        if not STATUS_DECL_RE.match(line):
            continue
        if "[[nodiscard]]" in line:
            continue
        prev = code[lineno - 2].strip() if lineno >= 2 else ""
        if prev.endswith("[[nodiscard]]"):
            continue
        if allowed(raw[lineno - 1], "nodiscard-status"):
            continue
        findings.append(Finding(
            relpath, lineno, "nodiscard-status",
            "Status/Result-returning API without [[nodiscard]] — a caller "
            "silently dropping this error must not compile"))


# --------------------------------------------------------------------------
# rule: include-guard

IFNDEF_RE = re.compile(r"^\s*#ifndef\s+(\w+)")
DEFINE_RE = re.compile(r"^\s*#define\s+(\w+)")


def expected_guard(relpath):
    rel = relpath.replace(os.sep, "/")
    assert rel.startswith("src/")
    stem = rel[len("src/"):]
    return "XQTP_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_"


def check_include_guard(relpath, raw, code, findings):
    if not relpath.endswith(".h"):
        return
    want = expected_guard(relpath)
    ifndef = define = None
    ifndef_line = 1
    for lineno, line in enumerate(code, 1):
        m = IFNDEF_RE.match(line)
        if m and ifndef is None:
            ifndef, ifndef_line = m.group(1), lineno
            nxt = DEFINE_RE.match(code[lineno]) if lineno < len(code) else None
            define = nxt.group(1) if nxt else None
            break
    if ifndef is None:
        findings.append(Finding(relpath, 1, "include-guard",
                                f"missing include guard (expected {want})"))
        return
    if ifndef != want or define != want:
        if not allowed(raw[ifndef_line - 1], "include-guard"):
            findings.append(Finding(
                relpath, ifndef_line, "include-guard",
                f"guard is {ifndef!r}/{define!r}, expected {want!r} "
                "(XQTP_ + path under src/, uppercased)"))


# --------------------------------------------------------------------------
# rule: assert-side-effect

ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")

ASSERT_MUTATION_PATTERNS = [
    (re.compile(r"\+\+|--"), "increment/decrement"),
    # A single '=' that is not part of ==, !=, <=, >=, =>, += etc.
    (re.compile(r"(?<![=!<>+\-*/%&|^])=(?![=])"), "assignment"),
    (re.compile(r"\.\s*(?:push_back|pop_back|insert|erase|clear|reset|"
                r"release|assign|swap|emplace\w*|fetch_add|fetch_sub|"
                r"store)\s*\("), "mutating call"),
]


def check_assert_side_effect(relpath, raw, code, findings):
    for lineno, line in enumerate(code, 1):
        m = ASSERT_RE.search(line)
        if m is None:
            continue
        # Collect the assert's argument text, following the expression
        # across lines until its parentheses balance (bounded scan).
        text = line[m.end():]
        depth = 1
        collected = []
        j = lineno - 1
        for _ in range(10):
            for c in text:
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                    if depth == 0:
                        break
                collected.append(c)
            if depth == 0 or j + 1 >= len(code):
                break
            j += 1
            text = code[j]
        arg = "".join(collected)
        for pat, what in ASSERT_MUTATION_PATTERNS:
            if pat.search(arg) and not allowed(raw[lineno - 1],
                                               "assert-side-effect"):
                findings.append(Finding(
                    relpath, lineno, "assert-side-effect",
                    f"{what} inside assert(...) — the expression disappears "
                    "under NDEBUG, so Release would skip the effect"))
                break


# --------------------------------------------------------------------------
# rule: allow-reason (meta: escape hatches must explain themselves)

def check_allow_reason(relpath, raw, code, findings):
    for lineno, line in enumerate(raw, 1):
        m = ALLOW_RE.search(line)
        if m is None:
            continue
        reason = (m.group(2) or "").strip()
        if not reason:
            findings.append(Finding(
                relpath, lineno, "allow-reason",
                f"lint:allow({m.group(1)}) without a reason= — write "
                f"lint:allow({m.group(1)}, reason=<why this line is "
                "exempt>) so the escape hatch is reviewable"))


# --------------------------------------------------------------------------
# rule: fault-site-registered

FAULT_REGISTRY_FILE = os.path.join("tests", "fault_injection_test.cc")

# A fault-point use still visible after comment stripping (comments blank
# the macro name, so documentation mentions don't count)...
FAULT_POINT_CODE_RE = re.compile(
    r"(?:XQTP_FAULT_POINT|(?:::xqtp::)?fault::Poll)\s*\(")
# ... whose site argument is a string literal (read from the raw line,
# because `code` blanks string contents). The macro's own definition
# passes a bare parameter and is skipped by this second match.
FAULT_POINT_RAW_RE = re.compile(
    r'(?:XQTP_FAULT_POINT|(?:::xqtp::)?fault::Poll)\s*\(\s*"([^"]+)"')


# The sweep's registry array, and the site literal opening each of its rows.
FAULT_REGISTRY_ARRAY_RE = re.compile(r"\bkRegistry\s*\[\s*\]\s*=\s*\{")
FAULT_REGISTRY_ROW_RE = re.compile(r'^\s*\{\s*"([^"]+)"')


def load_fault_registry(root):
    """The sites of the sweep test's kRegistry array, mapped to their line
    numbers, or None if the test is missing. Only that array is read: the
    test's other SiteConfigs are not registry rows."""
    path = os.path.join(root, FAULT_REGISTRY_FILE)
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError:
        return None
    rows = {}
    in_registry = False
    for lineno, line in enumerate(lines, 1):
        if not in_registry:
            in_registry = FAULT_REGISTRY_ARRAY_RE.search(line) is not None
        elif line.strip().startswith("};"):
            break
        else:
            m = FAULT_REGISTRY_ROW_RE.match(line)
            if m is not None:
                rows.setdefault(m.group(1), lineno)
    return rows


def make_check_fault_site_registered(registry, named):
    """The per-file direction; also records every site it sees in `named`
    for check_dead_fault_registry_rows."""
    def check(relpath, raw, code, findings):
        for lineno, line in enumerate(code, 1):
            if not FAULT_POINT_CODE_RE.search(line):
                continue
            m = FAULT_POINT_RAW_RE.search(raw[lineno - 1])
            if m is None:
                continue  # macro definition / non-literal site argument
            site = m.group(1)
            named.add(site)
            if registry is not None and site in registry:
                continue
            if allowed(raw[lineno - 1], "fault-site-registered"):
                continue
            where = (f"{FAULT_REGISTRY_FILE} is missing"
                     if registry is None else
                     f"not in {FAULT_REGISTRY_FILE}")
            findings.append(Finding(
                relpath, lineno, "fault-site-registered",
                f'fault site "{site}": {where} — every site must appear '
                "in the sweep test's kRegistry so an injected failure is "
                "forced through it"))
    return check


def check_dead_fault_registry_rows(registry, named, findings):
    """The reverse direction, once all of src/ is read: a kRegistry row
    that no site in src/ names."""
    for site, lineno in sorted((registry or {}).items(), key=lambda r: r[1]):
        if site not in named:
            findings.append(Finding(
                FAULT_REGISTRY_FILE, lineno, "fault-site-registered",
                f'registry row "{site}" names no XQTP_FAULT_POINT or '
                "fault::Poll site in src/ — delete the dead row"))


# --------------------------------------------------------------------------
# rule: compiled-query-immutable

# The build path: CompiledQuery's class definition (default member
# initializers) and Engine::Compile's stamping of the members.
COMPILED_QUERY_EXEMPT = {
    os.path.join("src", "engine", "engine.h"),
    os.path.join("src", "engine", "engine.cc"),
}

# CompiledQuery's private members (src/engine/engine.h). `vars_` is
# omitted: the name is too generic to key a textual rule on, and a vars_
# mutation outside the build path would come with one of these anyway.
# `stages_` holds the pipeline stages that only Engine::Compile keeps; a
# write to it could hand a cached entry stages it was built without.
COMPILED_QUERY_MEMBER_WRITE_RE = re.compile(
    r"\b(?:source_|stages_|optimized_|fingerprint_|"
    r"memory_bytes_)\s*(?:=(?!=)|\.\s*(?:push_back|clear|"
    r"reset|assign|swap|emplace\w*)\s*\()")
CONST_CAST_COMPILED_QUERY_RE = re.compile(
    r"const_cast\s*<[^>]*\bCompiledQuery\b")


def check_compiled_query_immutable(relpath, raw, code, findings):
    rel = relpath.replace(os.sep, "/")
    exempt = {p.replace(os.sep, "/") for p in COMPILED_QUERY_EXEMPT}
    for lineno, line in enumerate(code, 1):
        if rel not in exempt and COMPILED_QUERY_MEMBER_WRITE_RE.search(line):
            if not allowed(raw[lineno - 1], "compiled-query-immutable"):
                findings.append(Finding(
                    relpath, lineno, "compiled-query-immutable",
                    "write to a CompiledQuery member outside the build path "
                    "(src/engine/engine.{h,cc}) — compiled queries are "
                    "shared across threads by the plan cache; their "
                    "immutability after Compile() IS the thread-safety "
                    "argument"))
                continue
        if CONST_CAST_COMPILED_QUERY_RE.search(line):
            if not allowed(raw[lineno - 1], "compiled-query-immutable"):
                findings.append(Finding(
                    relpath, lineno, "compiled-query-immutable",
                    "const_cast of a CompiledQuery — the cache hands out "
                    "shared const plans; casting the const away breaks the "
                    "no-lock sharing contract"))


# --------------------------------------------------------------------------
# rule: no-throwing-conversion

THROWING_CONVERSION_RE = re.compile(
    r"\bstd::sto(?:i|l|ll|ul|ull|f|d|ld)\s*\(")


def check_no_throwing_conversion(relpath, raw, code, findings):
    for lineno, line in enumerate(code, 1):
        m = THROWING_CONVERSION_RE.search(line)
        if m and not allowed(raw[lineno - 1], "no-throwing-conversion"):
            findings.append(Finding(
                relpath, lineno, "no-throwing-conversion",
                f"{m.group(0).rstrip('( ')} throws on malformed or "
                "out-of-range input and nothing in src/ catches it — parse "
                "with std::from_chars (or by hand) and return a Status"))


# --------------------------------------------------------------------------
# rule: no-raw-thread

RAW_THREAD_EXEMPT = os.path.join("src", "exec", "parallel.cc")

RAW_THREAD_TOKENS = [
    (re.compile(r"\bstd::thread\b(?!\s*::\s*hardware_concurrency\b)"),
     "std::thread"),
    (re.compile(r"\bstd::jthread\b"), "std::jthread"),
    (re.compile(r"\bstd::async\b"), "std::async"),
    (re.compile(r"\bpthread_create\b"), "pthread_create"),
]


def check_no_raw_thread(relpath, raw, code, findings):
    if relpath.replace(os.sep, "/") == RAW_THREAD_EXEMPT.replace(os.sep, "/"):
        return
    for lineno, line in enumerate(code, 1):
        for pat, what in RAW_THREAD_TOKENS:
            if pat.search(line) and not allowed(raw[lineno - 1],
                                                "no-raw-thread"):
                findings.append(Finding(
                    relpath, lineno, "no-raw-thread",
                    f"{what} outside src/exec/parallel.cc — run parallel "
                    "work through exec::RunMorsels, whose workers are the "
                    "reservoir's parked threads"))
                break


RULES = [check_raw_sync, check_no_stdout, check_nodiscard_status,
         check_include_guard, check_assert_side_effect, check_allow_reason,
         check_compiled_query_immutable, check_no_throwing_conversion,
         check_no_raw_thread]


# --------------------------------------------------------------------------
# driver

def lint_tree(root):
    findings = []
    registry = load_fault_registry(root)
    named_fault_sites = set()
    rules = RULES + [make_check_fault_site_registered(
        registry, named_fault_sites)]
    src = os.path.join(root, "src")
    for dirpath, _, files in os.walk(src):
        for name in sorted(files):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            relpath = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as f:
                raw = f.read().splitlines()
            code = strip_comments_and_strings(raw)
            for rule in rules:
                rule(relpath, raw, code, findings)
    check_dead_fault_registry_rows(registry, named_fault_sites, findings)
    return findings


# --------------------------------------------------------------------------
# self-test: each rule must fire on a seeded violation and stay quiet on a
# clean snippet. Fixtures are written into a temp tree shaped like src/.

SELF_TEST_FIXTURES = [
    # (relative path, contents, set of rules expected to fire)
    ("src/common/mutex.h",
     "#ifndef XQTP_COMMON_MUTEX_H_\n#define XQTP_COMMON_MUTEX_H_\n"
     "#include <mutex>\nstd::mutex exempt_here;\nvoid F() { m.lock(); }\n"
     "#endif  // XQTP_COMMON_MUTEX_H_\n",
     set()),  # the one exempt file: raw sync allowed
    ("src/bad/raw_sync.cc",
     "#include <mutex>\nstd::mutex mu;\n"
     "void F() { std::lock_guard<std::mutex> l(mu); }\n",
     {"raw-sync"}),
    ("src/bad/manual_lock.cc",
     "void F() { mu.lock(); mu.unlock(); }\n",
     {"raw-sync"}),
    ("src/bad/stdout.cc",
     "#include <iostream>\nvoid F() { std::cout << 1; }\n"
     "void G() { printf(\"x\"); }\n",
     {"no-stdout"}),
    ("src/bad/discard.h",
     "#ifndef XQTP_BAD_DISCARD_H_\n#define XQTP_BAD_DISCARD_H_\n"
     "Status Frob(int x);\n"
     "Result<int> Twiddle();\n"
     "#endif  // XQTP_BAD_DISCARD_H_\n",
     {"nodiscard-status"}),
    ("src/bad/guard.h",
     "#ifndef WRONG_GUARD_H\n#define WRONG_GUARD_H\n#endif\n",
     {"include-guard"}),
    ("src/bad/assert_mutate.cc",
     "#include <cassert>\n"
     "void F(int x) { assert(x++ > 0); }\n"
     "void G(int n) { assert(n = 1); }\n"
     "void H() { assert(v.empty() || (v.clear(), true)); }\n",
     {"assert-side-effect"}),
    ("src/bad/assert_multiline.cc",
     "#include <cassert>\n"
     "void F(int a, int b) {\n"
     "  assert(a == b &&\n"
     "         ++a > 0);\n"
     "}\n",
     {"assert-side-effect"}),
    ("src/bad/allow_bare.cc",
     "void F() { mu.lock(); }  // lint:allow(raw-sync)\n",
     {"allow-reason"}),  # the allow suppresses raw-sync but must explain
    ("src/good/clean.h",
     "#ifndef XQTP_GOOD_CLEAN_H_\n#define XQTP_GOOD_CLEAN_H_\n"
     "// std::mutex in a comment is fine; \"std::cout\" in a string too.\n"
     "const char* kMsg = \"std::cout\";\n"
     "[[nodiscard]] Status Frob(int x);\n"
     "[[nodiscard]]\n"
     "Result<int> Twiddle(int very_long_parameter_name,\n"
     "                    int another_parameter);\n"
     "int snprintf_ok(char* b, int n);  // name contains printf, no call\n"
     "#endif  // XQTP_GOOD_CLEAN_H_\n",
     set()),
    ("src/good/assert_pure.cc",
     "#include <cassert>\n"
     "void F(int x) { assert(x == 1 && \"message ++ = ok in string\"); }\n"
     "void G(int a, int b) { assert(a <= b || a >= 0 || a != b); }\n"
     "void H() { assert(size() > 1); }\n",
     set()),
    ("src/good/allow.cc",
     "void F() { weak.lock(); }"
     "  // lint:allow(raw-sync, reason=non-std weak_ptr-style lock API)\n",
     set()),
    # fault-site-registered: the fixture registry below knows two sites;
    # only one is named in src/. A `rule@line` expectation pins the line.
    ("tests/fault_injection_test.cc",
     "// fixture sweep registry\n"
     "constexpr SiteConfig kRegistry[] = {\n"
     "    {\"exec.registered.site\", exec::PatternAlgo::kNLJoin, 1},\n"
     "    {\"exec.dead.site\", exec::PatternAlgo::kNLJoin, 1},\n"
     "};\n"
     "// Not a registry row: its site need not exist in src/.\n"
     "SiteConfig cfg{\"exec.other.site\", exec::PatternAlgo::kNLJoin, 1};\n",
     {"fault-site-registered@4"}),  # the dead row, and only it
    ("src/bad/fault_unregistered.cc",
     "#include \"common/fault_injection.h\"\n"
     "Status F() {\n"
     "  XQTP_FAULT_POINT(\"exec.unregistered.site\");\n"
     "  return Status::OK();\n"
     "}\n",
     {"fault-site-registered"}),
    ("src/good/fault_registered.cc",
     "#include \"common/fault_injection.h\"\n"
     "// A comment naming XQTP_FAULT_POINT(\"exec.unregistered.site\") is\n"
     "// fine, and one naming XQTP_FAULT_POINT(\"exec.dead.site\") keeps\n"
     "// no registry row alive: only code counts.\n"
     "Status F() {\n"
     "  XQTP_FAULT_POINT(\"exec.registered.site\");\n"
     "  return fault::Poll(\"exec.registered.site\");\n"
     "}\n",
     set()),
    # compiled-query-immutable: writes outside the build path fire; the
    # build path itself and read-only access stay quiet.
    ("src/bad/cache_mutation.cc",
     "#include \"engine/engine.h\"\n"
     "void Patch(engine::CompiledQuery* q) {\n"
     "  q->fingerprint_ = 0;\n"
     "  q->optimized_.reset();\n"
     "}\n"
     "void Cast(const engine::CompiledQuery& q) {\n"
     "  auto* w = const_cast<engine::CompiledQuery*>(&q);\n"
     "}\n",
     {"compiled-query-immutable"}),
    # Stages written onto a built query, one write form per line: the
    # rule must fire on each line, not just somewhere in the file.
    ("src/bad/stages_mutation.cc",
     "#include \"engine/engine.h\"\n"
     "void Graft(engine::CompiledQuery* q, engine::CompiledQuery* o) {\n"
     "  q->stages_ = std::move(o->stages_);\n"
     "  q->stages_.reset();\n"
     "  q->stages_.swap(o->stages_);\n"
     "}\n",
     {"compiled-query-immutable@3", "compiled-query-immutable@4",
      "compiled-query-immutable@5"}),
    ("src/engine/engine.cc",
     "#include \"engine/engine.h\"\n"
     "// The build path: stamping members here is the rule's one hole.\n"
     "void Stamp(engine::CompiledQuery* q) {\n"
     "  q->fingerprint_ = 1;\n"
     "  q->memory_bytes_ = 2;\n"
     "}\n",
     set()),
    # no-throwing-conversion: every std::sto* call fires; from_chars,
    # look-alike names and mentions in comments or strings stay quiet.
    ("src/bad/throwing_conversion.cc",
     "#include <string>\n"
     "int F(const std::string& s) { return std::stoi(s, nullptr, 16); }\n"
     "double G(const std::string& s) { return std::stod(s); }\n"
     "long long H(const std::string& s) { return std::stoll (s); }\n",
     {"no-throwing-conversion"}),
    ("src/good/from_chars.cc",
     "#include <charconv>\n"
     "// Not std::stoi(s): it throws. \"std::stod(\" in a string is fine.\n"
     "const char* kWhy = \"std::stod(x) throws\";\n"
     "bool F(const char* b, const char* e, long long* v) {\n"
     "  return std::from_chars(b, e, *v).ec == std::errc();\n"
     "}\n"
     "void G() { my::stoi(1); std::store(2); restoi(3); }\n",
     set()),
    # no-raw-thread: starting a thread anywhere but the reservoir's file
    # fires; asking for the hardware thread count, this_thread calls and
    # mentions in comments or strings stay quiet.
    ("src/bad/raw_thread.cc",
     "#include <future>\n#include <pthread.h>\n#include <thread>\n"
     "void F() { std::thread t([] {}); t.join(); }\n"
     "void G() { std::jthread t([] {}); }\n"
     "void H() { auto f = std::async([] { return 1; }); }\n"
     "void I(pthread_t* t) { pthread_create(t, nullptr, Run, nullptr); }\n",
     {"no-raw-thread"}),
    ("src/good/thread_count.cc",
     "#include <thread>\n"
     "// Not std::thread t(F): RunMorsels lends a parked worker instead.\n"
     "const char* kWhy = \"std::async(f) would start a thread\";\n"
     "unsigned F() { return std::thread::hardware_concurrency(); }\n"
     "void G() { std::this_thread::yield(); }\n",
     set()),
    ("src/exec/parallel.cc",
     "#include <thread>\n"
     "// The reservoir's own file: the one place a worker thread starts.\n"
     "void Start() { std::thread([] {}).detach(); }\n",
     set()),
    ("src/good/cache_reader.cc",
     "#include \"engine/engine.h\"\n"
     "// Reads and comparisons are fine; fingerprint_ == x is not a write.\n"
     "bool Same(const engine::CompiledQuery& q, uint64_t fingerprint_) {\n"
     "  return q.fingerprint() == fingerprint_;\n"
     "}\n",
     set()),
]


def self_test():
    with tempfile.TemporaryDirectory(prefix="xqtp-lint-") as tmp:
        for relpath, contents, _ in SELF_TEST_FIXTURES:
            path = os.path.join(tmp, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(contents)
        findings = lint_tree(tmp)
        by_file = {}
        by_line = {}
        for f in findings:
            path = f.path.replace(os.sep, "/")
            by_file.setdefault(path, set()).add(f.rule)
            by_line.setdefault(path, set()).add(f"{f.rule}@{f.line}")
        failures = []
        for relpath, _, expect in SELF_TEST_FIXTURES:
            pinned = any("@" in e for e in expect)
            got = (by_line if pinned else by_file).get(relpath, set())
            missing = expect - got
            extra = got - expect
            if missing:
                failures.append(f"{relpath}: rule(s) {sorted(missing)} did "
                                "NOT fire on a seeded violation")
            if extra:
                failures.append(f"{relpath}: unexpected rule(s) "
                                f"{sorted(extra)} fired on clean code")
        if failures:
            print("lint.py --self-test FAILED:")
            for f in failures:
                print(f"  {f}")
            for f in findings:
                print(f"  (finding: {f})")
            return 1
        rules_proven = sorted({r.split("@")[0]
                               for _, _, exp in SELF_TEST_FIXTURES
                               for r in exp})
        print(f"lint.py --self-test OK: rules {rules_proven} each fired on "
              "a seeded violation and stayed quiet on clean fixtures")
        return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify each rule fires on known-bad fixtures")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    findings = lint_tree(args.root)
    for f in findings:
        print(f)
    if findings:
        print(f"lint.py: {len(findings)} finding(s) in "
              f"{len({f.path for f in findings})} file(s)", file=sys.stderr)
        return 1
    print("lint.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
# Copyright 2026 The PLDP Authors.
"""Static no-allocation / no-lock lint for PLDP_HOT functions.

The runtime's per-event path (shard worker loop, matcher steps,
exchange emit, merge release, instrument updates) is annotated with
`PLDP_HOT` (src/common/thread_annotations.h). This lint enforces the
contract the annotation documents: the DIRECT BODY of a hot function must
not

  * allocate (`new`, make_unique/make_shared, malloc/calloc/realloc),
  * build strings (`std::string(...)`, std::to_string, stringstreams),
  * take locks (lock_guard/unique_lock/scoped_lock/shared_lock, MutexLock,
    `.lock()` / `->lock()`), or
  * declare a local array of a class type (`Item burst[128];`,
    `std::array<Item, 128>`): every call constructs and destroys each
    element, whether or not it is used — a 128-element burst of
    Event-sized items once cost 656 ns per empty poll. An element type
    counts as trivial when it is a fundamental type, a `*_t` name, or an
    alias (`using X = ...;` / `typedef`) or enum of the scanned files.

Amortized container growth (push_back on a pre-reserved vector / ring) is
deliberately NOT banned here — tests/alloc_regression_test.cc (exact zero
in steady state) and perfbench's traced `allocs_per_event` (the CI
allocation gate) own that boundary; this lint catches the categorical
mistakes a reviewer can miss in a diff.

On top of the direct-body scan, the lint is one level call-graph aware:
a call from a PLDP_HOT body to a function DEFINED in the scanned files
that is neither PLDP_HOT itself nor on the small allowlist below is
flagged. A hot wrapper can no longer hide an allocation one hop away in
a cold helper — the helper must be marked PLDP_HOT (putting its body
under this lint), allowlisted here with a comment, or excused at the
call site. Calls into code outside the scanned set (std::, libc) stay
out of scope: no compiler, no headers, no way to see their bodies.

Scope and limitations (kept deliberately simple — no compiler needed):

  * The direct body of a PLDP_HOT function is checked, plus the one-level
    callee discipline above; deeper chains are covered inductively (each
    PLDP_HOT callee gets its own body + callee check).
  * Functions declared PLDP_HOT without an inline body are matched to
    their out-of-line definitions by `Qualified::Name(` lookup across the
    scanned files.
  * Callee resolution is by bare name, and only UNQUALIFIED call shapes
    are judged (`Helper(x)`, including implicit-this member calls) —
    `obj.method(...)`, `ptr->method(...)` and `Qualified::Fn(...)` are
    skipped, since bare-name matching across classes (every `size()`,
    `load()`, `value()`) would drown the signal. The unqualified shape is
    exactly the cold-helper-one-hop-away pattern this check exists for.
  * A finding can be suppressed on its line with
    `// hotpath-allow: <reason>` — the reason is mandatory and shows up
    in review.

Exit status: 0 when clean, 1 with findings (one `file:line: message` per
finding), 2 on usage errors.

Usage: lint_hotpath.py <dir-or-file> [<dir-or-file> ...]
"""

import os
import re
import sys

BANNED = [
    (re.compile(r"(?<!::)\bnew\b"), "operator new in hot path"),
    (re.compile(r"\bmake_unique\s*<"), "std::make_unique allocates"),
    (re.compile(r"\bmake_shared\s*<"), "std::make_shared allocates"),
    (re.compile(r"\b(?:malloc|calloc|realloc)\s*\("), "C allocation"),
    (re.compile(r"\bstd::string\s*[({]"), "std::string construction"),
    (re.compile(r"\bstd::to_string\s*\("), "std::to_string allocates"),
    (re.compile(r"\b[oi]?stringstream\b"), "stringstream allocates"),
    (re.compile(r"\b(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"),
     "lock acquisition"),
    (re.compile(r"\bMutexLock\b"), "lock acquisition (MutexLock)"),
    (re.compile(r"(?:\.|->)lock\s*\("), "explicit .lock()"),
]

# A local array declaration: `[qualifiers] Type name[N]` then `;`, `=`,
# `{` or the end of the line. Group 1 is the element type.
ARRAY_DECL_RE = re.compile(
    r"^\s*(?:(?:const|constexpr|static|thread_local|volatile)\s+)*"
    r"((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)\s+[A-Za-z_]\w*\s*\[[^\]]*\]"
    r"\s*(?:[;={]|$)")
STD_ARRAY_RE = re.compile(r"\bstd::array\s*<\s*((?:[A-Za-z_]\w*::)*"
                          r"[A-Za-z_]\w*)\s*,")
# Words that can precede `name[...]` without declaring anything.
NOT_A_TYPE = frozenset({
    "return", "delete", "else", "case", "goto", "throw", "new", "do",
    "co_return", "co_yield", "typename", "using", "sizeof",
})
FUNDAMENTAL_TYPES = frozenset({
    "bool", "char", "signed", "unsigned", "short", "int", "long", "float",
    "double", "wchar_t", "char8_t", "char16_t", "char32_t", "auto",
})
ALIAS_RE = re.compile(r"\busing\s+([A-Za-z_]\w*)\s*=\s*([^;]+);")
TYPEDEF_RE = re.compile(r"\btypedef\s+([^;]+?)\s+([A-Za-z_]\w*)\s*;")
ENUM_RE = re.compile(r"\benum\s+(?:class\s+|struct\s+)?([A-Za-z_]\w*)")

ALLOW_RE = re.compile(r"//\s*hotpath-allow:\s*\S")
HOT_RE = re.compile(r"\bPLDP_HOT\b")
SOURCE_EXTS = (".h", ".hpp", ".cc", ".cpp")

# --- one-level call-graph awareness ---------------------------------------
CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
# Identifier-followed-by-( shapes that are not function calls.
CALL_KEYWORDS = frozenset({
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "decltype", "catch", "assert", "static_assert", "defined", "noexcept",
    "new", "delete", "throw", "case", "do", "else", "operator",
    "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast",
})
# Project functions a hot body may call without a PLDP_HOT marker of their
# own. Keep this SMALL and justified; everything else needs the marker or
# a per-line hotpath-allow.
CALL_ALLOWLIST = frozenset({
    # Terminal paths: once these run the hot path is over (crash/abort or
    # an error return that ends the streaming call) — their cost is
    # irrelevant and they intentionally allocate for diagnostics.
    "ProtocolAssertFail",
    # ThreadRole debug-token bookkeeping: compiled to no-ops in release
    # builds, checked by the thread-safety suite rather than this lint.
    "Assert", "Acquire", "Release",
    # Zero-cost aliases from src/common/atomic.h: in normal builds
    # AtomicFence forwards to std::atomic_thread_fence and RaceCellMove is
    # std::move; only the PLDP_MODEL_CHECK shadow build (where speed is
    # irrelevant) gives them bodies worth the name.
    "AtomicFence", "RaceCellMove",
})
# After a call's close paren a definition shows its body or qualifiers.
DEF_TAIL_RE = re.compile(r"\s*(\{|const\b|noexcept\b|override\b|final\b)")


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving line structure.

    Newlines inside block comments survive so byte offsets keep mapping to
    the original line numbers.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            chunk = text[i:j + 2]
            out.append(re.sub(r"[^\n]", " ", chunk))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            chunk = text[i:j + 1]
            out.append(quote + re.sub(r"[^\n]", " ", chunk[1:-1]) + quote
                       if len(chunk) >= 2 else chunk)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def find_body(text, start):
    """From `start`, returns (body_start, body_end, had_body).

    Scans forward to the first `{` or `;` at paren depth 0; `{` opens a
    body, which is brace-matched. `= 0;` pure declarations and prototypes
    report had_body=False.
    """
    depth = 0
    i = start
    n = len(text)
    while i < n:
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0 and c == ";":
            return i, i, False
        elif depth == 0 and c == "{":
            brace = 1
            j = i + 1
            while j < n and brace > 0:
                if text[j] == "{":
                    brace += 1
                elif text[j] == "}":
                    brace -= 1
                j += 1
            return i + 1, j - 1, True
        i += 1
    return n, n, False


def matching_paren(text, open_pos):
    """Offset of the `)` closing the `(` at open_pos, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def collect_definitions(stripped):
    """Bare names of functions DEFINED (with a body) in this file.

    A definition is `name(params)` followed — after optional cv/noexcept/
    override qualifiers — by `{`. Constructors with init lists and
    `= default` members are missed; that only shrinks the checked set,
    never adds false findings.
    """
    names = set()
    for m in CALL_RE.finditer(stripped):
        name = m.group(1)
        if name in CALL_KEYWORDS:
            continue
        open_pos = stripped.index("(", m.end() - 1)
        close_pos = matching_paren(stripped, open_pos)
        if close_pos < 0:
            continue
        if DEF_TAIL_RE.match(stripped, close_pos + 1):
            names.add(name)
    return names


def is_trivial_name(name, trivial_names):
    base = name.split("::")[-1]
    return (base in FUNDAMENTAL_TYPES or base.endswith("_t")
            or base in trivial_names)


def collect_trivial_names(contents):
    """Enums and aliases of trivial types declared in the scanned files.

    Aliases are resolved to a fixed point, so `using A = B;` counts once B
    does; an alias of anything else (a class, a template) stays non-trivial.
    """
    trivial = set()
    aliases = []
    for _, (_, _, stripped) in contents.items():
        trivial.update(m.group(1) for m in ENUM_RE.finditer(stripped))
        aliases += [(m.group(1), m.group(2)) for m in ALIAS_RE.finditer(stripped)]
        aliases += [(m.group(2), m.group(1))
                    for m in TYPEDEF_RE.finditer(stripped)]
    changed = True
    while changed:
        changed = False
        for name, target in aliases:
            words = target.replace("const", " ").replace("volatile", " ")
            words = words.replace("std::", " ").split()
            if (name not in trivial and words
                    and all(is_trivial_name(w, trivial) for w in words)):
                trivial.add(name)
                changed = True
    return trivial


def class_array_type(line, trivial_names):
    """Element type of a local array of a class type declared on `line`."""
    for regex in (ARRAY_DECL_RE, STD_ARRAY_RE):
        m = regex.search(line)
        if m is None:
            continue
        element = m.group(1)
        if element in NOT_A_TYPE or is_trivial_name(element, trivial_names):
            continue
        return element
    return None


CLASS_HEAD_RE = re.compile(r"\b(?:class|struct)\s+([A-Za-z_]\w*)[^;{()]*\{")


def enclosing_class(text, pos):
    """Name of the innermost class/struct whose body contains `pos`."""
    name = None
    for m in CLASS_HEAD_RE.finditer(text, 0, pos):
        body_start, body_end, _ = find_body(text, m.end() - 1)
        if body_start <= pos <= body_end:
            name = m.group(1)
    return name


def hot_function_name(text, hot_end):
    """Name of the function a PLDP_HOT marker annotates: the identifier
    immediately before the first `(` after the marker."""
    m = re.compile(r"([A-Za-z_]\w*)\s*\(").search(text, hot_end)
    return m.group(1) if m else None


def scan_body(path, raw_lines, stripped, body_start, body_end, func, findings,
              hot_names=frozenset(), defined_names=frozenset(),
              trivial_names=frozenset()):
    body = stripped[body_start:body_end]
    base_line = line_of(stripped, body_start)
    for rel, line in enumerate(body.split("\n")):
        lineno = base_line + rel
        raw = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
        if ALLOW_RE.search(raw):
            continue
        for pattern, message in BANNED:
            if pattern.search(line):
                findings.append(
                    f"{path}:{lineno}: in PLDP_HOT `{func}`: {message}")
        element = class_array_type(line, trivial_names)
        if element is not None:
            findings.append(
                f"{path}:{lineno}: in PLDP_HOT `{func}`: local array of "
                f"class type `{element}` (each call constructs and destroys "
                "every element)")
        # One-level call-graph check: unqualified calls to scanned-set
        # functions that are neither hot nor allowlisted.
        for call in CALL_RE.finditer(line):
            name = call.group(1)
            if (name in CALL_KEYWORDS or name in CALL_ALLOWLIST
                    or name in hot_names or name == func
                    or name not in defined_names):
                continue
            prefix = line[:call.start()].rstrip()
            if prefix.endswith((".", "->", "::", "&")):
                continue  # qualified / member / address-of — out of scope
            findings.append(
                f"{path}:{lineno}: in PLDP_HOT `{func}`: calls non-PLDP_HOT "
                f"`{name}` defined in the scanned set — mark the callee "
                "PLDP_HOT, allowlist it, or hotpath-allow this line")


def collect_files(args):
    files = []
    for arg in args:
        if os.path.isfile(arg):
            files.append(arg)
        elif os.path.isdir(arg):
            for root, _, names in os.walk(arg):
                for name in sorted(names):
                    if name.endswith(SOURCE_EXTS):
                        files.append(os.path.join(root, name))
        else:
            print(f"lint_hotpath: no such path: {arg}", file=sys.stderr)
            sys.exit(2)
    return files


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    files = collect_files(argv[1:])
    contents = {}
    for path in files:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
        contents[path] = (raw, raw.split("\n"), strip_comments_and_strings(raw))

    # Pre-pass for the call-graph check: every function name annotated
    # PLDP_HOT anywhere, and every function name defined in the scanned
    # set (only calls to the latter are judged — external callees are
    # invisible to a build-free lint).
    hot_names = set()
    defined_names = set()
    trivial_names = collect_trivial_names(contents)
    for path, (raw, raw_lines, stripped) in contents.items():
        defined_names |= collect_definitions(stripped)
        for m in HOT_RE.finditer(stripped):
            line_start = stripped.rfind("\n", 0, m.start()) + 1
            if stripped[line_start:m.start()].lstrip().startswith("#"):
                continue
            name = hot_function_name(stripped, m.end())
            if name is not None:
                hot_names.add(name)

    findings = []
    # Hot functions whose marker had no inline body: name -> marker site.
    pending = {}
    hot_total = 0
    for path, (raw, raw_lines, stripped) in contents.items():
        for m in HOT_RE.finditer(stripped):
            # The marker's own `#define PLDP_HOT ...` lines (and any other
            # preprocessor use) are not annotation sites.
            line_start = stripped.rfind("\n", 0, m.start()) + 1
            if stripped[line_start:m.start()].lstrip().startswith("#"):
                continue
            name = hot_function_name(stripped, m.end())
            if name is None:
                findings.append(
                    f"{path}:{line_of(stripped, m.start())}: PLDP_HOT marker "
                    "with no function declaration after it")
                continue
            hot_total += 1
            body_start, body_end, had_body = find_body(stripped, m.end())
            if had_body:
                scan_body(path, raw_lines, stripped, body_start, body_end,
                          name, findings, hot_names, defined_names,
                          trivial_names)
            else:
                owner = enclosing_class(stripped, m.start())
                pending.setdefault((owner, name), []).append(
                    f"{path}:{line_of(stripped, m.start())}")

    # Out-of-line definitions of the pending names.
    for (owner, name), sites in pending.items():
        defined = False
        # A member's definition is `Owner::name(`; a free function's
        # `Namespace::name(` or anything qualified.
        qualifier = re.escape(owner) if owner else r"[A-Za-z_]\w*"
        def_re = re.compile(r"\b" + qualifier + r"(?:<[^<>]*>)?::"
                            + re.escape(name) + r"\s*\(")
        for path, (raw, raw_lines, stripped) in contents.items():
            for m in def_re.finditer(stripped):
                # From the parameter list's `(`, so its `)` balances.
                body_start, body_end, had_body = find_body(stripped,
                                                           m.end() - 1)
                if not had_body:
                    continue
                defined = True
                scan_body(path, raw_lines, stripped, body_start, body_end,
                          name, findings, hot_names, defined_names,
                          trivial_names)
        if not defined:
            # Pure-virtual hot interfaces (a PLDP_HOT `= 0` method) pass as
            # long as at least one override was scanned somewhere; a name
            # with neither inline body nor definition in the scanned set is
            # reported so a typo'd marker cannot silently check nothing.
            override_re = re.compile(r"\b" + re.escape(name) + r"\s*\(")
            covered = any(
                HOT_RE.search(stripped[max(0, m.start() - 120):m.start()])
                for _, (_, _, stripped) in contents.items()
                for m in override_re.finditer(stripped))
            if not covered:
                for site in sites:
                    findings.append(
                        f"{site}: PLDP_HOT `{name}` has no body in the "
                        "scanned files (definition outside the lint scope?)")

    if findings:
        for f in findings:
            print(f)
        print(f"lint_hotpath: {len(findings)} finding(s) across "
              f"{hot_total} hot function site(s)", file=sys.stderr)
        return 1
    print(f"lint_hotpath: OK ({hot_total} PLDP_HOT site(s), "
          f"{len(files)} file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

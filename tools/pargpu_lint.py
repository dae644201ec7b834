#!/usr/bin/env python3
"""pargpu custom static checker.

Enforces project-specific rules over src/ that neither the compiler nor
clang-tidy covers out of the box:

  rand         no rand()/srand()/std::rand — simulations must use the
               deterministic pargpu RNG (common/rng.hh)
  raw-new      no raw new/delete — ownership goes through containers or
               smart pointers ("= delete" declarations are fine)
  float-eq     no ==/!= against floating-point literals — quantize or
               compare with an explicit tolerance
  include-cc   no #include of a .cc file
  cout         no std::cout outside src/harness (libraries report through
               common/logging.hh; stdout belongs to the CLI layer)
  header-self  every header must compile on its own (include-what-you-see
               spot build with -fsyntax-only)
  file-doc     every public header under src/ must open with an @file
               doc comment (Doxygen's per-file brief)
  metrics-doc  every stat name registered in code (a dotted "a.b.c"
               string literal passed to .inc()/.set()/.observe()) must be
               documented in docs/METRICS.md
  intrinsics   no x86 SIMD intrinsics (_mm_* / _mm256_*) outside
               src/simd/ — the kernel layer owns all vector code, and
               everything above it must stay portable scalar C++
  policy-doc   every FilterPolicy registered in the factory table
               (src/texture/filter_policy.cc) must have its name
               documented in docs/FILTERING.md
  session-doc  every facade header under include/ must declare its
               relation to Session with a "Session-status:" line in
               its opening doc comment (docs/API.md explains the terms)

One rule runs over examples/ and bench/ instead of src/:

  internal-include  those trees are API consumers: they may include only
               the public facade ("pargpu/..."; bench_util.hh within
               bench/) — never a src-internal header like "sim/..."

Public facade headers under include/ get the header rules (file-doc,
header-self) as well.

Suppressions:
  - inline: "pargpu-lint: allow(<rule>)" in a comment on the offending
    line or the line directly above it
  - file-level: an entry "<rule> <repo-relative-path>" in the allowlist
    file (tools/lint_allowlist.txt), '#' comments allowed

An allowlist entry that no longer suppresses anything is itself an
error, so the list cannot rot (entries must be pruned when the code
they excused is fixed). header-self entries are exempt from the
unused check under --no-spot-builds, where their rule never runs.

Exit status is non-zero when any violation remains, so the CTest entry
and scripts/check.sh can gate on it.
"""

import argparse
import os
import re
import subprocess
import sys

RULES = ("rand", "raw-new", "float-eq", "include-cc", "cout", "header-self",
         "file-doc", "metrics-doc", "internal-include", "intrinsics",
         "policy-doc", "session-doc")

FLOAT_LIT = r"(?:\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)f?"

RE_RAND = re.compile(r"(?:std\s*::\s*)?\b(?:rand|srand)\s*\(")
RE_NEW = re.compile(r"\bnew\b\s*(?:\(|[A-Za-z_:<]|\[)")
RE_DELETE = re.compile(r"\bdelete\b\s*(?:\[\s*\])?\s*[A-Za-z_(*]")
RE_DELETED_FN = re.compile(r"=\s*delete\b")
RE_FLOAT_EQ = re.compile(
    r"[=!]=\s*[-+]?" + FLOAT_LIT + r"|" + FLOAT_LIT + r"\s*[=!]=")
RE_INCLUDE_CC = re.compile(r'#\s*include\s*["<][^">]*\.cc[">]')
RE_COUT = re.compile(r"\bstd\s*::\s*cout\b")
RE_ALLOW = re.compile(r"pargpu-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
RE_STAT_CALL = re.compile(r"\.\s*(?:inc|set|observe)\s*\(")
# Dotted stat-name literals: absolute ("mem.dram.reads") or relative to a
# runtime prefix (".tex_l1.hits", as in prefix + ".tex_l1.hits").
RE_STAT_NAME = re.compile(r'"(\.?[a-z0-9_]+(?:\.[a-z0-9_]+)+)"')
RE_QUOTED_INCLUDE = re.compile(r'#\s*include\s*"([^"]+)"')
# x86 vector intrinsics: _mm_add_ps, _mm256_fmadd_ps, _mm512_...
RE_INTRIN = re.compile(r"\b_mm\d*_[A-Za-z0-9_]+")
# A FilterPolicy registry entry: {FilterPolicyId::Patu, "patu", ...}.
RE_POLICY_ENTRY = re.compile(r'FilterPolicyId::\w+\s*,\s*"([a-z_]+)"')

SOURCE_EXTS = (".cc", ".hh", ".h", ".cpp")


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure so reported line numbers stay valid."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line-comment | block-comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def load_allowlist(path):
    allow = set()  # (rule, repo-relative path)
    if not os.path.exists(path):
        return allow
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2 or parts[0] not in RULES:
                print(f"lint: malformed allowlist entry: {raw.rstrip()}",
                      file=sys.stderr)
                sys.exit(2)
            allow.add((parts[0], parts[1]))
    return allow


def inline_allows(raw_line):
    m = RE_ALLOW.search(raw_line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


def check_file(root, rel, violations, metrics_doc):
    path = os.path.join(root, rel)
    with open(path, encoding="utf-8") as f:
        raw_text = f.read()
    raw_lines = raw_text.splitlines()
    code_lines = strip_comments_and_strings(raw_text).splitlines()

    in_harness = rel.replace(os.sep, "/").startswith("src/harness/")

    if rel.endswith((".hh", ".h")):
        head = "\n".join(raw_lines[:20])
        if "@file" not in head and not inline_allows(head):
            violations.append(
                (rel, 1, "file-doc",
                 "header lacks an @file doc comment in its first 20 lines"))
        # session-doc: facade headers must say where they stand relative
        # to the Session API ("session", "neutral", "umbrella")
        # so consumers reading any pargpu/ header learn which execution
        # surface it belongs to.
        if rel.replace(os.sep, "/").startswith("include/"):
            doc_head = "\n".join(raw_lines[:30])
            if "Session-status:" not in doc_head and \
                    "session-doc" not in inline_allows(doc_head):
                violations.append(
                    (rel, 1, "session-doc",
                     "facade header lacks a \"Session-status:\" line in "
                     "its first 30 lines (see docs/API.md)"))

    # Most rules match against comment/string-stripped code so prose and
    # literals can't trip them; include-cc must see the raw line because
    # the include path *is* a string.
    line_rules = [
        ("rand", RE_RAND, False,
         "use the deterministic RNG in common/rng.hh"),
        ("raw-new", RE_NEW, False, "raw new; use containers or make_unique"),
        ("raw-new", RE_DELETE, False,
         "raw delete; use containers or make_unique"),
        ("float-eq", RE_FLOAT_EQ, False,
         "float literal ==/!=; compare with a tolerance"),
        ("include-cc", RE_INCLUDE_CC, True, "#include of a .cc file"),
    ]
    if not in_harness:
        line_rules.append(
            ("cout", RE_COUT, False, "std::cout outside harness/CLI layers"))
    if not rel.replace(os.sep, "/").startswith("src/simd/"):
        line_rules.append(
            ("intrinsics", RE_INTRIN, False,
             "x86 intrinsic outside src/simd/; use the kernel layer"))

    for lineno, code in enumerate(code_lines, start=1):
        raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
        prev = raw_lines[lineno - 2] if lineno >= 2 else ""
        allowed_here = inline_allows(raw) | inline_allows(prev)
        for rule, regex, use_raw, msg in line_rules:
            if rule in allowed_here:
                continue
            m = regex.search(raw if use_raw else code)
            if not m:
                continue
            if rule == "raw-new" and regex is RE_DELETE and \
                    RE_DELETED_FN.search(code):
                continue
            violations.append((rel, lineno, rule, msg))

        # metrics-doc: a stat registration (".inc(" / ".set(" / ".observe(")
        # with a dotted string literal must have that name documented in
        # docs/METRICS.md. The literal may sit on the call line or, for
        # wrapped calls, on the following line. A leading '.' marks a name
        # relative to a runtime prefix (prefix + ".llc.hits").
        if "metrics-doc" not in allowed_here and \
                RE_STAT_CALL.search(code):
            search = raw
            if not RE_STAT_NAME.search(raw) and lineno < len(raw_lines):
                search += "\n" + raw_lines[lineno]
            for name in RE_STAT_NAME.findall(search):
                bare = name.lstrip(".")
                if metrics_doc is None:
                    violations.append(
                        (rel, lineno, "metrics-doc",
                         f'stat "{bare}" registered but docs/METRICS.md '
                         "does not exist"))
                elif bare not in metrics_doc:
                    violations.append(
                        (rel, lineno, "metrics-doc",
                         f'stat "{bare}" not documented in '
                         "docs/METRICS.md"))


def check_policy_docs(root, violations):
    """policy-doc: every FilterPolicy in the registry table of
    src/texture/filter_policy.cc must appear by name in
    docs/FILTERING.md — adding a policy without documenting it fails
    lint, keeping the comparison testbed docs exhaustive."""
    rel = os.path.join("src", "texture", "filter_policy.cc")
    path = os.path.join(root, rel)
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as f:
        text = f.read()
    doc_path = os.path.join(root, "docs", "FILTERING.md")
    doc = None
    if os.path.exists(doc_path):
        with open(doc_path, encoding="utf-8") as f:
            doc = f.read()
    rel = rel.replace(os.sep, "/")
    for m in RE_POLICY_ENTRY.finditer(text):
        lineno = text.count("\n", 0, m.start()) + 1
        raw_lines = text.splitlines()
        raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
        prev = raw_lines[lineno - 2] if lineno >= 2 else ""
        if "policy-doc" in inline_allows(raw) | inline_allows(prev):
            continue
        name = m.group(1)
        if doc is None:
            violations.append(
                (rel, lineno, "policy-doc",
                 f'policy "{name}" registered but docs/FILTERING.md '
                 "does not exist"))
        elif name not in doc:
            violations.append(
                (rel, lineno, "policy-doc",
                 f'policy "{name}" not documented in docs/FILTERING.md'))


def check_internal_include(root, rel, violations):
    """examples/ and bench/ build against the facade only: every quoted
    include must be a "pargpu/..." header (or bench's own bench_util.hh);
    system headers use angle brackets and pass freely."""
    path = os.path.join(root, rel)
    with open(path, encoding="utf-8") as f:
        raw_lines = f.read().splitlines()
    for lineno, raw in enumerate(raw_lines, start=1):
        prev = raw_lines[lineno - 2] if lineno >= 2 else ""
        allowed_here = inline_allows(raw) | inline_allows(prev)
        if "intrinsics" not in allowed_here and RE_INTRIN.search(raw):
            violations.append(
                (rel, lineno, "intrinsics",
                 "x86 intrinsic outside src/simd/; use the kernel layer"))
        if "internal-include" in allowed_here:
            continue
        m = RE_QUOTED_INCLUDE.search(raw)
        if not m:
            continue
        inc = m.group(1)
        if inc.startswith("pargpu/"):
            continue
        if rel.startswith("bench/") and inc == "bench_util.hh":
            continue
        violations.append(
            (rel, lineno, "internal-include",
             f'"{inc}" is src-internal; include the facade '
             '("pargpu/...") instead'))


def check_header_selfcontained(root, rel, compiler, std, violations):
    include_as = rel.replace(os.sep, "/")
    include_as = include_as.removeprefix("src/").removeprefix("include/")
    snippet = f'#include "{include_as}"\n'
    cmd = [compiler, f"-std={std}", "-fsyntax-only", "-x", "c++",
           "-I", os.path.join(root, "src"),
           "-I", os.path.join(root, "include"), "-"]
    proc = subprocess.run(cmd, input=snippet, capture_output=True,
                          text=True, cwd=root)
    if proc.returncode != 0:
        first = proc.stderr.strip().splitlines()
        detail = first[0] if first else "compile failed"
        violations.append(
            (rel, 1, "header-self", f"not self-contained: {detail}"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)")
    ap.add_argument("--allowlist", default=None,
                    help="allowlist file (default: tools/lint_allowlist.txt)")
    ap.add_argument("--compiler", default=os.environ.get("CXX", "c++"),
                    help="C++ compiler for header spot builds")
    ap.add_argument("--std", default="c++20", help="language standard")
    ap.add_argument("--no-spot-builds", action="store_true",
                    help="skip the header self-containment builds")
    args = ap.parse_args()

    root = os.path.abspath(args.root)
    allowlist_path = args.allowlist or os.path.join(
        root, "tools", "lint_allowlist.txt")
    allow = load_allowlist(allowlist_path)

    def walk_sources(top):
        found = []
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, top)):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    found.append(rel.replace(os.sep, "/"))
        found.sort()
        return found

    sources = walk_sources("src") + walk_sources("include")
    if not sources:
        print("lint: no sources found under src/", file=sys.stderr)
        return 2
    # API consumers: only the internal-include rule applies.
    consumers = walk_sources("examples") + walk_sources("bench")

    metrics_doc = None
    metrics_path = os.path.join(root, "docs", "METRICS.md")
    if os.path.exists(metrics_path):
        with open(metrics_path, encoding="utf-8") as f:
            metrics_doc = f.read()

    violations = []
    for rel in sources:
        check_file(root, rel, violations, metrics_doc)
    for rel in consumers:
        check_internal_include(root, rel, violations)
    check_policy_docs(root, violations)

    if not args.no_spot_builds:
        headers = [s for s in sources if s.endswith((".hh", ".h"))]
        for rel in headers:
            check_header_selfcontained(root, rel, args.compiler, args.std,
                                       violations)

    # File-level allowlist: filter after the fact so entries that no
    # longer suppress anything are detectable (and fatal) instead of
    # silently rotting in the list.
    used = set()
    kept = []
    for rel, lineno, rule, msg in violations:
        if (rule, rel) in allow:
            used.add((rule, rel))
        else:
            kept.append((rel, lineno, rule, msg))
    unused = allow - used
    if args.no_spot_builds:
        # header-self never ran, so its entries cannot prove themselves.
        unused = {e for e in unused if e[0] != "header-self"}

    for rel, lineno, rule, msg in kept:
        print(f"{rel}:{lineno}: [{rule}] {msg}")
    for rule, rel in sorted(unused):
        print(f"lint: unused allowlist entry: {rule} {rel} "
              "(rule no longer fires; prune it)")
    checked = len(sources) + len(consumers)
    if kept or unused:
        print(f"lint: {len(kept)} violation(s), {len(unused)} stale "
              f"allowlist entr(ies) in {checked} files")
        return 1
    print(f"lint: OK ({checked} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

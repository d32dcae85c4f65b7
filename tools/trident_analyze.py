#!/usr/bin/env python3
"""trident-analyze: static analysis for the Trident-SRP simulator.

The reproduction models the paper's hardware as fixed-size structures
behind a cycle loop that never allocates, and it reproduces its figures
bit for bit. The compiler and the test suite cannot see a table that
grows without bound or a loop that visits a hash table in layout order,
so this engine checks them in src/. A small pass pipeline feeds four
rule visitors:

  lex       comment/string-aware stripper (digit-separator correct: the
            apostrophe in 0x4000'0000 is a separator, not a char literal)
            plus annotation extraction from comments
  include   an include-graph over src/ with a module-level projection
            (module = first directory component under src/)
  symbols   per-file scope tree (brace matching), class/struct extents and
            the names of unordered-container-typed symbols

Rules (ids are stable):

  layering        L1  the module DAG declared in tools/layering.json:
                      includes may only point strictly down-level (or
                      along an explicitly allowed same-level edge); the
                      actual module graph must be cycle-free and the
                      manifest must match the modules on disk
  table-bounds    R4  hardware-table classes (*Table, *Cache, *Buffer, ...)
                      declare a capacity bound in their own body or in the
                      FooConfig they are built from
  hot-path-alloc  R7  the zero-alloc hot-path files do not heap-allocate
  unordered-iter  D1  no range-for / iterator loops over
                      std::unordered_map/set unless the loop feeds a sort
                      or carries an `ordered-ok(<reason>)` annotation

Annotation grammar (in comments):

  trident-analyze: ordered-ok(<reason>)        on/above an unordered loop
  trident-analyze: alloc-ok(<reason>)          on a hot-path alloc line
  trident-analyze: not-a-hw-table(<reason>)    attached to a class

Every run analyzes the whole of src/ from scratch, in well under a
second. ctest's analyze_fixture_test runs it on the repository root, so a
finding anywhere in the tree fails tier 1.

Usage:
  tools/trident_analyze.py [--root DIR] [--list-rules]

Exits 0 when clean, 1 on findings, 2 on usage or read errors.
"""

from __future__ import annotations

import argparse
import bisect
import json
import re
import sys
from pathlib import Path

CPP_SUFFIXES = {".cpp", ".h", ".hpp", ".cc"}

#===----------------------------------------------------------------------===#
# Lexing pass
#===----------------------------------------------------------------------===#


def strip_comments_and_strings(text: str) -> str:
    """Replaces comments and string/char literals with spaces, preserving
    line structure. An apostrophe preceded and followed by hex digits
    (0x4000'0000, 200'000) is a digit separator, not the start of a char
    literal; reading it as one would swallow real code up to the next
    apostrophe and expose the tails of trailing comments as code."""
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
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == "'" and i > 0 and text[i - 1] in "0123456789abcdefABCDEF" \
                and nxt in "0123456789abcdefABCDEF":
            # C++14 digit separator inside a numeric literal.
            out.append(" ")
            i += 1
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\n" and quote == "'":
                    break  # unterminated char literal: don't eat lines
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


ANNOTATION = re.compile(r"trident-analyze:\s*([a-z-]+)")


class Annotation:
    __slots__ = ("kind", "line")

    def __init__(self, kind: str, line: int):
        self.kind, self.line = kind, line


#===----------------------------------------------------------------------===#
# Scope / symbol pass
#===----------------------------------------------------------------------===#


class Scope:
    """One brace-delimited region of the stripped text ({ .. })."""
    __slots__ = ("start", "end", "parent", "children")

    def __init__(self, start: int, end: int, parent):
        self.start, self.end, self.parent = start, end, parent
        self.children: list[Scope] = []


def build_scopes(stripped: str) -> Scope:
    root = Scope(0, len(stripped), None)
    cur = root
    for i, c in enumerate(stripped):
        if c == "{":
            child = Scope(i, len(stripped), cur)
            cur.children.append(child)
            cur = child
        elif c == "}" and cur.parent is not None:
            cur.end = i + 1
            cur = cur.parent
    return root


CLASS_HEAD = re.compile(r"^\s*(?:template\s*<[^>]*>\s*)?(class|struct)\s+"
                        r"(?:alignas\s*\([^)]*\)\s*)?(\w+)\b(?!\s*;)")
UNORDERED_DECL = re.compile(r"\bstd\s*::\s*unordered_(?:map|set|multimap|"
                            r"multiset)\s*<")


class ClassInfo:
    __slots__ = ("name", "line", "scope")

    def __init__(self, name, line, scope):
        self.name, self.line, self.scope = name, line, scope


class FileModel:
    """Everything the rules need to know about one translation unit."""

    def __init__(self, path: Path, rel: str):
        self.path, self.rel = path, rel
        text = path.read_text(encoding="utf-8", errors="replace")
        raw_lines = text.splitlines()
        self.stripped = strip_comments_and_strings(text)
        self.lines = self.stripped.splitlines()
        # Offset of each line start in self.stripped, for offset->line.
        self.line_starts = [0]
        for ln in self.stripped.split("\n")[:-1]:
            self.line_starts.append(self.line_starts[-1] + len(ln) + 1)
        self.module = rel.split("/")[1] if rel.startswith("src/") and \
            rel.count("/") >= 2 else None
        # Local includes: (line, target-rel-to-src).
        self.includes: list[tuple[int, str]] = []
        inc = re.compile(r'#\s*include\s*"([^"]+)"')
        for no, raw in enumerate(raw_lines, start=1):
            m = inc.search(raw)
            if m:
                self.includes.append((no, m.group(1)))
        # Annotations, from the raw text (they live in comments).
        self.annotations: list[Annotation] = []
        for no, raw in enumerate(raw_lines, start=1):
            for m in ANNOTATION.finditer(raw):
                self.annotations.append(Annotation(m.group(1), no))
        self.root_scope = build_scopes(self.stripped)
        self.classes = self._parse_classes()
        self.unordered_syms = self._collect_unordered()

    # -- helpers -------------------------------------------------------------

    def line_of(self, offset: int) -> int:
        return bisect.bisect_right(self.line_starts, offset)

    def offset_of_line(self, line: int) -> int:
        return self.line_starts[line - 1]

    def scope_at(self, offset: int) -> Scope:
        cur = self.root_scope
        descended = True
        while descended:
            descended = False
            for ch in cur.children:
                if ch.start <= offset < ch.end:
                    cur = ch
                    descended = True
                    break
        return cur

    def annotated(self, kind: str, line: int, above: int = 2) -> bool:
        """An annotation of `kind` on `line` or up to `above` lines above."""
        return any(a.kind == kind and line - above <= a.line <= line
                   for a in self.annotations)

    # -- passes --------------------------------------------------------------

    def _parse_classes(self) -> list[ClassInfo]:
        out = []
        for no, line in enumerate(self.lines, start=1):
            m = CLASS_HEAD.match(line)
            if not m:
                continue
            # Find the definition's opening brace: first '{' at or after
            # the head, before any ';' that would make this a declaration.
            start = self.offset_of_line(no) + m.start(1)
            brace = self.stripped.find("{", start)
            semi = self.stripped.find(";", start)
            if brace < 0 or (0 <= semi < brace):
                continue
            # Inheritance lists etc. keep the brace within a few lines.
            if self.line_of(brace) - no > 4:
                continue
            scope = self.scope_at(brace + 1)
            if scope.start != brace:
                continue
            out.append(ClassInfo(m.group(2), no, scope))
        return out

    def _collect_unordered(self) -> set:
        """Names of variables/fields declared with an unordered container
        type anywhere in this file."""
        syms = set()
        for m in UNORDERED_DECL.finditer(self.stripped):
            # Walk the template argument list to its closing '>'.
            depth, i = 1, m.end()
            n = len(self.stripped)
            while i < n and depth:
                if self.stripped[i] == "<":
                    depth += 1
                elif self.stripped[i] == ">":
                    depth -= 1
                i += 1
            tail = self.stripped[i:i + 160]
            dm = re.match(r"\s*[&*]*\s*(\w+)\s*(?:;|=|\{|\[|,|\))", tail)
            if dm and dm.group(1) not in ("const",):
                syms.add(dm.group(1))
        return syms


#===----------------------------------------------------------------------===#
# Findings and analysis context
#===----------------------------------------------------------------------===#


class Finding:
    __slots__ = ("rule", "rel", "line", "message")

    def __init__(self, rule: str, rel: str, line: int, message: str):
        self.rule, self.rel, self.line = rule, rel, line
        self.message = message

    def __str__(self):
        return f"{self.rel}:{self.line}: [{self.rule}] {self.message}"


class AnalysisContext:
    def __init__(self, files: dict, layering):
        self.files = files            # rel -> FileModel, every file in src/
        self.layering = layering      # parsed manifest or None

    def imported_unordered_syms(self, fm: FileModel) -> set:
        """fm's own unordered symbols plus those of directly included
        project headers (covers the field-declared-in-header,
        iterated-in-cpp case)."""
        syms = set(fm.unordered_syms)
        for _, target in fm.includes:
            inc = self.files.get("src/" + target)
            if inc is not None:
                syms |= inc.unordered_syms
        return syms


#===----------------------------------------------------------------------===#
# Rule — unordered iteration (D1)
#===----------------------------------------------------------------------===#

FOR_HEAD = re.compile(r"\bfor\s*\(")


def _for_loops(fm: FileModel):
    """Yields (header_line, iterated_expr, header, close_paren) for each
    for-loop in the file; iterated_expr is None for a classic
    init;cond;step loop."""
    for m in FOR_HEAD.finditer(fm.stripped):
        # Find the matching ')' of the for header.
        depth, i = 0, m.end() - 1
        n = len(fm.stripped)
        while i < n:
            if fm.stripped[i] == "(":
                depth += 1
            elif fm.stripped[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        header = fm.stripped[m.end():i]
        if ";" in header:
            yield (fm.line_of(m.start()), None, header, i)
        elif ":" in header:
            expr = header.split(":", 1)[1].strip()
            yield (fm.line_of(m.start()), expr, header, i)


def _loop_body(fm: FileModel, close_paren: int):
    """(start, end) offsets of the loop body following the for(...)
    header: its brace scope, or a single statement up to the next ';'."""
    j = close_paren + 1
    n = len(fm.stripped)
    while j < n and fm.stripped[j] in " \t\n":
        j += 1
    if j < n and fm.stripped[j] == "{":
        sc = fm.scope_at(j + 1)
        if sc.start == j:
            return (j, sc.end)
    semi = fm.stripped.find(";", j)
    return (j, semi + 1 if semi >= 0 else n)


def _trailing_name(expr: str):
    ids = re.findall(r"\w+", expr)
    return ids[-1] if ids else None


def _feeds_sort(fm: FileModel, body_start: int, body_end: int) -> bool:
    """True when the loop fills a container that the enclosing scope
    std::sort()s after the loop — the sanctioned way to iterate an
    unordered container deterministically."""
    body = fm.stripped[body_start:body_end]
    targets = set(re.findall(r"(\w+)\s*\.\s*(?:push_back|emplace_back|"
                             r"insert|emplace)\s*\(", body))
    if not targets:
        return False
    enclosing = fm.scope_at(body_start)
    # Walk up one level if the body scope itself was returned.
    if enclosing.start == body_start and enclosing.parent:
        enclosing = enclosing.parent
    after = fm.stripped[body_end:enclosing.end]
    for m in re.finditer(r"(?:std\s*::\s*)?(?:stable_)?sort\s*\(\s*(\w+)\s*"
                         r"\.\s*begin", after):
        if m.group(1) in targets:
            return True
    return False


def rule_unordered_iter(fm: FileModel, ctx) -> list:
    findings = []
    unordered = ctx.imported_unordered_syms(fm)
    if not unordered:
        return findings
    for line, expr, header, close in _for_loops(fm):
        if expr is None:
            # Iterator-style loop: for (auto It = X.begin(); ...)
            m = re.search(r"=\s*([\w.\->]+)\.(?:c?begin)\s*\(", header)
            if not m:
                continue
            # m.group(1) ends with the container; strip member access.
            name = _trailing_name(m.group(1))
        else:
            name = _trailing_name(expr)
        if name not in unordered:
            continue
        if fm.annotated("ordered-ok", line):
            continue
        body_start, body_end = _loop_body(fm, close)
        if _feeds_sort(fm, body_start, body_end):
            continue
        what = expr if expr is not None else name
        findings.append(Finding(
            "unordered-iter", fm.rel, line,
            f"iteration over unordered container '{what}': the visit order "
            "is hash-layout dependent, so any result-affecting use breaks "
            "bit-reproducibility; sort into a vector first, or annotate "
            "'trident-analyze: ordered-ok(<reason>)' if the fold is "
            "order-insensitive"))
    return findings


#===----------------------------------------------------------------------===#
# Rule — layering (L1)
#===----------------------------------------------------------------------===#


def load_layering(root: Path):
    path = root / "tools" / "layering.json"
    if not path.is_file():
        return None
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        return {"error": f"{path}: invalid JSON: {e}"}
    doc["_path"] = str(path)
    return doc


def _find_cycle(nodes, succ):
    """A list of nodes closing a cycle (first node repeated last), or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}
    stack = []

    def dfs(n):
        color[n] = GRAY
        stack.append(n)
        for s in succ(n):
            if s not in color:
                continue
            if color[s] == GRAY:
                return stack[stack.index(s):] + [s]
            if color[s] == WHITE:
                cyc = dfs(s)
                if cyc:
                    return cyc
        stack.pop()
        color[n] = BLACK
        return None

    for n in sorted(nodes):
        if color[n] == WHITE:
            cyc = dfs(n)
            if cyc:
                return cyc
    return None


def rule_layering(ctx: AnalysisContext) -> list:
    """Project pass over the src/ include graph projected to modules.
    The manifest declares levels (an include may only point strictly
    down-level) plus explicitly allowed same-level edges; the resulting
    declared graph and the observed graph must both be acyclic, and the
    manifest's module set must match the directories on disk."""
    findings = []
    lay = ctx.layering
    src_files = [f for f in ctx.files.values() if f.module]
    if not src_files or lay is None:
        return findings  # fixture roots without a manifest skip L1
    if "error" in lay:
        return [Finding("layering", "tools/layering.json", 1, lay["error"])]
    manifest = lay["_path"]

    level_of: dict[str, int] = {}
    for lvl, mods in enumerate(lay.get("levels", [])):
        for m in mods:
            if m in level_of:
                findings.append(Finding(
                    "layering", "tools/layering.json", 1,
                    f"module '{m}' appears in more than one level"))
            level_of[m] = lvl
    allowed_lateral = {tuple(e) for e in lay.get("intra_level_edges", [])}

    # Manifest <-> disk agreement.
    on_disk = sorted({f.module for f in src_files})
    for m in on_disk:
        if m not in level_of:
            findings.append(Finding(
                "layering", "tools/layering.json", 1,
                f"module 'src/{m}' exists on disk but is missing from "
                f"the layering manifest ({manifest})"))
    for m in level_of:
        if m not in on_disk:
            findings.append(Finding(
                "layering", "tools/layering.json", 1,
                f"manifest module '{m}' has no src/{m} directory"))
    for a, b in allowed_lateral:
        if level_of.get(a) != level_of.get(b):
            findings.append(Finding(
                "layering", "tools/layering.json", 1,
                f"intra_level_edges entry {a}->{b} does not connect two "
                "modules of the same level"))

    # Observed module edges with their contributing include sites.
    edges: dict[tuple, list] = {}
    for fm in src_files:
        for line, target in fm.includes:
            tmod = target.split("/")[0]
            if tmod == fm.module or ("src/" + target) not in ctx.files:
                continue
            edges.setdefault((fm.module, tmod), []).append((fm.rel, line,
                                                            target))
    # Per-edge violation reports.
    for (a, b), sites in sorted(edges.items()):
        if a not in level_of or b not in level_of:
            continue  # already reported as a manifest mismatch
        if level_of[a] > level_of[b] or (a, b) in allowed_lateral:
            continue
        kind = ("same-level edge not in intra_level_edges"
                if level_of[a] == level_of[b] else
                f"up-level include (level {level_of[a]} -> {level_of[b]})")
        for rel, line, target in sites:
            findings.append(Finding(
                "layering", rel, line,
                f"module edge {a} -> {b} violates the layering DAG "
                f"({kind}; manifest: {manifest}): "
                f'#include "{target}"'))

    # Cycle detection on the *declared* graph (levels + lateral edges can
    # only cycle laterally, but check generally) and the observed graph.
    cyc = _find_cycle(set(level_of), lambda n: sorted(
        b for (a, b) in allowed_lateral if a == n))
    if cyc:
        findings.append(Finding(
            "layering", "tools/layering.json", 1,
            "declared intra-level edges form a cycle: " + " -> ".join(cyc)))
    cyc = _find_cycle({m for e in edges for m in e} | set(on_disk),
                      lambda n: sorted(b for (a, b) in edges if a == n))
    if cyc:
        findings.append(Finding(
            "layering", "src", 1,
            "observed include graph has a module cycle: " +
            " -> ".join(cyc)))
    return findings


#===----------------------------------------------------------------------===#
# Rules — hardware-modeling hygiene (R4, R7)
#===----------------------------------------------------------------------===#

TABLE_SUFFIX = re.compile(r"\w*(?:Table|Cache|Buffer|Tlb|Predictor|"
                          r"Profiler|Prefetcher)$")
BOUND_TOKENS = re.compile(
    r"(\w*Entries|SizeBytes|MaxLength|[Cc]apacity|NumStreams|NumBuffers|"
    r"[Dd]epth\b)")
CONFIG_REF = re.compile(r"\b(\w*Config)\b")


def _config_bounded(fm: FileModel, ctx, body: str) -> bool:
    """A table class constructed from a `FooConfig` whose struct declares
    a capacity bound is itself bounded — the bound just lives one
    indirection away (the dominant idiom in this codebase)."""
    refs = set(CONFIG_REF.findall(body))
    if not refs:
        return False
    candidates = [fm] + [ctx.files.get("src/" + t) for _, t in fm.includes]
    for tf in candidates:
        if tf is None:
            continue
        for ci in tf.classes:
            if ci.name in refs and BOUND_TOKENS.search(
                    tf.stripped[ci.scope.start:ci.scope.end]):
                return True
    return False


def rule_table_bounds(fm: FileModel, ctx) -> list:
    """The capacity bound and the not-a-hw-table annotation are resolved
    against the matched class: an annotation on one class does not exempt
    its neighbors, and a bound declared by another class in the file does
    not satisfy this one."""
    findings = []
    if fm.path.suffix not in {".h", ".hpp"}:
        return findings
    for ci in fm.classes:
        if not TABLE_SUFFIX.fullmatch(ci.name):
            continue
        body_last = fm.line_of(ci.scope.end - 1)
        if any(a.kind == "not-a-hw-table" and
               ci.line - 3 <= a.line <= body_last for a in fm.annotations):
            continue
        body = fm.stripped[fm.offset_of_line(ci.line):ci.scope.end]
        if not BOUND_TOKENS.search(body) and not _config_bounded(fm, ctx,
                                                                 body):
            findings.append(Finding(
                "table-bounds", fm.rel, ci.line,
                f"hardware table class '{ci.name}' declares no capacity "
                "bound (NumEntries/SizeBytes/capacity) in its own body; "
                "annotate 'trident-analyze: not-a-hw-table(<reason>)' on "
                "the class if it is not modeling a hardware structure"))
    return findings


HOT_ALLOC_FILES = {
    "src/cpu/SmtCore.cpp",
    "src/mem/MemorySystem.cpp",
    "src/mem/Cache.cpp",
    "src/events/EventBus.h",
}
ALLOC_PATTERNS = [
    (re.compile(r"(?<![\w:])new\b"), "operator new on the hot path"),
    (re.compile(r"\bmake_(unique|shared)\b"),
     "make_unique/make_shared on the hot path"),
    (re.compile(r"\bstd::function\b"),
     "std::function allocates capture storage; use a function pointer or "
     "StubCallback"),
]
PUSH_CALL = re.compile(r"([A-Za-z_]\w*(?:\[[^\]]*\])?(?:(?:\.|->)\w+"
                       r"(?:\[[^\]]*\])?)*)\s*\.\s*"
                       r"(push_back|emplace_back)\s*\(")


def rule_hot_path_alloc(fm: FileModel, ctx) -> list:
    findings = []
    if fm.rel not in HOT_ALLOC_FILES:
        return findings
    for no, line in enumerate(fm.lines, start=1):
        if fm.annotated("alloc-ok", no, above=0):
            continue
        for pat, msg in ALLOC_PATTERNS:
            if pat.search(line):
                findings.append(Finding("hot-path-alloc", fm.rel, no, msg))
        for m in PUSH_CALL.finditer(line):
            base = re.escape(re.sub(r"\[[^\]]*\]", "", m.group(1)))
            if re.search(base + r"\s*\.\s*(reserve|resize)\s*\(",
                         fm.stripped):
                continue
            findings.append(Finding(
                "hot-path-alloc", fm.rel, no,
                f"{m.group(2)} on '{m.group(1)}' which this file never "
                "reserve()s/resize()s — growth allocates mid-cycle; "
                "pre-size it or annotate the line "
                "'trident-analyze: alloc-ok(<reason>)'"))
    return findings


#===----------------------------------------------------------------------===#
# Rule registry and driver
#===----------------------------------------------------------------------===#

# (id, short id, description, rule). A project rule takes the context; a
# file rule takes one file and the context.
PROJECT_RULES = [
    ("layering", "L1", "module include DAG matches tools/layering.json",
     rule_layering),
]
FILE_RULES = [
    ("table-bounds", "R4", "hardware tables declare a capacity bound",
     rule_table_bounds),
    ("hot-path-alloc", "R7", "zero-alloc hot-path files do not allocate",
     rule_hot_path_alloc),
    ("unordered-iter", "D1",
     "no result-affecting iteration over unordered containers",
     rule_unordered_iter),
]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rid, short, desc, _ in PROJECT_RULES + FILE_RULES:
            print(f"{rid:20s} {short:3s} {desc}")
        return 0

    root = (Path(args.root).resolve() if args.root
            else Path(__file__).resolve().parent.parent)
    if not root.is_dir():
        print(f"trident-analyze: no such root: {root}", file=sys.stderr)
        return 2

    files: dict[str, FileModel] = {}
    for p in sorted((root / "src").rglob("*")):
        if p.suffix not in CPP_SUFFIXES or not p.is_file():
            continue
        rel = p.relative_to(root).as_posix()
        try:
            files[rel] = FileModel(p, rel)
        except OSError as e:
            print(f"trident-analyze: cannot read {rel}: {e}",
                  file=sys.stderr)
            return 2
    ctx = AnalysisContext(files, load_layering(root))

    findings: list[Finding] = []
    for _rid, _short, _desc, fn in PROJECT_RULES:
        findings.extend(fn(ctx))
    for fm in files.values():
        for _rid, _short, _desc, fn in FILE_RULES:
            findings.extend(fn(fm, ctx))
    findings.sort(key=lambda f: (f.rel, f.line, f.rule, f.message))

    for f in findings:
        print(f)
    print(f"trident-analyze: {len(files)} files checked, "
          f"{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())

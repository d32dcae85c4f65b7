#!/usr/bin/env python3
"""trident-analyze: semantic static analysis for the Trident-SRP simulator.

Successor to the regex-only trident_lint.py (PR 2). Instead of grepping
lines, the engine runs a small pass pipeline and feeds independent rule
visitors:

  lex       comment/string-aware stripper (digit-separator correct: the
            apostrophe in 0x4000'0000 is a separator, not a char literal)
            plus annotation extraction from comments
  include   an include-graph over src/ with a module-level projection
            (module = first directory component under src/)
  symbols   per-file scope tree (brace matching), class/struct extents and
            fields, container- and float-typed symbol tables

Rule families (ids are stable; SARIF ruleIds match):

  Determinism / reproducibility
    wall-clock         R1  no host time sources in simulator code
    randomness         R2  no unseeded/global RNGs (SplitMix64 only)
    unordered-iter     D1  no range-for / iterator loops over
                           std::unordered_map/set in result-affecting code
                           unless the loop feeds a sort or carries an
                           `ordered-ok(<reason>)` annotation
    float-order        C2  no floating-point `+=` reductions inside a loop
                           over an unordered container (FP addition is not
                           associative; iteration order changes the bits)

  Architecture
    layering           L1  the module DAG declared in tools/layering.json:
                           includes may only point strictly down-level (or
                           along an explicitly allowed same-level edge);
                           the actual module graph must be cycle-free and
                           the manifest must match the modules on disk

  Concurrency
    lock-discipline    C1  fields annotated `guarded-by(Mu)` are only
                           touched inside a scope that locks mutex Mu
                           (lock_guard/unique_lock/scoped_lock/.lock())

  Hardware-modeling hygiene (migrated from trident_lint.py, with two
  precision fixes)
    hot-path           R3  no O(n) erase/scan idioms in `hot-path` files
    table-bounds       R4  hardware-table classes declare a capacity bound
                           — now checked per class body, so one annotated
                           class no longer exempts every class in its file
    no-assert          R5  TRIDENT_CHECK/DCHECK instead of bare assert()
    event-names        R6  every EventKind enumerator has a name-table
                           case — enumerators are now parsed structurally
                           (the old `body.split(",")` broke when a digit
                           separator opened a bogus char literal and
                           swallowed trailing comments)
    hot-path-alloc     R7  zero-alloc files do not heap-allocate

Annotation grammar (in comments; `trident-lint:` is accepted as a legacy
spelling of `trident-analyze:`):

  trident-analyze: ordered-ok(<reason>)        on/above an unordered loop
  trident-analyze: guarded-by(<MutexName>)     on a field declaration
  trident-analyze: alloc-ok(<reason>)          on a hot-path alloc line
  trident-analyze: not-a-hw-table(<reason>)    attached to a class
  trident-analyze: hot-path                    file marker for R3

Outputs: human text (path:line: [rule] message) and SARIF 2.1 (--sarif).
A suppression baseline (--baseline, default tools/analysis_baseline.json)
holds fingerprints of accepted findings; --write-baseline regenerates it.
Every run analyzes the whole tree from scratch (about a second); --diff
BASE restricts *reported* findings to files changed since BASE
(project-wide passes still run on the whole tree, so a layering break
introduced by an unchanged file's changed neighbor is still caught).

Usage:
  tools/trident_analyze.py [--root DIR] [paths...]
      [--rules r1,r2,... | --rules legacy] [--list-rules]
      [--sarif OUT.sarif] [--baseline FILE] [--write-baseline]
      [--diff [BASE]] [-q]

Exits 0 when clean, 1 on findings, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

ENGINE_VERSION = "1.0.0"

CPP_SUFFIXES = {".cpp", ".h", ".hpp", ".cc"}

#===----------------------------------------------------------------------===#
# Lexing pass
#===----------------------------------------------------------------------===#


def strip_comments_and_strings(text: str) -> str:
    """Replaces comments and string/char literals with spaces, preserving
    line structure. Unlike the PR-2 lint stripper, an apostrophe preceded
    and followed by hex digits (0x4000'0000, 200'000) is treated as a
    digit separator, not the start of a char literal — the old behaviour
    swallowed real code up to the next apostrophe, exposing the tails of
    trailing comments as code."""
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


ANNOTATION = re.compile(
    r"trident-(?:lint|analyze):\s*([a-z-]+)(?:\(([^)]*)\))?")


class Annotation:
    __slots__ = ("kind", "arg", "line")

    def __init__(self, kind: str, arg: str, line: int):
        self.kind, self.arg, self.line = kind, arg, line


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
FIELD_DECL = re.compile(
    r"^\s*(?:mutable\s+)?((?:[\w:]+\s*(?:<.*>)?\s*[&*]*\s+)+)"
    r"(\w+)\s*(?:\[[^\]]*\])?\s*(?:=[^;]*|\{[^;]*\})?;")
UNORDERED_DECL = re.compile(r"\bstd\s*::\s*unordered_(?:map|set|multimap|"
                            r"multiset)\s*<")
FLOAT_DECL = re.compile(r"^\s*(?:const\s+|constexpr\s+|static\s+)*"
                        r"(?:double|float)\s+(\w+)\b")


class ClassInfo:
    __slots__ = ("kind", "name", "line", "scope")

    def __init__(self, kind, name, line, scope):
        self.kind, self.name, self.line, self.scope = kind, name, line, scope


class FileModel:
    """Everything the rules need to know about one translation unit."""

    def __init__(self, path: Path, rel: str, root: Path):
        self.path, self.rel = path, rel
        self.text = path.read_text(encoding="utf-8", errors="replace")
        self.stripped = strip_comments_and_strings(self.text)
        self.raw_lines = self.text.splitlines()
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
        for no, raw in enumerate(self.raw_lines, start=1):
            m = inc.search(raw)
            if m:
                self.includes.append((no, m.group(1)))
        # Annotations, from the raw text (they live in comments).
        self.annotations: list[Annotation] = []
        for no, raw in enumerate(self.raw_lines, start=1):
            for m in ANNOTATION.finditer(raw):
                self.annotations.append(
                    Annotation(m.group(1), m.group(2) or "", no))
        self.root_scope = build_scopes(self.stripped)
        self.classes = self._parse_classes()
        self.unordered_syms = self._collect_unordered()
        self.float_syms = self._collect_floats()

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
            scope = None
            node = self.scope_at(brace + 1)
            if node.start == brace:
                scope = node
            if scope is None:
                continue
            out.append(ClassInfo(m.group(1), m.group(2), no, scope))
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

    def _collect_floats(self) -> set:
        syms = set()
        for line in self.lines:
            m = FLOAT_DECL.match(line)
            if m:
                syms.add(m.group(1))
        return syms


#===----------------------------------------------------------------------===#
# Findings
#===----------------------------------------------------------------------===#


class Finding:
    __slots__ = ("rule", "rel", "line", "message", "context")

    def __init__(self, rule: str, rel: str, line: int, message: str,
                 context: str = ""):
        self.rule, self.rel, self.line = rule, rel, line
        self.message, self.context = message, context

    def __str__(self):
        return f"{self.rel}:{self.line}: [{self.rule}] {self.message}"

    def fingerprint(self) -> str:
        """Line-number-insensitive identity for the suppression baseline:
        rule + file + the text of the flagged line + a message prefix."""
        h = hashlib.sha1()
        h.update(self.rule.encode())
        h.update(b"|")
        h.update(self.rel.encode())
        h.update(b"|")
        h.update(self.context.strip().encode())
        h.update(b"|")
        h.update(self.message[:48].encode())
        return h.hexdigest()[:16]


#===----------------------------------------------------------------------===#
# Analysis context
#===----------------------------------------------------------------------===#


class AnalysisContext:
    def __init__(self, root: Path, files: dict, layering, quiet=False):
        self.root = root
        self.files = files            # rel -> FileModel (hw-rule scope)
        self.harness_files = {}       # rel -> FileModel (R1/R2-only scope)
        self.layering = layering      # parsed manifest or None
        self.quiet = quiet

    def sibling(self, fm: FileModel):
        """The header/source counterpart of fm (same directory and stem)."""
        stem = fm.rel.rsplit(".", 1)[0]
        for suffix in (".h", ".hpp", ".cpp", ".cc"):
            rel = stem + suffix
            if rel != fm.rel and rel in self.files:
                return self.files[rel]
        return None

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
# Rules — determinism family
#===----------------------------------------------------------------------===#

WALLCLOCK_PATTERNS = [
    (re.compile(r"#\s*include\s*<(chrono|ctime|sys/time\.h|time\.h)>"),
     "includes a wall-clock header"),
    (re.compile(r"\bstd::chrono\b"), "uses std::chrono"),
    (re.compile(r"\b(steady_clock|system_clock|high_resolution_clock)\b"),
     "uses a host clock type"),
    (re.compile(r"(?<![\w:.])(time|clock|gettimeofday|clock_gettime)\s*\("),
     "calls a wall-clock function"),
]

RANDOMNESS_PATTERNS = [
    (re.compile(r"\bstd::random_device\b"), "uses std::random_device"),
    (re.compile(r"(?<![\w:.])s?rand\s*\("), "calls rand()/srand()"),
    (re.compile(r"\bmt19937(_64)?\b"), "uses std::mt19937 (use SplitMix64)"),
    (re.compile(r"\b(drand48|lrand48|random)\s*\(\s*\)"), "calls a libc RNG"),
]


def _match_lines(fm: FileModel, patterns, rule, findings):
    for no, line in enumerate(fm.lines, start=1):
        for pat, msg in patterns:
            if pat.search(line):
                findings.append(Finding(rule, fm.rel, no, msg, line))


def rule_wall_clock(fm: FileModel, ctx) -> list:
    findings = []
    _match_lines(fm, WALLCLOCK_PATTERNS, "wall-clock", findings)
    return findings


def rule_randomness(fm: FileModel, ctx) -> list:
    findings = []
    _match_lines(fm, RANDOMNESS_PATTERNS, "randomness", findings)
    return findings


RANGE_FOR = re.compile(r"\bfor\s*\(")


def _range_for_loops(fm: FileModel):
    """Yields (header_line, iterated_expr, body_scope|None) for each
    range-based for over the file."""
    for m in RANGE_FOR.finditer(fm.stripped):
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
            # Classic for; handled by the iterator-loop detector below.
            yield (fm.line_of(m.start()), None, header, m.start(), i)
            continue
        if ":" not in header:
            continue
        expr = header.split(":", 1)[1].strip()
        yield (fm.line_of(m.start()), expr, header, m.start(), i)


def _loop_body(fm: FileModel, close_paren: int):
    """The scope of the loop body following the for(...) header, or None
    for single-statement bodies."""
    j = close_paren + 1
    n = len(fm.stripped)
    while j < n and fm.stripped[j] in " \t\n":
        j += 1
    if j < n and fm.stripped[j] == "{":
        sc = fm.scope_at(j + 1)
        if sc.start == j:
            return (j, sc.end)
    # Single statement: to the next ';'.
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
    if enclosing.start == body_start - 0 and enclosing.parent:
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
    for line, expr, header, start, close in _range_for_loops(fm):
        if expr is None:
            # Iterator-style loop: for (auto It = X.begin(); ...)
            m = re.search(r"=\s*([\w.\->]+)\.(?:c?begin)\s*\(", header)
            if not m:
                continue
            name = _trailing_name(m.group(1).rsplit(".", 1)[0]
                                  if "." in m.group(1) else m.group(1))
            name = _trailing_name(m.group(1))
            # m.group(1) ends with the container; strip member access.
            name = re.findall(r"\w+", m.group(1))[-1]
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
            "order-insensitive", fm.lines[line - 1]))
    return findings


def rule_float_order(fm: FileModel, ctx) -> list:
    findings = []
    unordered = ctx.imported_unordered_syms(fm)
    if not unordered:
        return findings
    for line, expr, header, start, close in _range_for_loops(fm):
        if expr is None:
            continue
        name = _trailing_name(expr)
        if name not in unordered:
            continue
        body_start, body_end = _loop_body(fm, close)
        body = fm.stripped[body_start:body_end]
        body_line0 = fm.line_of(body_start)
        for am in re.finditer(r"\b(\w+)\s*\+=", body):
            acc = am.group(1)
            if acc in fm.float_syms:
                at = fm.line_of(body_start + am.start())
                findings.append(Finding(
                    "float-order", fm.rel, at,
                    f"floating-point accumulation '{acc} +=' inside a loop "
                    f"over unordered container '{expr}': FP addition is not "
                    "associative, so the result depends on hash iteration "
                    "order; accumulate over a sorted sequence instead "
                    "(an ordered-ok annotation is NOT sufficient here)",
                    fm.lines[at - 1]))
        del body_line0
    return findings


#===----------------------------------------------------------------------===#
# Rule — lock discipline (C1)
#===----------------------------------------------------------------------===#

LOCK_DECL = re.compile(r"\b(?:std\s*::\s*)?(?:lock_guard|unique_lock|"
                       r"scoped_lock)\s*(?:<[^<>]*>)?\s+\w+\s*[({]"
                       r"([^)}]*)[)}]")
LOCK_CALL = re.compile(r"\b([\w.\->]+)\s*\.\s*lock\s*\(\s*\)")


def _locked_regions(fm: FileModel, mutex: str):
    """(start, end) offset ranges in which `mutex` is held: from each lock
    acquisition to the end of its enclosing brace scope."""
    regions = []
    for m in LOCK_DECL.finditer(fm.stripped):
        ids = re.findall(r"\w+", m.group(1))
        if ids and ids[-1] == mutex:
            sc = fm.scope_at(m.start())
            regions.append((m.start(), sc.end))
    for m in LOCK_CALL.finditer(fm.stripped):
        ids = re.findall(r"\w+", m.group(1))
        if ids and ids[-1] == mutex:
            sc = fm.scope_at(m.start())
            regions.append((m.start(), sc.end))
    return regions


def rule_lock_discipline(fm: FileModel, ctx) -> list:
    """Fields annotated guarded-by(Mu) may only be named inside a region
    that holds Mu — checked over the declaring file and its header/source
    sibling (the annotation typically sits on a header field touched from
    the .cpp)."""
    findings = []
    guarded = []  # (field, mutex, decl_line)
    for a in fm.annotations:
        if a.kind != "guarded-by" or not a.arg:
            continue
        # The annotated declaration is on a.line (or the next line when
        # the comment sits above the field).
        for probe in (a.line, a.line + 1):
            if probe - 1 < len(fm.lines):
                m = FIELD_DECL.match(fm.lines[probe - 1])
                if m:
                    guarded.append((m.group(2), a.arg.strip(), probe))
                    break
    if not guarded:
        return findings
    targets = [fm]
    sib = ctx.sibling(fm)
    if sib is not None:
        targets.append(sib)
    for field, mutex, decl_line in guarded:
        pat = re.compile(r"\b" + re.escape(field) + r"\b")
        for tf in targets:
            regions = _locked_regions(tf, mutex)
            for m in pat.finditer(tf.stripped):
                line = tf.line_of(m.start())
                if tf is fm and line == decl_line:
                    continue
                if any(s <= m.start() < e for s, e in regions):
                    continue
                if tf.annotated("guard-ok", line):
                    continue
                findings.append(Finding(
                    "lock-discipline", tf.rel, line,
                    f"'{field}' is guarded-by({mutex}) but touched here "
                    f"with no {mutex} lock in scope (lock_guard/unique_lock/"
                    f"scoped_lock on {mutex}, or annotate the line "
                    "'trident-analyze: guard-ok(<reason>)')",
                    tf.lines[line - 1]))
    return findings


#===----------------------------------------------------------------------===#
# Rule — layering (L1)
#===----------------------------------------------------------------------===#


def load_layering(root: Path):
    for cand in (root / "tools" / "layering.json", root / "layering.json"):
        if cand.is_file():
            try:
                doc = json.loads(cand.read_text())
            except json.JSONDecodeError as e:
                return {"error": f"{cand}: invalid JSON: {e}"}
            doc["_path"] = str(cand)
            return doc
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
    if not src_files:
        return findings
    if lay is None:
        return findings  # fixture roots without a manifest skip L1
    manifest = lay.get("_path", "tools/layering.json")
    if "error" in lay:
        return [Finding("layering", "tools/layering.json", 1, lay["error"])]

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
        ok = level_of[a] > level_of[b] or (a, b) in allowed_lateral
        if ok:
            continue
        kind = ("same-level edge not in intra_level_edges"
                if level_of[a] == level_of[b] else
                f"up-level include (level {level_of[a]} -> {level_of[b]})")
        for rel, line, target in sites:
            findings.append(Finding(
                "layering", rel, line,
                f"module edge {a} -> {b} violates the layering DAG "
                f"({kind}; manifest: {manifest}): "
                f'#include "{target}"', f'#include "{target}"'))

    # Cycle detection on the *declared* graph (levels + lateral edges can
    # only cycle laterally, but check generally) and the observed graph.
    def find_cycle(nodes, succ):
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

    declared_succ = lambda n: sorted(
        b for (a, b) in allowed_lateral if a == n)
    cyc = find_cycle(set(level_of), declared_succ)
    if cyc:
        findings.append(Finding(
            "layering", "tools/layering.json", 1,
            "declared intra-level edges form a cycle: " + " -> ".join(cyc)))
    observed_succ = lambda n: sorted(b for (a, b) in edges if a == n)
    cyc = find_cycle({m for e in edges for m in e} | set(on_disk),
                     observed_succ)
    if cyc:
        findings.append(Finding(
            "layering", "src", 1,
            "observed include graph has a module cycle: " +
            " -> ".join(cyc)))
    return findings


#===----------------------------------------------------------------------===#
# Rules — migrated hardware-modeling hygiene (R3..R7)
#===----------------------------------------------------------------------===#

HOTPATH_PATTERNS = [
    (re.compile(r"\bstd::erase_if\b"), "std::erase_if is an O(n) scan"),
    (re.compile(r"\.erase\s*\(\s*std::remove"),
     "remove-erase idiom is an O(n) scan"),
    (re.compile(r"\bstd::remove_if\b"), "std::remove_if is an O(n) scan"),
    (re.compile(r"\bstd::find_if\s*\(\s*\w+\.begin\(\)"),
     "linear std::find_if scan over a container"),
]


def rule_hot_path(fm: FileModel, ctx) -> list:
    findings = []
    if any(a.kind == "hot-path" for a in fm.annotations):
        _match_lines(fm, HOTPATH_PATTERNS, "hot-path", findings)
    return findings


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
    """R4, fixed: the capacity bound and the not-a-hw-table annotation are
    resolved against the matched class — an annotation on one class no
    longer exempts its neighbors, and a bound declared by another class in
    the file no longer satisfies this one."""
    findings = []
    if fm.path.suffix not in {".h", ".hpp"}:
        return findings
    for ci in fm.classes:
        if not TABLE_SUFFIX.fullmatch(ci.name):
            continue
        body_first = ci.line
        body_last = fm.line_of(ci.scope.end - 1)
        attached = any(
            a.kind == "not-a-hw-table" and
            ci.line - 3 <= a.line <= body_last
            for a in fm.annotations)
        if attached:
            continue
        body = fm.stripped[fm.offset_of_line(body_first):ci.scope.end]
        if not BOUND_TOKENS.search(body) and not _config_bounded(fm, ctx,
                                                                 body):
            findings.append(Finding(
                "table-bounds", fm.rel, ci.line,
                f"hardware table class '{ci.name}' declares no capacity "
                "bound (NumEntries/SizeBytes/capacity) in its own body; "
                "annotate 'trident-analyze: not-a-hw-table(<reason>)' on "
                "the class if it is not modeling a hardware structure",
                fm.lines[ci.line - 1]))
    return findings


ASSERT_CALL = re.compile(r"(?<![\w.])assert\s*\(")
ASSERT_INCLUDE = re.compile(r"#\s*include\s*<(cassert|assert\.h)>")
ASSERT_ALLOWED = {"src/support/Check.h"}


def rule_no_assert(fm: FileModel, ctx) -> list:
    findings = []
    if fm.rel in ASSERT_ALLOWED:
        return findings
    for no, line in enumerate(fm.lines, start=1):
        if ASSERT_CALL.search(line) and "static_assert" not in line:
            findings.append(Finding(
                "no-assert", fm.rel, no,
                "bare assert(); use TRIDENT_CHECK/TRIDENT_DCHECK from "
                "support/Check.h", line))
        if ASSERT_INCLUDE.search(line):
            findings.append(Finding(
                "no-assert", fm.rel, no,
                "<cassert> include; use support/Check.h", line))
    return findings


EVENT_ENUM = re.compile(r"\benum\s+class\s+EventKind\b[^{;]*\{")
ENUMERATOR = re.compile(r"^\s*(\w+)\s*(?:=[^,]*)?(?:,|$)")


def rule_event_names(fm: FileModel, ctx) -> list:
    """R6, fixed: enumerators are parsed structurally, line by line within
    the enum's brace scope, instead of splitting the flattened body on
    commas (which misparsed once the old stripper mangled digit
    separators and trailing comments)."""
    findings = []
    m = EVENT_ENUM.search(fm.stripped)
    if not m:
        return findings
    brace = fm.stripped.index("{", m.start())
    sc = fm.scope_at(brace + 1)
    enum_line = fm.line_of(m.start())
    first = fm.line_of(sc.start) + (0 if fm.line_of(sc.start) != enum_line
                                    else 1)
    last = fm.line_of(sc.end - 1)
    names = []
    for no in range(fm.line_of(sc.start), last + 1):
        line = fm.lines[no - 1]
        if no == fm.line_of(sc.start):
            line = line[line.index("{") + 1:] if "{" in line else line
        if no == last:
            line = line[:line.rindex("}")] if "}" in line else line
        for piece in line.split(","):
            em = ENUMERATOR.match(piece.strip())
            if em and em.group(1).isidentifier():
                names.append(em.group(1))
    del first
    for name in names:
        if not re.search(r"\bcase\s+EventKind\s*::\s*" + name + r"\s*:",
                         fm.stripped):
            findings.append(Finding(
                "event-names", fm.rel, enum_line,
                f"EventKind::{name} has no 'case EventKind::{name}:' in "
                "eventKindName()'s switch; every event kind needs a "
                "string-table entry", fm.lines[enum_line - 1]))
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
        raw = fm.raw_lines[no - 1] if no <= len(fm.raw_lines) else ""
        if ANNOTATION.search(raw) and "alloc-ok" in raw:
            continue
        for pat, msg in ALLOC_PATTERNS:
            if pat.search(line):
                findings.append(Finding("hot-path-alloc", fm.rel, no, msg,
                                        line))
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
                "'trident-analyze: alloc-ok(<reason>)'", line))
    return findings


#===----------------------------------------------------------------------===#
# Rule registry
#===----------------------------------------------------------------------===#

# (id, legacy-id, description, file_rule, hw_only)
FILE_RULES = [
    ("wall-clock", "R1", "no host time sources in simulator code",
     rule_wall_clock, False),
    ("randomness", "R2", "no unseeded/global randomness",
     rule_randomness, False),
    ("hot-path", "R3", "no O(n) erase/scan idioms in hot-path files",
     rule_hot_path, True),
    ("table-bounds", "R4", "hardware tables declare a capacity bound",
     rule_table_bounds, True),
    ("no-assert", "R5", "TRIDENT_CHECK instead of bare assert()",
     rule_no_assert, True),
    ("event-names", "R6", "every EventKind has a name-table case",
     rule_event_names, True),
    ("hot-path-alloc", "R7", "zero-alloc hot-path files do not allocate",
     rule_hot_path_alloc, True),
    ("unordered-iter", "D1",
     "no result-affecting iteration over unordered containers",
     rule_unordered_iter, True),
    ("float-order", "C2",
     "no FP += reductions over unordered containers",
     rule_float_order, True),
    ("lock-discipline", "C1",
     "guarded-by(Mu) fields only touched under their mutex",
     rule_lock_discipline, True),
]
PROJECT_RULES = [
    ("layering", "L1", "module include DAG matches tools/layering.json",
     rule_layering),
]
LEGACY_RULES = {"wall-clock", "randomness", "hot-path", "table-bounds",
                "no-assert", "event-names", "hot-path-alloc"}
ALL_RULE_IDS = [r[0] for r in FILE_RULES] + [r[0] for r in PROJECT_RULES]


#===----------------------------------------------------------------------===#
# SARIF 2.1 export
#===----------------------------------------------------------------------===#


def to_sarif(findings: list, root: Path) -> dict:
    rule_meta = []
    for rid, legacy, desc, *_ in FILE_RULES + PROJECT_RULES:
        rule_meta.append({
            "id": rid,
            "name": legacy,
            "shortDescription": {"text": desc},
        })
    results = []
    for f in findings:
        results.append({
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "partialFingerprints": {"tridentAnalyze/v1": f.fingerprint()},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.rel,
                                         "uriBaseId": "SRCROOT"},
                    "region": {"startLine": max(1, f.line)},
                },
            }],
        })
    return {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                   "master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "trident-analyze",
                "version": ENGINE_VERSION,
                "informationUri":
                    "https://example.invalid/trident-srp/tools",
                "rules": rule_meta,
            }},
            "originalUriBaseIds": {
                "SRCROOT": {"uri": root.resolve().as_uri() + "/"},
            },
            "results": results,
        }],
    }


#===----------------------------------------------------------------------===#
# Scope selection, baseline, diff
#===----------------------------------------------------------------------===#


def default_scope(root: Path):
    """(path, hw_rules) pairs: src/ gets every rule; bench/tools/examples
    only the determinism rules R1/R2 (harness code may not add
    nondeterminism either, but is not hardware modeling)."""
    files = []
    for sub, hw in (("src", True), ("bench", False), ("tools", False),
                    ("examples", False)):
        d = root / sub
        if not d.is_dir():
            continue
        for p in sorted(d.rglob("*")):
            if p.suffix in CPP_SUFFIXES and p.is_file():
                files.append((p, hw))
    return files


def changed_files(root: Path, base: str) -> set:
    """Repo-relative paths changed vs `base`, plus staged and untracked."""
    out = set()
    cmds = [
        ["git", "diff", "--name-only", base, "--"],
        ["git", "diff", "--name-only", "--cached", "--"],
        ["git", "ls-files", "--others", "--exclude-standard", "--"],
    ]
    for cmd in cmds:
        try:
            r = subprocess.run(cmd, cwd=root, capture_output=True,
                               text=True, check=True)
        except (subprocess.CalledProcessError, FileNotFoundError):
            continue
        out.update(l.strip() for l in r.stdout.splitlines() if l.strip())
    return out


def resolve_diff_base(root: Path, base: str) -> str:
    if base:
        return base
    for cmd in (["git", "merge-base", "HEAD", "main"],
                ["git", "rev-parse", "--verify", "-q", "HEAD~1"],
                ["git", "rev-parse", "HEAD"]):
        try:
            r = subprocess.run(cmd, cwd=root, capture_output=True,
                               text=True)
            if r.returncode == 0 and r.stdout.strip():
                return r.stdout.strip()
        except FileNotFoundError:
            break
    return "HEAD"


#===----------------------------------------------------------------------===#
# Driver
#===----------------------------------------------------------------------===#


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("paths", nargs="*",
                    help="restrict *reported* findings to these files")
    ap.add_argument("--rules", default=None,
                    help="comma-separated rule ids, or 'legacy' for the "
                         "trident-lint R1-R7 set")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--sarif", default=None, metavar="OUT",
                    help="write a SARIF 2.1 report")
    ap.add_argument("--baseline", default=None, metavar="FILE",
                    help="suppression baseline (default: "
                         "tools/analysis_baseline.json if present)")
    ap.add_argument("--write-baseline", action="store_true",
                    help="write current findings into the baseline and "
                         "exit 0")
    ap.add_argument("--diff", nargs="?", const="", default=None,
                    metavar="BASE",
                    help="report only findings in files changed since BASE "
                         "(default: merge-base with main)")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rid, legacy, desc, *_ in FILE_RULES + PROJECT_RULES:
            print(f"{rid:20s} {legacy:3s} {desc}")
        return 0

    root = (Path(args.root).resolve() if args.root
            else Path(__file__).resolve().parent.parent)
    if not root.is_dir():
        print(f"trident-analyze: no such root: {root}", file=sys.stderr)
        return 2

    if args.rules == "legacy":
        enabled = set(LEGACY_RULES)
    elif args.rules:
        enabled = {r.strip() for r in args.rules.split(",") if r.strip()}
        bad = enabled - set(ALL_RULE_IDS)
        if bad:
            print(f"trident-analyze: unknown rule(s): {', '.join(sorted(bad))}",
                  file=sys.stderr)
            return 2
    else:
        enabled = set(ALL_RULE_IDS)

    # ---- build file models -------------------------------------------------
    scope = default_scope(root)
    files: dict[str, FileModel] = {}
    harness: dict[str, FileModel] = {}
    for p, hw in scope:
        rel = p.relative_to(root).as_posix()
        try:
            fm = FileModel(p, rel, root)
        except OSError as e:
            print(f"trident-analyze: cannot read {rel}: {e}",
                  file=sys.stderr)
            return 2
        (files if hw else harness)[rel] = fm
    ctx = AnalysisContext(root, files, load_layering(root),
                          quiet=args.quiet)
    ctx.harness_files = harness

    # ---- run per-file rules ------------------------------------------------
    findings: list[Finding] = []
    checked = 0
    for rel in sorted(list(files) + list(harness)):
        hw = rel in files
        fm = files[rel] if hw else harness[rel]
        checked += 1
        for rid, _legacy, _desc, fn, hw_only in FILE_RULES:
            if rid not in enabled or (hw_only and not hw):
                continue
            findings.extend(fn(fm, ctx))

    # ---- run project rules -------------------------------------------------
    for rid, _legacy, _desc, fn in PROJECT_RULES:
        if rid in enabled:
            findings.extend(fn(ctx))

    findings.sort(key=lambda f: (f.rel, f.line, f.rule, f.message))

    # ---- baseline suppression ----------------------------------------------
    baseline_path = (Path(args.baseline) if args.baseline
                     else root / "tools" / "analysis_baseline.json")
    if args.write_baseline:
        doc = {"comment": "trident-analyze suppression baseline: "
                          "fingerprints of accepted findings. Regenerate "
                          "with tools/trident_analyze.py --write-baseline.",
               "suppressions": sorted({f.fingerprint() for f in findings})}
        baseline_path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"trident-analyze: wrote {len(doc['suppressions'])} "
              f"suppression(s) to {baseline_path}", file=sys.stderr)
        return 0
    suppressed = 0
    if baseline_path.is_file():
        try:
            doc = json.loads(baseline_path.read_text())
            fps = set(doc.get("suppressions", []))
        except (json.JSONDecodeError, OSError):
            fps = set()
        before = len(findings)
        findings = [f for f in findings if f.fingerprint() not in fps]
        suppressed = before - len(findings)

    # ---- diff / path gating ------------------------------------------------
    if args.diff is not None:
        base = resolve_diff_base(root, args.diff)
        changed = changed_files(root, base)
        findings = [f for f in findings if f.rel in changed]
        if not args.quiet:
            print(f"trident-analyze: diff mode vs {base[:12]} "
                  f"({len(changed)} changed file(s))", file=sys.stderr)
    if args.paths:
        wanted = set()
        for raw in args.paths:
            p = Path(raw).resolve()
            try:
                wanted.add(p.relative_to(root).as_posix())
            except ValueError:
                wanted.add(raw)
        findings = [f for f in findings if f.rel in wanted]

    # ---- report ------------------------------------------------------------
    for f in findings:
        print(f)
    if args.sarif:
        Path(args.sarif).write_text(
            json.dumps(to_sarif(findings, root), indent=2) + "\n")
    if not args.quiet:
        extra = f", {suppressed} baseline-suppressed" if suppressed else ""
        print(f"trident-analyze: {checked} files checked, "
              f"{len(findings)} finding(s){extra}", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())

"""Static usage analysis: per-site operation counts from a source corpus.

The scanner is lexical and deliberately modest: it masks comments and
string literals, finds construction sites via the language profile's
declaration patterns, binds each declared identifier within its enclosing
brace scope (flow-insensitive, innermost declaration wins), and counts
every method call on a bound identifier whose token the profile maps to an
operation.  Each call is weighted by L**d where d is the loop nesting
depth at the call and L is the loop weight (default 1, i.e. raw call-site
counts; weighting is an explicit experiment knob).

Scope rules, spelled out because they are the whole contract:

* A brace block opened by a loop keyword (per the profile) is a loop
  scope; calls in a loop header, before the opening brace, count at the
  surrounding depth.
* A declaration claims its whole enclosing block.  A call binds to the
  declaration in the innermost enclosing block that has one; within that
  block, the nearest declaration at or before the call wins, else the
  block's first declaration (flow-insensitive).
* Aliasing, returns, and cross-function flow are not tracked.  Reports
  produced by stronger analyzers can be ingested instead (load_usage_report).

Inserting or editing comments never changes counts, and scanning is a pure
function of (text, profile, weight), so corpus analysis parallelizes and
always merges deterministically in sorted path order.

Scanning is linear in the text size for a bounded nesting depth: doubling
such a file doubles its scan time.  Masking is one regular-expression pass.
One sorted pass over the brace, semicolon and loop-keyword events finds the
blocks and records each one's parent and loop depth.  Each declaration and
call then finds its line and column, and whether it lies inside a
constructor token, by bisecting offsets computed once per file.  Its
innermost block costs a bisection into the block starts plus a climb out of
the blocks that close before it, and a call's declaration a climb from its
block to the nearest one that declares the name; each climb is at most the
nesting depth, so deeply nested text costs up to depth x calls.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Sequence

from . import jsonio
from .errors import DecodeError, MalformedReport, UnknownIdentifier
from .groups import ConstructGroup, builtin_groups
from .languages import LanguageProfile

REPORT_SCHEMA_VERSION = 1


@dataclass
class UsageSite:
    """One construction site and the operation counts observed on it."""

    site_id: str
    file: str
    line: int
    column: int
    current_impl: str
    api_kind: str
    op_counts: dict[str, float] = field(default_factory=dict)
    raw_counts: dict[str, int] = field(default_factory=dict)
    max_loop_depth: int = 0
    ctor_span: tuple[int, int] | None = None  # char offsets; scan-time only


@dataclass
class UsageReport:
    corpus_label: str
    lang_id: str
    loop_weight: float
    sites: list[UsageSite] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)


# --- masking ------------------------------------------------------------------

def _mask_pattern(profile: LanguageProfile) -> re.Pattern:
    """One alternation over comments and strings, in the scanner's priority order.

    At any position a block comment wins over a line comment, and a line
    comment over a string.  A block comment runs to its close or to the end
    of the text; a line comment to the end of its line.  A string runs to
    its closing delimiter, an escape skipping the character after it (a
    trailing escape or a missing close runs the string to the end).
    """
    alternatives = []
    if profile.block_comment:
        open_, close = map(re.escape, profile.block_comment)
        alternatives.append(rf"{open_}(?:.*?{close}|.*\Z)")
    if profile.line_comment:
        alternatives.append(re.escape(profile.line_comment) + r"[^\n]*")
    escape = profile.string_escape
    for delim in profile.string_delimiters:
        if len(delim) != 1:
            continue  # a delimiter is matched one character at a time
        d = re.escape(delim)
        if len(escape) == 1 and escape != delim:
            e = re.escape(escape)
            alternatives.append(rf"{d}[^{d}{e}]*(?:{e}.[^{d}{e}]*)*(?:{d}|{e}?\Z)")
        else:
            alternatives.append(rf"{d}[^{d}]*(?:{d}|\Z)")
    return re.compile("|".join(alternatives) or r"(?!)", re.DOTALL)


def _blank(match: re.Match) -> str:
    return "\n".join(" " * len(part) for part in match.group().split("\n"))


def mask_text(text: str, profile: LanguageProfile) -> str:
    """Blank out comments and string literals, preserving offsets and newlines."""
    return _mask_pattern(profile).sub(_blank, text)


# --- block structure ------------------------------------------------------------

@dataclass
class _Block:
    start: int
    end: int
    is_loop: bool
    parent: int  # index of the enclosing block, -1 for the root
    depth: int  # loop nesting depth inside the block


def _block_structure(masked: str, loop_tokens: frozenset[str]) -> list[_Block]:
    """All brace blocks plus a whole-file root block (index 0).

    Blocks come in start order and are properly nested: an unclosed block
    runs to the end of the text, and a stray ``}`` closes nothing.
    """
    events: list[tuple[int, str]] = []
    if loop_tokens:
        keyword = re.compile(r"\b(?:" + "|".join(map(re.escape, sorted(loop_tokens))) + r")\b")
        events.extend((m.start(), "loop") for m in keyword.finditer(masked))
    for m in re.finditer(r"[{};]", masked):
        events.append((m.start(), m.group()))
    events.sort()

    blocks = [_Block(0, len(masked), False, -1, 0)]
    stack = [0]
    pending_loop = False
    for pos, kind in events:
        if kind == "loop":
            pending_loop = True
        elif kind == "{":
            parent = stack[-1]
            blocks.append(_Block(pos, len(masked), pending_loop, parent,
                                 blocks[parent].depth + pending_loop))
            stack.append(len(blocks) - 1)
            pending_loop = False
        elif kind == ";":
            pending_loop = False
        elif kind == "}" and len(stack) > 1:
            blocks[stack.pop()].end = pos + 1
    return blocks


def _innermost(blocks: list[_Block], starts: list[int], pos: int) -> int:
    """The block with the latest start that contains pos (root for none)."""
    idx = bisect_right(starts, pos) - 1
    while pos >= blocks[idx].end:
        idx = blocks[idx].parent
    return idx


# --- scanning ---------------------------------------------------------------------

@dataclass
class _Declaration:
    name: str
    pos: int
    block: int
    site: UsageSite


def _line_col(newlines: list[int], pos: int) -> tuple[int, int]:
    """1-based line and column of pos, given the offsets of every newline."""
    line = bisect_left(newlines, pos)
    return line + 1, pos - (newlines[line - 1] if line else -1)


class _Scopes:
    """Declarations grouped by (block, name), each group in position order."""

    def __init__(self, declarations: list[_Declaration], blocks: list[_Block]):
        self.blocks = blocks
        self.groups: dict[tuple[int, str], list[_Declaration]] = {}
        for decl in declarations:
            self.groups.setdefault((decl.block, decl.name), []).append(decl)
        self.positions = {key: [d.pos for d in group] for key, group in self.groups.items()}

    def binding(self, block: int, name: str, pos: int) -> _Declaration | None:
        """The declaration a call on name at pos (innermost in block) binds to.

        The innermost enclosing block that declares name wins; within it the
        nearest declaration at or before pos, else its first one.
        """
        while (block, name) not in self.groups:
            if block == 0:
                return None
            block = self.blocks[block].parent
        group = self.groups[(block, name)]
        k = bisect_right(self.positions[(block, name)], pos)
        return group[k - 1] if k else group[0]


def scan_file(source_text: str, lang_profile: LanguageProfile,
              loop_weight: float = 1.0,
              file_label: str = "<memory>") -> list[UsageSite]:
    """Scan one source text and return its usage sites in position order."""
    masked = mask_text(source_text, lang_profile)
    blocks = _block_structure(masked, lang_profile.loop_open_tokens)
    starts = [blk.start for blk in blocks]
    newlines = [m.start() for m in re.finditer("\n", source_text)]

    declarations: list[_Declaration] = []
    for pattern, impl_id, api_kind in lang_profile.compiled_declarations():
        for m in pattern.finditer(masked):
            ctor_start, ctor_end = m.span("ctor")
            line, col = _line_col(newlines, ctor_start)
            site = UsageSite(
                site_id=f"{file_label}:{line}:{col}",
                file=file_label,
                line=line,
                column=col,
                current_impl=impl_id,
                api_kind=api_kind,
                ctor_span=(ctor_start, ctor_end),
            )
            declarations.append(
                _Declaration(m.group("name"), m.start(),
                             _innermost(blocks, starts, m.start()), site)
            )
    declarations.sort(key=lambda d: d.pos)

    scopes = _Scopes(declarations, blocks)

    # a call inside any constructor span is covered by the latest-ending span
    # among those that start at or before it
    spans = sorted(d.site.ctor_span for d in declarations)
    span_starts = [start for start, _ in spans]
    span_reach = list(accumulate((end for _, end in spans), max))

    for m in lang_profile.compiled_calls().finditer(masked):
        pos = m.start()
        # a constructor call is not a method call on its own token
        k = bisect_right(span_starts, pos)
        if k and span_reach[k - 1] > pos:
            continue
        block = _innermost(blocks, starts, pos)
        decl = scopes.binding(block, m.group("recv"), pos)
        if decl is None:
            continue

        op_id = lang_profile.method_map.get(decl.site.api_kind, {}).get(m.group("method"))
        if op_id is None:
            continue
        depth = blocks[block].depth
        site = decl.site
        site.raw_counts[op_id] = site.raw_counts.get(op_id, 0) + 1
        site.op_counts[op_id] = site.op_counts.get(op_id, 0.0) + loop_weight**depth
        site.max_loop_depth = max(site.max_loop_depth, depth)

    return [d.site for d in declarations]


def analyze_corpus(paths: Iterable, lang_profile: LanguageProfile,
                   loop_weight: float = 1.0,
                   corpus_label: str | None = None) -> UsageReport:
    """Scan files in sorted path order; per-file errors become diagnostics."""
    ordered = sorted(str(p) for p in paths)
    report = UsageReport(
        corpus_label=corpus_label or (ordered[0] if ordered else "empty"),
        lang_id=lang_profile.lang_id,
        loop_weight=loop_weight,
    )
    for path in ordered:
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            report.diagnostics.append(f"{path}: {exc}")
            continue
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            report.diagnostics.append(f"{path}: {DecodeError(exc)}")
            continue
        report.sites.extend(scan_file(text, lang_profile, loop_weight, path))
    return report


# --- persistence --------------------------------------------------------------------

_TOP_FIELDS = {"schema_version", "corpus", "lang", "loop_weight", "sites"}
_SITE_FIELDS = {"site_id", "file", "line", "impl", "api_kind", "counts", "raw_counts"}


def report_to_dict(report: UsageReport) -> dict:
    sites = []
    for site in report.sites:
        sites.append({
            "site_id": site.site_id,
            "file": site.file,
            "line": site.line,
            "impl": site.current_impl,
            "api_kind": site.api_kind,
            "counts": {op: jsonio.canonical_number(c)
                       for op, c in sorted(site.op_counts.items())},
            "raw_counts": dict(sorted(site.raw_counts.items())),
        })
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "corpus": report.corpus_label,
        "lang": report.lang_id,
        "loop_weight": jsonio.canonical_number(report.loop_weight),
        "sites": sites,
    }


def save_usage_report(report: UsageReport, path) -> None:
    jsonio.write(path, report_to_dict(report))


def load_usage_report(path, groups: Sequence[ConstructGroup] | None = None) -> UsageReport:
    """Parse and validate a usage report against the registered groups.

    Unknown implementation or operation identifiers are rejected so that
    externally produced reports cannot smuggle vocabulary the profiles do
    not speak.  Site columns are not part of the schema; loaded sites carry
    column 0 and no constructor span (patching always re-scans sources).
    """
    try:
        doc = jsonio.read(path)
    except ValueError as exc:
        raise MalformedReport(f"cannot parse {path}: {exc}") from exc
    return report_from_dict(doc, groups)


def report_from_dict(doc, groups: Sequence[ConstructGroup] | None = None) -> UsageReport:
    if groups is None:
        groups = builtin_groups()
    impl_kinds: dict[str, str] = {}
    ops_by_kind: dict[str, set[str]] = {}
    for group in groups:
        ops_by_kind[group.api_kind] = {o.op_id for o in group.operations}
        for desc in group.descriptors():
            impl_kinds[desc.impl_id] = desc.api_kind

    if not isinstance(doc, dict):
        raise MalformedReport("report document must be a JSON object")
    if doc.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise MalformedReport(
            f"report schema_version {doc.get('schema_version')!r}; "
            f"this build speaks {REPORT_SCHEMA_VERSION}"
        )
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise MalformedReport(f"unknown top-level fields: {sorted(unknown)}")
    missing = _TOP_FIELDS - set(doc)
    if missing:
        raise MalformedReport(f"missing fields: {sorted(missing)}")
    if not isinstance(doc["sites"], list):
        raise MalformedReport("sites must be a list")

    report = UsageReport(
        corpus_label=str(doc["corpus"]),
        lang_id=str(doc["lang"]),
        loop_weight=float(doc["loop_weight"]),
    )
    seen_ids: set[str] = set()
    for row in doc["sites"]:
        if not isinstance(row, dict):
            raise MalformedReport("each site must be an object")
        unknown = set(row) - _SITE_FIELDS
        if unknown:
            raise MalformedReport(f"unknown site fields: {sorted(unknown)}")
        missing = _SITE_FIELDS - set(row)
        if missing:
            raise MalformedReport(f"site missing fields: {sorted(missing)}")
        site_id = str(row["site_id"])
        if site_id in seen_ids:
            raise MalformedReport(f"duplicate site_id {site_id!r}")
        seen_ids.add(site_id)

        impl, kind = str(row["impl"]), str(row["api_kind"])
        if impl not in impl_kinds:
            raise UnknownIdentifier(f"site {site_id}: unknown impl {impl!r}")
        if impl_kinds[impl] != kind:
            raise UnknownIdentifier(
                f"site {site_id}: {impl} is {impl_kinds[impl]}, report says {kind}"
            )
        valid_ops = ops_by_kind.get(kind, set())
        counts: dict[str, float] = {}
        raw: dict[str, int] = {}
        for source, sink, caster in ((row["counts"], counts, float),
                                     (row["raw_counts"], raw, int)):
            if not isinstance(source, dict):
                raise MalformedReport(f"site {site_id}: counts must be objects")
            for op, value in source.items():
                if op not in valid_ops:
                    raise UnknownIdentifier(
                        f"site {site_id}: unknown {kind} op {op!r}"
                    )
                number = caster(value)
                if number < 0:
                    raise MalformedReport(f"site {site_id}: negative count for {op}")
                sink[op] = number

        report.sites.append(UsageSite(
            site_id=site_id,
            file=str(row["file"]),
            line=int(row["line"]),
            column=0,
            current_impl=impl,
            api_kind=kind,
            op_counts=counts,
            raw_counts=raw,
        ))
    return report

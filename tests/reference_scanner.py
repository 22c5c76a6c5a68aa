"""The usage scanner as it was before it was made linear in text size.

A verbatim copy of the quadratic ``mask_text``, ``_block_structure``,
``_innermost``, ``_loop_depth`` and ``scan_file`` (with the helpers they
need), kept as the oracle the property tests in ``test_scanner_oracle.py``
compare the current scanner against.  Do not optimise or fix this file: its
value is that it is the old behaviour, byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from voltpick.analyzer import UsageSite
from voltpick.languages import LanguageProfile


# --- masking ------------------------------------------------------------------

def mask_text(text: str, profile: LanguageProfile) -> str:
    """Blank out comments and string literals, preserving offsets and newlines."""
    out = list(text)
    i, n = 0, len(text)
    line = profile.line_comment
    block = profile.block_comment
    escape = profile.string_escape

    def blank(start: int, end: int) -> None:
        for j in range(start, end):
            if out[j] != "\n":
                out[j] = " "

    while i < n:
        if block and text.startswith(block[0], i):
            end = text.find(block[1], i + len(block[0]))
            end = n if end < 0 else end + len(block[1])
            blank(i, end)
            i = end
            continue
        if line and text.startswith(line, i):
            end = text.find("\n", i)
            end = n if end < 0 else end
            blank(i, end)
            i = end
            continue
        ch = text[i]
        if ch in profile.string_delimiters:
            j = i + 1
            while j < n and text[j] != ch:
                j += 2 if text[j] == escape else 1
            end = min(j + 1, n)
            blank(i, end)
            i = end
            continue
        i += 1
    return "".join(out)


# --- block structure ------------------------------------------------------------

@dataclass
class _Block:
    start: int
    end: int
    is_loop: bool


def _block_structure(masked: str, loop_tokens: frozenset[str]) -> list[_Block]:
    """All brace blocks plus a whole-file root block (index 0)."""
    events: list[tuple[int, str]] = []
    if loop_tokens:
        keyword = re.compile(r"\b(?:" + "|".join(map(re.escape, sorted(loop_tokens))) + r")\b")
        events.extend((m.start(), "loop") for m in keyword.finditer(masked))
    for m in re.finditer(r"[{};]", masked):
        events.append((m.start(), m.group()))
    events.sort()

    blocks = [_Block(0, len(masked), False)]
    stack = [0]
    pending_loop = False
    for pos, kind in events:
        if kind == "loop":
            pending_loop = True
        elif kind == "{":
            blocks.append(_Block(pos, len(masked), pending_loop))
            stack.append(len(blocks) - 1)
            pending_loop = False
        elif kind == ";":
            pending_loop = False
        elif kind == "}" and len(stack) > 1:
            blocks[stack.pop()].end = pos + 1
    return blocks


def _innermost(blocks: list[_Block], pos: int) -> int:
    best = 0
    for idx, blk in enumerate(blocks):
        if blk.start <= pos < blk.end and blk.start >= blocks[best].start:
            best = idx
    return best


def _loop_depth(blocks: list[_Block], pos: int) -> int:
    return sum(1 for blk in blocks if blk.is_loop and blk.start <= pos < blk.end)


# --- scanning ---------------------------------------------------------------------

@dataclass
class _Declaration:
    name: str
    pos: int
    block: int
    site: UsageSite


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, col


def scan_file(source_text: str, lang_profile: LanguageProfile,
              loop_weight: float = 1.0,
              file_label: str = "<memory>") -> list[UsageSite]:
    """Scan one source text and return its usage sites in position order."""
    masked = mask_text(source_text, lang_profile)
    blocks = _block_structure(masked, lang_profile.loop_open_tokens)

    declarations: list[_Declaration] = []
    for pattern, impl_id, api_kind in lang_profile.compiled_declarations():
        for m in pattern.finditer(masked):
            ctor_start, ctor_end = m.span("ctor")
            line, col = _line_col(source_text, ctor_start)
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
                _Declaration(m.group("name"), m.start(), _innermost(blocks, m.start()), site)
            )
    declarations.sort(key=lambda d: d.pos)

    by_name: dict[str, list[_Declaration]] = {}
    for decl in declarations:
        by_name.setdefault(decl.name, []).append(decl)

    decl_spans = [d.site.ctor_span for d in declarations]

    for m in lang_profile.compiled_calls().finditer(masked):
        pos = m.start()
        # a constructor call is not a method call on its own token
        if any(start <= pos < end for start, end in decl_spans):
            continue
        candidates = [
            d for d in by_name.get(m.group("recv"), ())
            if blocks[d.block].start <= pos < blocks[d.block].end
        ]
        if not candidates:
            continue
        innermost_start = max(blocks[d.block].start for d in candidates)
        scoped = [d for d in candidates if blocks[d.block].start == innermost_start]
        before = [d for d in scoped if d.pos <= pos]
        decl = before[-1] if before else scoped[0]

        op_id = lang_profile.method_map.get(decl.site.api_kind, {}).get(m.group("method"))
        if op_id is None:
            continue
        depth = _loop_depth(blocks, pos)
        site = decl.site
        site.raw_counts[op_id] = site.raw_counts.get(op_id, 0) + 1
        site.op_counts[op_id] = site.op_counts.get(op_id, 0.0) + loop_weight**depth
        site.max_loop_depth = max(site.max_loop_depth, depth)

    return [d.site for d in declarations]

"""The linear-time scanner against the quadratic one it replaced.

``reference_scanner`` is the old scanner, copied verbatim.  These properties
generate nested minilang and clike texts that exercise every scanner rule
(loops nested 0-3 deep, non-loop blocks, unmatched and unclosed braces,
shadowing re-declarations, calls in loop headers, comments and strings with
escapes, unterminated ones, and constructors hidden inside them) and require
the two scanners to agree exactly.
"""

from dataclasses import asdict, replace

from hypothesis import HealthCheck, given, settings, strategies as st

import reference_scanner as ref
from voltpick.analyzer import _block_structure, _innermost, mask_text, scan_file
from voltpick.languages import clike_profile, minilang_profile

MINILANG = minilang_profile()
CLIKE = clike_profile()
# constructor tokens that read as calls on a declared name ("new xs.add()"
# holds the call xs.add), which the scanner must not count
DOTTED_TOKENS = {"array_list": "xs.add", "sync_list": "ys.get",
                 "hash_set": "xs.contains", "hash_map": "ys.put"}
DOTTED = clike_profile(ctor_tokens=DOTTED_TOKENS)
# an escape character that is also a string delimiter
QUOTE_ESCAPE = replace(CLIKE, string_escape="'")

NAMES = ("xs", "ys")
CTORS = ("array_list", "sync_list", "hash_set", "hash_map")
# mostly mapped for some kind; "frob" is mapped for none
MINILANG_METHODS = ("push", "add", "put", "get", "has", "each", "frob")
CLIKE_METHODS = ("add", "put", "get", "contains", "for_each", "remove", "frob")

# strings and comments: hidden declarations and calls, braces, escapes
_HIDDEN = ("let xs = array_list()", "xs = new hash_set();", "xs.push(1)",
           "xs.add(1);", "for {", "}", "{", ";", "coll.array_list(")


class _Syntax:
    def __init__(self, lang):
        self.lang = lang
        mini = lang == "minilang"
        self.methods = MINILANG_METHODS if mini else CLIKE_METHODS
        self.line_comment = "#" if mini else "//"
        self.block = ("#[", "]#") if mini else ("/*", "*/")
        self.quotes = ('"',) if mini else ('"', "'")

    def decl(self, name, ctor):
        if self.lang == "minilang":
            return f"let {name} = {ctor}()\n"
        return f"{name} = new {ctor}();\n"

    def call(self, name, method):
        return f"{name}.{method}(1)\n" if self.lang == "minilang" else f"{name}.{method}(1);\n"

    def loop_headers(self, call):
        if self.lang == "minilang":
            return ("for i in items ", f"while {call} ", "loop ", f"for v in {call} ")
        return ("for (i = 0; i < n; i++) ", f"while ({call}) ", "do ",
                f"for (v : {call}) ")

    def plain_headers(self, call):
        if self.lang == "minilang":
            return ("", "if ok ", "block() ", f"if {call} ")
        return ("", "if (ok) ", "void f() ", f"if ({call}) ")


def _leaf(syntax):
    name = st.sampled_from(NAMES)
    filler = st.lists(st.sampled_from(_HIDDEN + ("\\", "\\\"", "\n", " x ")),
                      max_size=4).map("".join)
    quote = st.sampled_from(syntax.quotes)
    open_, close = syntax.block
    method = st.sampled_from(syntax.methods)
    decl = st.builds(syntax.decl, name, st.sampled_from(CTORS))
    call = st.builds(syntax.call, name, method)
    used = st.builds(lambda n, c, ms: syntax.decl(n, c) + "".join(syntax.call(n, m) for m in ms),
                     name, st.sampled_from(CTORS), st.lists(method, min_size=1, max_size=3))
    return st.one_of(
        decl, used, call, call,
        filler.map(lambda s: f"{syntax.line_comment} {s}\n"),
        filler.map(lambda s: f"{open_} {s} {close}\n"),
        st.builds(lambda q, s: f"say({q}{s}{q})\n", quote, filler),
        st.sampled_from(("}\n", "{\n", ";\n", "\n", "ctl.array_list()\n")),
    )


def _body(syntax, depth):
    items = [_leaf(syntax)]
    if depth < 3:
        items += [_block(syntax, depth + 1)] * 2
    return st.lists(st.one_of(*items), min_size=1, max_size=6).map("".join)


def _block(syntax, depth):
    call = st.builds(lambda n, m: f"{n}.{m}(1)", st.sampled_from(NAMES),
                     st.sampled_from(syntax.methods))
    header = call.flatmap(lambda c: st.sampled_from(
        syntax.loop_headers(c) + syntax.plain_headers(c)))
    close = st.sampled_from(("}\n", "}", "}\n", ""))  # "" leaves it unclosed
    return st.builds(lambda h, b, c: f"{h}{{\n{b}{c}", header, _body(syntax, depth), close)


def _source(lang):
    syntax = _Syntax(lang)
    open_ = syntax.block[0]
    tail = st.sampled_from(("", "", f"{open_} unterminated xs.push(1)",
                            '"unterminated xs.add(1);', 'say("trailing \\'))
    head = st.one_of(st.builds(syntax.decl, st.sampled_from(NAMES), st.sampled_from(CTORS)),
                     st.just("{\n"), st.just(""))
    return st.builds(lambda h, body, end: h + body + end, head, _body(syntax, 0), tail)


def _assert_same_scan(text, profile, weight):
    masked = mask_text(text, profile)
    assert masked == ref.mask_text(text, profile)

    old_blocks = ref._block_structure(masked, profile.loop_open_tokens)
    blocks = _block_structure(masked, profile.loop_open_tokens)
    starts = [blk.start for blk in blocks]
    for pos in range(len(masked)):
        innermost = _innermost(blocks, starts, pos)
        assert innermost == ref._innermost(old_blocks, pos)
        assert blocks[innermost].depth == ref._loop_depth(old_blocks, pos)

    new = scan_file(text, profile, weight, "f.src")
    old = ref.scan_file(text, profile, weight, "f.src")
    assert [asdict(s) for s in new] == [asdict(s) for s in old]


_SCAN_SETTINGS = settings(max_examples=150, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
WEIGHTS = st.sampled_from((1.0, 2.5, 10.0))


@given(_source("minilang"), WEIGHTS)
@_SCAN_SETTINGS
def test_minilang_scan_matches_reference(text, weight):
    _assert_same_scan(text, MINILANG, weight)


@given(_source("clike"), WEIGHTS)
@_SCAN_SETTINGS
def test_clike_scan_matches_reference(text, weight):
    _assert_same_scan(text, CLIKE, weight)


def _dotted(text):
    for impl, token in DOTTED_TOKENS.items():
        text = text.replace(f"new {impl}(", f"new {token}(")
    return text


@given(_source("clike").map(_dotted), WEIGHTS)
@_SCAN_SETTINGS
def test_dotted_constructor_scan_matches_reference(text, weight):
    _assert_same_scan(text, DOTTED, weight)


def test_text_opening_with_a_brace_matches_reference():
    # a block at offset 0 starts where the root does
    text = ("{\nlet xs = array_list()\nxs.push(1)\n}\nxs.push(2)\n"
            "let xs = hash_set()\n{ xs.add(1) }\n")
    _assert_same_scan(text, MINILANG, 10.0)
    _assert_same_scan("{ let xs = array_list()\n}{xs.push(3)}" + text, MINILANG, 10.0)


@given(st.text(alphabet='#[]"\\\na ', max_size=24))
@settings(max_examples=1500, deadline=None)
def test_minilang_mask_matches_reference(text):
    assert mask_text(text, MINILANG) == ref.mask_text(text, MINILANG)


@given(st.text(alphabet="/*\"'\\\na ", max_size=24))
@settings(max_examples=1500, deadline=None)
def test_clike_mask_matches_reference(text):
    assert mask_text(text, CLIKE) == ref.mask_text(text, CLIKE)
    assert mask_text(text, QUOTE_ESCAPE) == ref.mask_text(text, QUOTE_ESCAPE)

"""Seeded source corpora that carry their own ground truth.

The generator writes minilang or clike source and, while it writes, keeps
the scope and loop model the analyzer documents: a declaration claims its
enclosing brace block, a call binds to the innermost visible declaration,
and each call weighs ``loop_weight ** depth`` where depth counts the
enclosing loop blocks (loop headers sit at the surrounding depth).  Every
site's raw counts, weighted counts, deepest counted call and constructor
byte span are recorded as the text is emitted, never recovered by scanning.

The text is built to exercise each rule: decoy calls and declarations in
line comments, block comments and string literals (with braces and escaped
quotes inside), loops nested 0-2 deep with calls in their headers,
if-blocks that are not loops, a shadowing re-declaration in a nested
block, calls on undeclared or out-of-scope names, method tokens the
site's kind does not map, and thread-safe (``sync_*``, ``cow_list``)
constructors.  Calls on a name are only emitted after its declaration, so
the analyzer's flow-insensitive fallback never decides a binding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from vocab import IMPL_KIND, METHODS

_STEMS = ("stock", "prices", "seen", "lines", "queue", "index", "cache",
          "batch", "ledger", "pending", "routes", "tags")
_UNMAPPED = ("size", "clear", "sort", "reserve", "snapshot")
_DECOY_WORDS = ("for", "while", "loop", "do", "{", "}", ";", "let")


@dataclass
class ExpectedSite:
    """What the analyzer must report for one construction site."""

    site_id: str
    file: str
    line: int
    column: int
    impl: str
    kind: str
    ctor_span: tuple[int, int]  # offsets of the constructor token (ASCII: chars = bytes)
    raw_counts: dict[str, int] = field(default_factory=dict)
    weighted_counts: dict[str, float] = field(default_factory=dict)
    max_loop_depth: int = 0


@dataclass
class SourceFile:
    path: str
    text: str
    sites: list[ExpectedSite]


class _Minilang:
    lang = "minilang"
    line_comment = "# "
    block_comment = ("#[ ", " ]#")
    quotes = ('"',)

    def decl(self, name):
        return f"let {name} = ", "()"

    def stmt(self, text):
        return text

    def function(self, name):
        return f"{name}(a, b) {{"

    def loop_kinds(self):
        return ("for", "while", "loop")

    def loop(self, kind, var, header):
        if kind == "for":
            return f"for {var} in {header or 'a'} {{"
        if kind == "while":
            return f"while {header or 'pending()'} {{"
        return "loop {"

    def if_(self, cond):
        return f"if {cond} {{"


class _Clike:
    lang = "clike"
    line_comment = "// "
    block_comment = ("/* ", " */")
    quotes = ('"', "'")

    def decl(self, name):
        return f"var {name} = new ", "();"

    def stmt(self, text):
        return text + ";"

    def function(self, name):
        return f"void {name}(a, b) {{"

    def loop_kinds(self):
        return ("for", "while", "do")

    def loop(self, kind, var, header):
        if kind == "for":
            return f"for (var {var} : {header or 'a'}) {{"
        if kind == "while":
            return f"while ({header or 'pending()'}) {{"
        return "do {"

    def if_(self, cond):
        return f"if ({cond}) {{"


SYNTAX = {"minilang": _Minilang(), "clike": _Clike()}


class _Writer:
    """Emits one file line by line while tracking blocks, scopes and sites."""

    def __init__(self, syntax, rng: random.Random, path: str, loop_weight: float):
        self.syntax = syntax
        self.methods = METHODS[syntax.lang]
        self.rng = rng
        self.path = path
        self.loop_weight = loop_weight
        self.lines: list[str] = []
        self.offset = 0
        self.loops: list[bool] = []  # one flag per open block
        self.scopes: list[dict[str, ExpectedSite]] = [{}]
        self.retired: list[str] = []
        self.sites: list[ExpectedSite] = []
        self.counter = 0

    # -- text -------------------------------------------------------------------

    @property
    def indent(self) -> str:
        return "    " * len(self.loops)

    @property
    def depth(self) -> int:
        return sum(self.loops)

    def emit(self, text: str) -> int:
        start = self.offset + len(self.indent)
        self.lines.append(self.indent + text)
        self.offset += len(self.lines[-1]) + 1
        return start

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}_{self.counter}"

    def open(self, header: str, is_loop: bool) -> None:
        self.emit(header)
        self.loops.append(is_loop)
        self.scopes.append({})

    def close(self) -> None:
        """Leave the innermost block; the caller writes its closing line."""
        self.loops.pop()
        self.retired.extend(self.scopes.pop())

    # -- ground truth -----------------------------------------------------------

    def declare(self, name: str, impl: str) -> None:
        prefix, suffix = self.syntax.decl(name)
        start = self.emit(prefix + impl + suffix) + len(prefix)
        line = len(self.lines)
        column = len(self.indent) + len(prefix) + 1
        site = ExpectedSite(f"{self.path}:{line}:{column}", self.path, line,
                            column, impl, IMPL_KIND[impl],
                            (start, start + len(impl)))
        self.scopes[-1][name] = site
        self.sites.append(site)

    def lookup(self, name: str) -> ExpectedSite | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def call(self, name: str, method: str, arg: str) -> str:
        """Call text; counted at the current depth when it binds and maps."""
        site = self.lookup(name)
        op = self.methods[site.kind].get(method) if site else None
        if op is not None:
            depth = self.depth
            site.raw_counts[op] = site.raw_counts.get(op, 0) + 1
            site.weighted_counts[op] = (site.weighted_counts.get(op, 0.0)
                                        + self.loop_weight ** depth)
            site.max_loop_depth = max(site.max_loop_depth, depth)
        return f"{name}.{method}({arg})"

    # -- statements -------------------------------------------------------------

    def visible(self) -> list[str]:
        names = [n for scope in self.scopes[1:] for n in scope]
        if not names or self.rng.random() < 0.2:
            names = names + list(self.scopes[0])
        return names

    def mapped_call(self, arg: str = "a") -> str:
        name = self.rng.choice(self.visible())
        method = self.rng.choice(list(self.methods[self.lookup(name).kind]))
        return self.call(name, method, arg)

    def decoy_text(self) -> str:
        rng = self.rng
        call = f"{rng.choice(_STEMS)}_{rng.randint(1, 99)}.{rng.choice(('push', 'add', 'get'))}(x)"
        decl = self.syntax.decl(rng.choice(_STEMS))[0] + rng.choice(list(IMPL_KIND)) + "()"
        parts = [call, rng.choice(_DECOY_WORDS), decl]
        rng.shuffle(parts)
        return " ".join(parts)

    def statement(self) -> None:
        rng, syn = self.rng, self.syntax
        roll = rng.random()
        if roll < 0.55:
            self.emit(syn.stmt(self.mapped_call(rng.choice(("a", "b", "1")))))
        elif roll < 0.63:
            inner = self.mapped_call()
            self.emit(syn.stmt(self.mapped_call(inner)))
        elif roll < 0.70:
            self.emit(syn.line_comment + self.decoy_text())
        elif roll < 0.75:
            open_, close = syn.block_comment
            self.emit(open_ + self.decoy_text())
            self.emit(self.decoy_text() + close)
        elif roll < 0.82:
            quote = rng.choice(syn.quotes)
            body = self.decoy_text().replace(quote, "")
            if rng.random() < 0.5:
                body = f"\\{quote}{body}\\{quote}"
            self.emit(syn.stmt(f"log({quote}{body}{quote})"))
        elif roll < 0.86:
            self.emit(syn.stmt(self.call(self.fresh("ghost"), "push", "a")))
        elif roll < 0.92:
            name = rng.choice(self.visible())
            self.emit(syn.stmt(self.call(name, rng.choice(_UNMAPPED), "a")))
        elif roll < 0.96 and self.retired:
            # a name whose block has closed is out of scope here
            name = rng.choice(self.retired)
            if self.lookup(name) is None:
                self.emit(syn.stmt(self.call(name, "get", "a")))
        else:
            self.emit(syn.stmt("tick(a)"))

    def nested(self, loops_left: int, sites_left: int) -> int:
        """One nested block; returns the number of sites it declared."""
        rng, syn = self.rng, self.syntax
        declared = 0
        if loops_left and rng.random() < 0.7:
            kind = rng.choice(syn.loop_kinds())
            headed = kind in ("for", "while") and rng.random() < 0.4
            header = self.mapped_call() if headed else None
            self.open(syn.loop(kind, self.fresh("item"), header), is_loop=True)
            loops_left -= 1
        else:
            kind = "if"
            self.open(syn.if_(self.mapped_call() if rng.random() < 0.5 else "ready(a)"),
                      is_loop=False)
            if sites_left and rng.random() < 0.3:
                # shadow a visible name at the top of the nested block
                self.declare(rng.choice(self.visible()), rng.choice(list(IMPL_KIND)))
                declared = 1
        for _ in range(rng.randint(1, 3)):
            self.statement()
        if rng.random() < 0.35:
            declared += self.nested(loops_left, sites_left - declared)
        self.close()
        if kind == "do":
            # the trailer's call sits after the closing brace, outside the loop
            cond = self.mapped_call() if rng.random() < 0.5 else "pending()"
            self.emit(f"}} while ({cond});")
        else:
            self.emit("}")
        return declared

    def function(self, sites: int) -> None:
        self.open(self.syntax.function(self.fresh("step")), is_loop=False)
        declared = 0
        while declared < sites:
            self.declare(self.fresh(self.rng.choice(_STEMS)), self.rng.choice(list(IMPL_KIND)))
            declared += 1
            for _ in range(self.rng.randint(1, 3)):
                self.statement()
            if self.rng.random() < 0.6:
                declared += self.nested(2, sites - declared)
        self.close()
        self.emit("}")


def generate_file(lang: str, path: str, n_sites: int, seed: int,
                  loop_weight: float) -> SourceFile:
    """One source file with n_sites (at least one) construction sites."""
    w = _Writer(SYNTAX[lang], random.Random(seed), path, loop_weight)
    w.emit(w.syntax.line_comment + f"generated corpus file, seed {seed}")
    for _ in range(max(1, n_sites // 40)):
        w.declare(w.fresh(w.rng.choice(_STEMS)), w.rng.choice(list(IMPL_KIND)))
    while len(w.sites) < n_sites:
        w.function(min(w.rng.randint(2, 5), n_sites - len(w.sites)))
    return SourceFile(path, "\n".join(w.lines) + "\n", w.sites)

r"""Target functions: parsed expressions, builtins, samples, and term series.

The expression language is deliberately small:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' factor)?
    base   := number | 'x' | 'pi' | func '(' expr ')' | '(' expr ')'
    func   := sin | cos | exp | log | sqrt | abs

'^' is right-associative and binds tighter than unary minus, so -x^2 means
-(x^2) while 2^-3 still parses. Syntax errors carry the character offset and
the token set that would have been accepted there. Differentiation is
symbolic on the parse tree; derivative trees may contain internal sign()
nodes (from abs) that the surface grammar does not accept.

Targets of all kinds evaluate on scalars or numpy arrays.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass

import numpy as np

from . import basis
from .errors import (CapabilityError, ConfigurationError, DomainError,
                     EvaluationError, ExpressionSyntaxError, SampleFormatError)

FUNCS = ("sin", "cos", "exp", "log", "sqrt", "abs")

EXPRESSION = "expression"
BUILTIN = "builtin"
PIECEWISE_LINEAR = "piecewise_linear"
SERIES = "series"


# ----------------------------------------------------------------------------
# tokenizer and recursive-descent parser
# ----------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Parser:
    def __init__(self, text: str):
        self.text = text.replace("−", "-")
        self.pos = 0

    def error(self, message: str, expected: tuple[str, ...]):
        raise ExpressionSyntaxError(message, self.pos, expected)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def accept(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.accept(ch):
            self.error(f"expected {ch!r}", (ch,))

    def parse(self) -> tuple:
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected input {self.text[self.pos]!r}",
                       ("+", "-", "*", "/", "^", "end of input"))
        return node

    def expr(self) -> tuple:
        node = self.term()
        while True:
            if self.accept("+"):
                node = ("+", node, self.term())
            elif self.accept("-"):
                node = ("-", node, self.term())
            else:
                return node

    def term(self) -> tuple:
        node = self.factor()
        while True:
            if self.accept("*"):
                node = ("*", node, self.factor())
            elif self.accept("/"):
                node = ("/", node, self.factor())
            else:
                return node

    def factor(self) -> tuple:
        if self.accept("-"):
            return ("neg", self.factor())
        node = self.base()
        if self.accept("^"):
            return ("^", node, self.factor())
        return node

    def base(self) -> tuple:
        self.skip_ws()
        if self.pos >= len(self.text):
            self.error("unexpected end of input",
                       ("number", "x", "pi", "function", "("))
        ch = self.text[self.pos]
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        m = _NUMBER_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return ("num", float(m.group()))
        m = _IDENT_RE.match(self.text, self.pos)
        if m:
            name = m.group()
            if name == "x":
                self.pos = m.end()
                return ("x",)
            if name == "pi":
                self.pos = m.end()
                return ("pi",)
            if name in FUNCS:
                self.pos = m.end()
                self.expect("(")
                node = self.expr()
                self.expect(")")
                return ("call", name, node)
            self.error(f"unknown identifier {name!r}", FUNCS + ("pi", "x"))
        self.error(f"unexpected character {ch!r}",
                   ("number", "x", "pi", "function", "("))


def parse_expression(text: str) -> tuple:
    """Parse the expression grammar; raises with a character offset on failure."""
    if not text.strip():
        raise ExpressionSyntaxError("empty expression", 0,
                                    ("number", "x", "pi", "function", "("))
    return _Parser(text).parse()


# ----------------------------------------------------------------------------
# evaluation and symbolic differentiation
# ----------------------------------------------------------------------------

def evaluate_ast(node: tuple, x: np.ndarray) -> np.ndarray:
    op = node[0]
    if op == "num":
        return np.full_like(x, node[1])
    if op == "x":
        return x.copy()
    if op == "pi":
        return np.full_like(x, np.pi)
    if op == "neg":
        return -evaluate_ast(node[1], x)
    if op in ("+", "-", "*", "/", "^"):
        a = evaluate_ast(node[1], x)
        b = evaluate_ast(node[2], x)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            bad = b == 0.0
            if np.any(bad):
                raise EvaluationError(f"division by zero at x = {x[bad][0]}",
                                      float(x[bad][0]))
            return a / b
        with np.errstate(all="ignore"):
            v = a ** b
        bad = ~np.isfinite(v)
        if np.any(bad):
            raise EvaluationError(f"non-finite power at x = {x[bad][0]}",
                                  float(x[bad][0]))
        return v
    name, arg = node[1], node[2]
    a = evaluate_ast(arg, x)
    if name == "sin":
        return np.sin(a)
    if name == "cos":
        return np.cos(a)
    if name == "exp":
        return np.exp(a)
    if name == "log":
        bad = a <= 0.0
        if np.any(bad):
            raise EvaluationError(f"log of non-positive value at x = {x[bad][0]}",
                                  float(x[bad][0]))
        return np.log(a)
    if name == "sqrt":
        bad = a < 0.0
        if np.any(bad):
            raise EvaluationError(f"sqrt of negative value at x = {x[bad][0]}",
                                  float(x[bad][0]))
        return np.sqrt(a)
    if name == "abs":
        return np.abs(a)
    if name == "sign":
        return np.sign(a)
    raise EvaluationError(f"unknown function {name!r}")


def differentiate_ast(node: tuple) -> tuple:
    op = node[0]
    if op in ("num", "pi"):
        return ("num", 0.0)
    if op == "x":
        return ("num", 1.0)
    if op == "neg":
        return ("neg", differentiate_ast(node[1]))
    if op in ("+", "-"):
        return (op, differentiate_ast(node[1]), differentiate_ast(node[2]))
    if op == "*":
        a, b = node[1], node[2]
        return ("+", ("*", differentiate_ast(a), b), ("*", a, differentiate_ast(b)))
    if op == "/":
        a, b = node[1], node[2]
        num = ("-", ("*", differentiate_ast(a), b), ("*", a, differentiate_ast(b)))
        return ("/", num, ("^", b, ("num", 2.0)))
    if op == "^":
        a, b = node[1], node[2]
        if b[0] == "num":
            n = b[1]
            return ("*", ("*", ("num", n), ("^", a, ("num", n - 1.0))),
                    differentiate_ast(a))
        if a[0] == "num":
            return ("*", ("*", node, ("num", math.log(a[1]))), differentiate_ast(b))
        # general case: a^b * (b' log a + b a'/a)
        return ("*", node,
                ("+", ("*", differentiate_ast(b), ("call", "log", a)),
                 ("/", ("*", b, differentiate_ast(a)), a)))
    name, arg = node[1], node[2]
    da = differentiate_ast(arg)
    if name == "sin":
        return ("*", ("call", "cos", arg), da)
    if name == "cos":
        return ("neg", ("*", ("call", "sin", arg), da))
    if name == "exp":
        return ("*", node, da)
    if name == "log":
        return ("/", da, arg)
    if name == "sqrt":
        return ("/", da, ("*", ("num", 2.0), node))
    if name == "abs":
        return ("*", ("call", "sign", arg), da)
    raise CapabilityError(f"no derivative rule for {name!r}")


def format_ast(node: tuple) -> str:
    """Conservatively parenthesized text that reparses to the same tree."""
    op = node[0]
    if op == "num":
        return repr(node[1])
    if op == "x":
        return "x"
    if op == "pi":
        return "pi"
    if op == "neg":
        return f"(-{format_ast(node[1])})"
    if op == "call":
        return f"{node[1]}({format_ast(node[2])})"
    return f"({format_ast(node[1])}{op}{format_ast(node[2])})"


# ----------------------------------------------------------------------------
# target functions
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetFunction:
    """A function on an interval, from one of four sources.

    descriptor is the stable identity recorded in certificates: expression
    text as written, "builtin:NAME", "data:sha256:HEX" for sample files,
    "series:KIND:n=N" for term series.
    """

    kind: str
    domain: tuple[float, float]
    descriptor: str
    ast: tuple | None = None
    deriv_ast: tuple | None = None
    xs: tuple[float, ...] | None = None
    ys: tuple[float, ...] | None = None
    family: basis.BasisFamily | None = None
    terms: tuple[tuple[int, float], ...] | None = None

    # ------------------------------------------------------------------
    def _check_domain(self, x: np.ndarray):
        lo, hi = self.domain
        flat = x.reshape(-1)
        bad = flat[(flat < lo) | (flat > hi)]
        if bad.size:
            raise DomainError(f"x = {bad[0]} outside [{lo}, {hi}]")

    def evaluate(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        self._check_domain(arr)
        if self.kind in (EXPRESSION, BUILTIN):
            v = evaluate_ast(self.ast, arr)
        elif self.kind == PIECEWISE_LINEAR:
            v = np.interp(arr, self.xs, self.ys)
        else:
            v = np.zeros_like(arr)
            for j, a in self.terms:
                v = v + a * self.family.element(j).evaluate(arr)
        return v if np.ndim(x) else float(v[0])

    def evaluate_deriv(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        self._check_domain(arr)
        if self.kind in (EXPRESSION, BUILTIN):
            v = evaluate_ast(self.deriv_ast, arr)
        elif self.kind == PIECEWISE_LINEAR:
            px = np.asarray(self.xs)
            py = np.asarray(self.ys)
            slopes = np.diff(py) / np.diff(px)
            # right-hand convention at sample points; left limit at the end
            idx = np.clip(np.searchsorted(px, arr, side="right") - 1, 0, len(slopes) - 1)
            v = slopes[idx]
        else:
            v = np.zeros_like(arr)
            for j, a in self.terms:
                v = v + a * self.family.element(j).evaluate_deriv(arr)
        return v if np.ndim(x) else float(v[0])

    # ------------------------------------------------------------------
    def panel_edges(self) -> np.ndarray:
        lo, hi = self.domain
        if self.kind == PIECEWISE_LINEAR:
            return np.asarray(self.xs, dtype=float)
        if self.kind == SERIES:
            if not self.terms:
                return np.asarray([lo, hi])
            if self.family.kind == basis.CUBIC_BSPLINE:
                return np.unique(self.family.knots())
            # the finest term grid refines every coarser one
            top = max(j for j, _ in self.terms)
            return self.family.element(top).panel_edges()
        return np.asarray([lo, hi])

    def linear_breakpoints(self) -> np.ndarray | None:
        """Kink locations when this target is piecewise linear, else None.

        Tent series deeper than level 16 would need >131072 breakpoints;
        those fall back to estimated sup norms here (the exact rational
        machinery in the limit module reduces over one period instead).
        """
        if self.kind == PIECEWISE_LINEAR:
            return np.asarray(self.xs, dtype=float)
        if self.kind == SERIES and self.family.kind == basis.TENT:
            top = max(j for j, _ in self.terms) if self.terms else 0
            if top > 16:
                return None
            return np.linspace(0.0, 1.0, 2 ** (top + 1) + 1)
        return None


# ----------------------------------------------------------------------------
# factories
# ----------------------------------------------------------------------------

def from_expression(text: str, domain: tuple[float, float] = (0.0, 1.0)) -> TargetFunction:
    ast = parse_expression(text)
    return TargetFunction(EXPRESSION, (float(domain[0]), float(domain[1])),
                          text, ast=ast, deriv_ast=differentiate_ast(ast))


_BUILTINS = {
    "exp": ("exp(x)", (-1.0, 1.0)),
    "sinpi": ("sin(pi*x)", (0.0, 1.0)),
    "linear": ("x", (0.0, 1.0)),
    "runge": ("1/(1+25*x^2)", (-1.0, 1.0)),
}

_TENT_SERIES_RE = re.compile(r"^tent_series\((\d+)\)$")


def from_builtin(name: str) -> TargetFunction:
    m = _TENT_SERIES_RE.match(name)
    if m:
        return tent_partial_sum(int(m.group(1)))
    if name not in _BUILTINS:
        known = ", ".join(sorted(_BUILTINS) + ["tent_series(n)"])
        raise ConfigurationError(f"unknown builtin {name!r} (known: {known})")
    text, domain = _BUILTINS[name]
    ast = parse_expression(text)
    return TargetFunction(BUILTIN, domain, f"builtin:{name}",
                          ast=ast, deriv_ast=differentiate_ast(ast))


def piecewise_linear(xs, ys, descriptor: str | None = None) -> TargetFunction:
    xt = tuple(float(v) for v in xs)
    yt = tuple(float(v) for v in ys)
    if len(xt) != len(yt) or len(xt) < 2:
        raise ConfigurationError("need at least two samples of equal length")
    if any(b <= a for a, b in zip(xt[:-1], xt[1:])):
        raise ConfigurationError("sample abscissae must be strictly increasing")
    return TargetFunction(PIECEWISE_LINEAR, (xt[0], xt[-1]),
                          descriptor or f"samples:{len(xt)}", xs=xt, ys=yt)


def series(family: basis.BasisFamily, terms, descriptor: str | None = None) -> TargetFunction:
    tt = tuple((int(j), float(a)) for j, a in terms)
    for j, _ in tt:
        family.element(j)  # index validation
    if descriptor is None:
        descriptor = f"series:{family.kind}:n={len(tt)}"
    return TargetFunction(SERIES, family.domain, descriptor, family=family, terms=tt)


def tent_partial_sum(n: int) -> TargetFunction:
    """The dyadic tent sum with coefficients 2^-k, levels 0..n."""
    if n < 0:
        raise ConfigurationError("tent series index must be >= 0")
    fam = basis.tent_family()
    terms = tuple((k, 2.0 ** (-k)) for k in range(n + 1))
    return series(fam, terms, descriptor=f"series:tent:n={n}")


def load_samples(path: str) -> TargetFunction:
    """Read "x y" sample lines; '#' starts a comment; abscissae must increase."""
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    xs, ys = [], []
    for lineno, line in enumerate(raw.decode("utf-8", errors="replace").splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise SampleFormatError(f"expected two columns, got {len(parts)}", lineno)
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise SampleFormatError(f"unparseable number in {body!r}", lineno) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise SampleFormatError("non-finite sample", lineno)
        if xs and x <= xs[-1]:
            raise SampleFormatError(
                f"abscissa {x} does not increase past {xs[-1]}", lineno)
        xs.append(x)
        ys.append(y)
    if len(xs) < 2:
        raise SampleFormatError("need at least two samples", len(xs) + 1)
    return piecewise_linear(xs, ys, descriptor=f"data:sha256:{digest}")


def resolve_spec(spec: str, domain: tuple[float, float] | None = None) -> TargetFunction:
    """CLI-facing target resolution: builtin:NAME, data:PATH, expr:TEXT, or bare text."""
    if spec.startswith("builtin:"):
        return from_builtin(spec[len("builtin:"):])
    if spec.startswith("data:"):
        return load_samples(spec[len("data:"):])
    text = spec[len("expr:"):] if spec.startswith("expr:") else spec
    return from_expression(text, domain or (0.0, 1.0))

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
nodes (from abs) that the surface grammar does not accept. Each node
evaluates as one numpy ufunc from a single op table, after a second table's
check of the operands it refuses (/ by 0, log of <= 0, sqrt of < 0); a
refusal names the first point where it happened.

Every target, whatever its source, is one TargetFunction: a record of
what the function can do, filled in by the factory that made it. Targets
evaluate on scalars or numpy arrays. A term series is basis's: series()
only validates its indices and names it.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import basis
from .errors import (CapabilityError, ConfigurationError, EvaluationError,
                     ExpressionSyntaxError, SampleFormatError)
from .records import MAX_TENT_LEVEL, TENT, over_budget, tent_depth, tent_law

FUNCS = ("sin", "cos", "exp", "log", "sqrt", "abs")


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

# op -> the numpy ufunc that evaluates it; "neg" and the functions take one
# operand, the rest two
_UFUNCS = {"neg": np.negative, "+": np.add, "-": np.subtract, "*": np.multiply,
           "/": np.divide, "^": np.power, "sin": np.sin, "cos": np.cos,
           "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
           "sign": np.sign}

# op -> (the values of its last operand it refuses, what the refusal says)
_REFUSED = {"/": (lambda b: b == 0.0, "division by zero"),
            "log": (lambda a: a <= 0.0, "log of non-positive value"),
            "sqrt": (lambda a: a < 0.0, "sqrt of negative value")}


def _refuse(x: np.ndarray, bad: np.ndarray, what: str) -> None:
    """Raise EvaluationError at the first point of x where bad holds, if any."""
    if np.any(bad):
        raise EvaluationError(f"{what} at x = {x[bad][0]}", float(x[bad][0]))


def evaluate_ast(node: tuple, x: np.ndarray) -> np.ndarray:
    """The tree's values at the points x: each node is one _UFUNCS call on
    its evaluated operands, after _REFUSED's check of the last one, with
    floating-point warnings off. A power refuses a non-finite result; any
    other inf or nan is the caller's to refuse, as a quadrature sum does."""
    op, *operands = node[1:] if node[0] == "call" else node
    if op == "num":
        return np.full_like(x, operands[0])
    if op == "x":
        return x.copy()
    if op == "pi":
        return np.full_like(x, np.pi)
    args = [evaluate_ast(a, x) for a in operands]
    if op in _REFUSED:
        bad, what = _REFUSED[op]
        _refuse(x, bad(args[-1]), what)
    with np.errstate(all="ignore"):
        v = _UFUNCS[op](*args)
    if op == "^":
        _refuse(x, ~np.isfinite(v), "non-finite power")
    return v


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
        if a[0] == "num" and a[1] > 0.0:
            return ("*", ("*", node, ("num", math.log(a[1]))), differentiate_ast(b))
        # general case, a constant base <= 0 too: a^b * (b' log a + b a'/a)
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


# ----------------------------------------------------------------------------
# target functions
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetFunction:
    """A function on an interval, as the record of what it can do.

    value and deriv map a float array inside the domain to values and first
    derivatives (right-hand at kinks); evaluate and evaluate_deriv add the
    domain check and the scalar-in, scalar-out rule. On demand, edges gives
    the panel edges a rule should honor (the endpoints when None) and
    breakpoints the kinks of a piecewise-linear function (None if it is not
    one). Both stay lazy: a tent series of depth n has a top grid of
    2^(n+1) floats, which a limit's deepest members never need.
    family and terms are set for term series only.

    descriptor is the stable identity recorded in certificates: expression
    text as written, "builtin:NAME", "data:sha256:HEX" for sample files,
    "series:KIND:n=N" for term series.
    """

    domain: tuple[float, float]
    descriptor: str
    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    edges: Callable[[], np.ndarray] | None = None
    breakpoints: Callable[[], np.ndarray | None] | None = None
    family: basis.BasisFamily | None = None
    terms: tuple[tuple[int, float], ...] | None = None

    def evaluate(self, x):
        return basis.pointwise(self.domain, self.value, x)

    def evaluate_deriv(self, x):
        return basis.pointwise(self.domain, self.deriv, x)

    def panel_edges(self) -> np.ndarray:
        return self.edges() if self.edges else np.asarray(self.domain)

    def linear_breakpoints(self) -> np.ndarray | None:
        return self.breakpoints() if self.breakpoints else None


# ----------------------------------------------------------------------------
# factories
# ----------------------------------------------------------------------------

def from_expression(text: str, domain: tuple[float, float] = (0.0, 1.0),
                    descriptor: str | None = None) -> TargetFunction:
    ast = parse_expression(text)
    return TargetFunction((float(domain[0]), float(domain[1])), descriptor or text,
                          partial(evaluate_ast, ast),
                          partial(evaluate_ast, differentiate_ast(ast)))


_BUILTINS = {
    "exp": ("exp(x)", (-1.0, 1.0)),
    "sinpi": ("sin(pi*x)", (0.0, 1.0)),
    "linear": ("x", (0.0, 1.0)),
    "runge": ("1/(1+25*x^2)", (-1.0, 1.0)),
}


def from_builtin(name: str) -> TargetFunction:
    n = tent_depth(name, "tent_series(", ")")
    if n is not None:
        if n > MAX_TENT_LEVEL:  # its top element's rule is over budget: build nothing
            raise over_budget(f"{TENT} element {n}")
        return tent_partial_sum(n)
    if name not in _BUILTINS:
        known = ", ".join(sorted(_BUILTINS) + ["tent_series(n)"])
        raise ConfigurationError(f"unknown builtin {name!r} (known: {known})")
    text, domain = _BUILTINS[name]
    return from_expression(text, domain, f"builtin:{name}")


def piecewise_linear(xs, ys, descriptor: str | None = None) -> TargetFunction:
    xt = tuple(float(v) for v in xs)
    yt = tuple(float(v) for v in ys)
    if len(xt) != len(yt) or len(xt) < 2:
        raise ConfigurationError("need at least two samples of equal length")
    if any(b <= a for a, b in zip(xt[:-1], xt[1:])):
        raise ConfigurationError("sample abscissae must be strictly increasing")
    px = np.asarray(xt)
    slopes = np.diff(np.asarray(yt)) / np.diff(px)

    def deriv(x):
        # right-hand convention at sample points; left limit at the end
        return slopes[np.clip(np.searchsorted(px, x, side="right") - 1, 0, len(slopes) - 1)]

    kinks = partial(np.asarray, xt, dtype=float)
    return TargetFunction((xt[0], xt[-1]), descriptor or f"samples:{len(xt)}",
                          lambda x: np.interp(x, xt, yt), deriv, kinks, kinks)


def series(family: basis.BasisFamily, terms, descriptor: str | None = None) -> TargetFunction:
    """sum_j a_j e_j over the family's elements, as basis evaluates it
    (series_sum) and breaks it into panels (series_edges, series_kinks)."""
    tt = tuple((int(j), float(a)) for j, a in terms)
    for j, _ in tt:
        family.check_index(j)
    total = basis.series_sum(family, tt)
    if descriptor is None:
        descriptor = f"series:{family.kind}:n={len(tt)}"
    return TargetFunction(family.domain, descriptor, total, partial(total, deriv=True),
                          partial(basis.series_edges, family, tt),
                          partial(basis.series_kinks, family, tt), family, tt)


def tent_partial_sum(n: int) -> TargetFunction:
    """The dyadic tent sum with coefficients 2^-k, levels 0..n: records.tent_law."""
    descriptor, law = tent_law(n)
    return series(law.family, law.terms, descriptor)


def load_samples(path: str) -> TargetFunction:
    """Read "x y" sample lines; '#' starts a comment; abscissae must increase."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise ConfigurationError(f"cannot read {path}: {e.strerror}") from None
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

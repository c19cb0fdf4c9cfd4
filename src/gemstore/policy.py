"""Declarative event/condition/action policies and their textual form.

Grammar (keywords are upper-case; '#' starts a line comment):

    policy    := "POLICY" name "ON" event "WHEN" cond "DO" action
                 [ "WITH" "evidence" "=" "{" [ident ("," ident)*] "}" ]
    cond      := and_expr ("OR" and_expr)*
    and_expr  := unary ("AND" unary)*
    unary     := "NOT" unary | "(" cond ")" | atom
    atom      := "EXISTS" var
               | "salience" "(" target ")" "<" number
               | "active_footprint" ">" (integer | "beta")
               | "field" "==" name
               | "topic_archived" "(" target ")"
               | "stale_current_exists"
    action    := "flag_for_revision" "(" target ")"
               | "reject_transition" "(" string ")"
               | "attenuate" [ "(" target ")" ]
               | "archive" "(" target ")"
               | "noop"
    target    := a topic id, or a context variable other than updated_field;
                 salience(...) alone may also take updated_field

`beta` defers the footprint bound to the engine configuration so one policy
text covers constant and affine bounds.  Non-pre_commit actions never mutate
state directly; they enqueue work for the operators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Union

CONTEXT_VARIABLES = ("updated_field", "updated_topic", "dependent_topic", "accessed_topic")


class EventKind(str, Enum):
    FIELD_UPDATED = "field_updated"
    TOPIC_CREATED = "topic_created"
    TOPIC_MERGED = "topic_merged"
    RETRIEVAL_PERFORMED = "retrieval_performed"
    TICK = "tick"
    PRE_COMMIT = "pre_commit"


EVENT_KINDS = tuple(kind.value for kind in EventKind)


class PolicyParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class EvaluationError(ValueError):
    """A condition referenced a variable not bound in the event context."""


# ---------------------------------------------------------------------------
# Condition AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exists:
    var: str


@dataclass(frozen=True)
class SalienceLt:
    target: str
    threshold: float


@dataclass(frozen=True)
class FootprintGt:
    bound: Union[int, str]  # integer literal or the symbolic "beta"


@dataclass(frozen=True)
class FieldIs:
    name: str


@dataclass(frozen=True)
class TopicArchived:
    target: str


@dataclass(frozen=True)
class StaleCurrentExists:
    pass


@dataclass(frozen=True)
class Not:
    operand: "ConditionExpr"


@dataclass(frozen=True)
class And:
    left: "ConditionExpr"
    right: "ConditionExpr"


@dataclass(frozen=True)
class Or:
    left: "ConditionExpr"
    right: "ConditionExpr"


ConditionExpr = Union[Exists, SalienceLt, FootprintGt, FieldIs, TopicArchived, StaleCurrentExists, Not, And, Or]

ACTION_KINDS = ("flag_for_revision", "reject_transition", "attenuate", "archive", "noop")


@dataclass(frozen=True)
class ActionSpec:
    kind: str
    target: Optional[str] = None
    message: Optional[str] = None


@dataclass(frozen=True)
class Policy:
    name: str
    on_event: EventKind
    condition: ConditionExpr
    action: ActionSpec
    evidence: tuple[str, ...] = ()

    @cached_property
    def canonical_bytes(self) -> bytes:
        """The policy's entry in the digest's policy section."""
        from .model import canonical_json

        return canonical_json(render_policy(self)).encode()


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT, NUMBER, STRING, PUNCT, EOF
    value: str
    line: int
    col: int


_TOKEN_SPEC = re.compile(
    r"""
    (?P<comment>\#[^\n]*)
  | (?P<string>"[^"\n]*")
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_-]*)
  | (?P<punct>==|[(){}=,<>])
  | (?P<ws>[ \t\r]+)
  | (?P<nl>\n)
""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_SPEC.match(text, pos)
        if m is None:
            raise PolicyParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        value = m.group()
        col = pos - line_start + 1
        if kind == "nl":
            line += 1
            line_start = m.end()
        elif kind == "string":
            tokens.append(_Token("STRING", value[1:-1], line, col))
        elif kind == "number":
            tokens.append(_Token("NUMBER", value, line, col))
        elif kind == "ident":
            tokens.append(_Token("IDENT", value, line, col))
        elif kind == "punct":
            tokens.append(_Token("PUNCT", value, line, col))
        pos = m.end()
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> "PolicyParseError":
        tok = self.peek()
        shown = tok.value if tok.kind != "EOF" else "end of input"
        return PolicyParseError(f"{message}, got {shown!r}", tok.line, tok.col)

    def expect_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.value != word:
            raise self.fail(f"expected {word}")
        return self.advance()

    def expect_punct(self, value: str) -> _Token:
        tok = self.peek()
        if tok.kind != "PUNCT" or tok.value != value:
            raise self.fail(f"expected {value!r}")
        return self.advance()

    def expect_ident(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise self.fail(f"expected {what}")
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.value == word

    def target_in_parens(self, field_ok: bool = False) -> str:
        """A parenthesised target; only `salience(...)` may name
        `updated_field`, as every other target names a topic."""
        self.expect_punct("(")
        tok = self.expect_ident("target")
        if tok.value == "updated_field" and not field_ok:
            raise PolicyParseError("updated_field names a field, not a topic", tok.line, tok.col)
        self.expect_punct(")")
        return tok.value

    # -- grammar ----------------------------------------------------------

    def parse_policies(self) -> list[Policy]:
        policies = []
        while self.at_keyword("POLICY"):
            policies.append(self.parse_policy())
        if self.peek().kind != "EOF":
            raise self.fail("expected POLICY")
        return policies

    def parse_policy(self) -> Policy:
        self.expect_keyword("POLICY")
        name = self.expect_ident("policy name").value
        self.expect_keyword("ON")
        ev_tok = self.expect_ident("event name")
        if ev_tok.value not in EVENT_KINDS:
            raise PolicyParseError(f"unknown event {ev_tok.value!r}", ev_tok.line, ev_tok.col)
        self.expect_keyword("WHEN")
        cond = self.parse_condition()
        self.expect_keyword("DO")
        action = self.parse_action()
        evidence: tuple[str, ...] = ()
        if self.at_keyword("WITH"):
            self.advance()
            self.expect_keyword("evidence")
            self.expect_punct("=")
            self.expect_punct("{")
            items = []
            if not (self.peek().kind == "PUNCT" and self.peek().value == "}"):
                items.append(self.expect_ident("evidence field").value)
                while self.peek().kind == "PUNCT" and self.peek().value == ",":
                    self.advance()
                    items.append(self.expect_ident("evidence field").value)
            self.expect_punct("}")
            evidence = tuple(items)
        return Policy(name, EventKind(ev_tok.value), cond, action, evidence)

    def parse_condition(self) -> ConditionExpr:
        expr = self.parse_and()
        while self.at_keyword("OR"):
            self.advance()
            expr = Or(expr, self.parse_and())
        return expr

    def parse_and(self) -> ConditionExpr:
        expr = self.parse_unary()
        while self.at_keyword("AND"):
            self.advance()
            expr = And(expr, self.parse_unary())
        return expr

    def parse_unary(self) -> ConditionExpr:
        if self.at_keyword("NOT"):
            self.advance()
            return Not(self.parse_unary())
        if self.peek().kind == "PUNCT" and self.peek().value == "(":
            self.advance()
            expr = self.parse_condition()
            self.expect_punct(")")
            return expr
        return self.parse_atom()

    def parse_atom(self) -> ConditionExpr:
        if self.at_keyword("EXISTS"):
            self.advance()
            var_tok = self.expect_ident("variable")
            if var_tok.value not in CONTEXT_VARIABLES:
                raise PolicyParseError(f"unknown variable {var_tok.value!r}", var_tok.line, var_tok.col)
            return Exists(var_tok.value)
        if self.at_keyword("salience"):
            self.advance()
            target = self.target_in_parens(field_ok=True)
            self.expect_punct("<")
            num = self.peek()
            if num.kind != "NUMBER":
                raise self.fail("expected number")
            self.advance()
            return SalienceLt(target, float(num.value))
        if self.at_keyword("active_footprint"):
            self.advance()
            self.expect_punct(">")
            tok = self.peek()
            if tok.kind == "NUMBER" and "." not in tok.value:
                self.advance()
                return FootprintGt(int(tok.value))
            if tok.kind == "IDENT" and tok.value == "beta":
                self.advance()
                return FootprintGt("beta")
            raise self.fail("expected integer or beta")
        if self.at_keyword("field"):
            self.advance()
            self.expect_punct("==")
            name = self.expect_ident("field name").value
            return FieldIs(name)
        if self.at_keyword("topic_archived"):
            self.advance()
            return TopicArchived(self.target_in_parens())
        if self.at_keyword("stale_current_exists"):
            self.advance()
            return StaleCurrentExists()
        raise self.fail("expected condition atom")

    def parse_action(self) -> ActionSpec:
        tok = self.expect_ident("action name")
        if tok.value not in ACTION_KINDS:
            raise PolicyParseError(f"unknown action {tok.value!r}", tok.line, tok.col)
        kind = tok.value
        if kind == "noop":
            return ActionSpec("noop")
        if kind == "reject_transition":
            self.expect_punct("(")
            msg = self.peek()
            if msg.kind != "STRING":
                raise self.fail("expected string message")
            self.advance()
            self.expect_punct(")")
            return ActionSpec(kind, message=msg.value)
        # attenuate takes an optional target, flag_for_revision and archive one
        if kind != "attenuate" or self.peek().kind == "PUNCT" and self.peek().value == "(":
            return ActionSpec(kind, target=self.target_in_parens())
        return ActionSpec(kind)


def parse_policy(text: str) -> Policy:
    parser = _Parser(text)
    policy = parser.parse_policy()
    if parser.peek().kind != "EOF":
        raise parser.fail("expected end of input")
    return policy


def parse_policies(text: str) -> list[Policy]:
    return _Parser(text).parse_policies()


# ---------------------------------------------------------------------------
# Rendering (canonical form; parse(render(p)) == p)
# ---------------------------------------------------------------------------


def _render_atom(expr: ConditionExpr) -> str:
    if isinstance(expr, Exists):
        return f"EXISTS {expr.var}"
    if isinstance(expr, SalienceLt):
        return f"salience({expr.target}) < {expr.threshold!r}"
    if isinstance(expr, FootprintGt):
        return f"active_footprint > {expr.bound}"
    if isinstance(expr, FieldIs):
        return f"field == {expr.name}"
    if isinstance(expr, TopicArchived):
        return f"topic_archived({expr.target})"
    if isinstance(expr, StaleCurrentExists):
        return "stale_current_exists"
    raise TypeError(f"not an atom: {expr!r}")


def render_condition(expr: ConditionExpr) -> str:
    # parenthesize right-nested operands of equal precedence so the
    # left-associative parser rebuilds the identical tree
    if isinstance(expr, Or):
        right = render_condition(expr.right)
        if isinstance(expr.right, Or):
            right = f"({right})"
        return f"{render_condition(expr.left)} OR {right}"
    if isinstance(expr, And):
        def side(e, is_right):
            text = render_condition(e)
            if isinstance(e, Or) or (is_right and isinstance(e, And)):
                text = f"({text})"
            return text

        return f"{side(expr.left, False)} AND {side(expr.right, True)}"
    if isinstance(expr, Not):
        inner = render_condition(expr.operand)
        if isinstance(expr.operand, (And, Or)):
            inner = f"({inner})"
        return f"NOT {inner}"
    return _render_atom(expr)


def render_action(action: ActionSpec) -> str:
    if action.kind == "noop":
        return "noop"
    if action.kind == "reject_transition":
        return f'reject_transition("{action.message}")'
    if action.target is None:
        return action.kind
    return f"{action.kind}({action.target})"


def render_policy(p: Policy) -> str:
    lines = [
        f"POLICY {p.name}",
        f"  ON   {p.on_event.value}",
        f"  WHEN {render_condition(p.condition)}",
        f"  DO   {render_action(p.action)}",
        "  WITH evidence = {" + ", ".join(p.evidence) + "}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def resolve_target(target: Optional[str], ctx: dict) -> str:
    """The topic id a policy target names: a context variable's binding, or
    a literal topic id."""
    if target is None:
        raise EvaluationError("action requires a target")
    if target in CONTEXT_VARIABLES:
        if target not in ctx:
            raise EvaluationError(f"unbound variable: {target}")
        return ctx[target]
    return target


def evaluate_condition(cond: ConditionExpr, state, ctx: dict) -> bool:
    """Pure predicate over a state snapshot plus an event-binding context.

    `ctx` may bind updated_topic, updated_field, accessed_topic, `beta`
    (the resolved footprint bound for this transition) and `decay` (the
    salience decay factor λ).
    """
    if isinstance(cond, Not):
        return not evaluate_condition(cond.operand, state, ctx)
    if isinstance(cond, And):
        return evaluate_condition(cond.left, state, ctx) and evaluate_condition(cond.right, state, ctx)
    if isinstance(cond, Or):
        return evaluate_condition(cond.left, state, ctx) or evaluate_condition(cond.right, state, ctx)
    if isinstance(cond, Exists):
        if cond.var == "dependent_topic":
            if "updated_topic" not in ctx:
                raise EvaluationError("unbound variable: updated_topic")
            return bool(state.extension_successors(ctx["updated_topic"]))
        return cond.var in ctx
    if isinstance(cond, SalienceLt):
        if "decay" not in ctx:
            raise EvaluationError("unbound variable: decay")
        lam = ctx["decay"]
        if cond.target == "updated_field":
            if "updated_topic" not in ctx or "updated_field" not in ctx:
                raise EvaluationError("unbound variable: updated_field")
            topic = state.topics.get(ctx["updated_topic"])
            f = topic.fields.get(ctx["updated_field"]) if topic else None
            if f is None:
                return False
            return state.salience(topic, f, lam) < cond.threshold
        topic_id = resolve_target(cond.target, ctx)
        topic = state.topics.get(topic_id)
        if topic is None or not topic.fields:
            return False
        # topic-level salience is its most salient field
        return max(state.salience(topic, f, lam) for f in topic.fields.values()) < cond.threshold
    if isinstance(cond, FootprintGt):
        if cond.bound == "beta":
            if "beta" not in ctx:
                raise EvaluationError("unbound variable: beta")
            bound = ctx["beta"]
        else:
            bound = cond.bound
        return state.footprint() > bound
    if isinstance(cond, FieldIs):
        if "updated_field" not in ctx:
            raise EvaluationError("unbound variable: updated_field")
        return ctx["updated_field"] == cond.name
    if isinstance(cond, TopicArchived):
        topic_id = resolve_target(cond.target, ctx)
        topic = state.topics.get(topic_id)
        return topic is not None and topic.archived
    if isinstance(cond, StaleCurrentExists):
        return state.part("counts").stale > 0
    raise TypeError(f"unknown condition node: {cond!r}")


# ---------------------------------------------------------------------------
# Shipped defaults
# ---------------------------------------------------------------------------

DEFAULT_POLICY_TEXT = """\
POLICY propagate-on-change
  ON   field_updated
  WHEN EXISTS dependent_topic
  DO   flag_for_revision(dependent_topic)
  WITH evidence = {updated_field, timestamp}

POLICY reject-stale-current
  ON   pre_commit
  WHEN stale_current_exists
  DO   reject_transition("stale-current-value")
  WITH evidence = {}

POLICY bounded-active-state
  ON   pre_commit
  WHEN active_footprint > beta
  DO   reject_transition("bounded-active-state")
  WITH evidence = {}
"""


def default_policy_set() -> list[Policy]:
    return parse_policies(DEFAULT_POLICY_TEXT)

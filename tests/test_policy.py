import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_state, build_topic
from gemstore.model import MemoryState, canonical_json, state_digest
from gemstore.policy import (
    ActionSpec,
    And,
    EventKind,
    Exists,
    FieldIs,
    FootprintGt,
    Not,
    Or,
    Policy,
    PolicyParseError,
    SalienceLt,
    StaleCurrentExists,
    TopicArchived,
    default_policy_set,
    evaluate_condition,
    parse_policies,
    parse_policy,
    render_policy,
)

PROPAGATE = """\
POLICY propagate-on-change
  ON   field_updated
  WHEN EXISTS dependent_topic
  DO   flag_for_revision(dependent_topic)
  WITH evidence = {updated_field, timestamp}
"""


def test_parse_propagate_policy_structure():
    p = parse_policy(PROPAGATE)
    assert p.name == "propagate-on-change"
    assert p.on_event is EventKind.FIELD_UPDATED
    assert p.condition == Exists("dependent_topic")
    assert p.action == ActionSpec("flag_for_revision", target="dependent_topic")
    assert p.evidence == ("updated_field", "timestamp")


def test_parse_condition_precedence():
    p = parse_policy(
        'POLICY x ON tick WHEN NOT stale_current_exists AND active_footprint > 3 '
        'OR field == Deadline DO noop'
    )
    # NOT binds tighter than AND, AND tighter than OR
    assert p.condition == Or(
        And(Not(StaleCurrentExists()), FootprintGt(3)),
        FieldIs("Deadline"),
    )


def test_parse_parenthesized_condition():
    p = parse_policy(
        "POLICY x ON tick WHEN NOT (salience(updated_topic) < 0.5 OR topic_archived(updated_topic)) DO noop"
    )
    assert p.condition == Not(Or(SalienceLt("updated_topic", 0.5), TopicArchived("updated_topic")))


def test_parse_beta_bound_and_reject_action():
    p = parse_policy('POLICY g ON pre_commit WHEN active_footprint > beta DO reject_transition("too big")')
    assert p.condition == FootprintGt("beta")
    assert p.action == ActionSpec("reject_transition", message="too big")


def test_parse_optional_attenuate_target():
    bare = parse_policy("POLICY a ON tick WHEN active_footprint > 0 DO attenuate")
    assert bare.action == ActionSpec("attenuate")
    targeted = parse_policy("POLICY a ON tick WHEN active_footprint > 0 DO attenuate(updated_topic)")
    assert targeted.action == ActionSpec("attenuate", target="updated_topic")


def test_parse_error_positions():
    with pytest.raises(PolicyParseError) as exc:
        parse_policy("POLICY p ON bogus_event WHEN stale_current_exists DO noop")
    assert exc.value.line == 1
    assert exc.value.col == 13

    with pytest.raises(PolicyParseError) as exc:
        parse_policy("POLICY p\n  ON tick\n  WHEN salience(x) < DO noop")
    assert exc.value.line == 3
    assert "expected number" in str(exc.value)

    with pytest.raises(PolicyParseError) as exc:
        parse_policy("POLICY p ON tick WHEN stale_current_exists DO frobnicate")
    assert "unknown action" in str(exc.value)


@pytest.mark.parametrize(
    "text",
    [
        "WHEN topic_archived(updated_field) DO noop",
        "WHEN stale_current_exists DO flag_for_revision(updated_field)",
        "WHEN stale_current_exists DO attenuate(updated_field)",
        "WHEN stale_current_exists DO archive(updated_field)",
    ],
)
def test_updated_field_is_refused_where_a_topic_is_meant(text):
    with pytest.raises(PolicyParseError, match="updated_field names a field, not a topic"):
        parse_policy("POLICY p ON field_updated " + text)


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("POLICY p ON field_updated WHEN EXISTS updated_topic DO archive", 1, 63),
        ("POLICY p\n  ON tick\n  WHEN stale_current_exists\n  DO archive\n  WITH evidence = {}", 5, 3),
    ],
)
def test_archive_requires_a_target(text, line, col):
    with pytest.raises(PolicyParseError, match="expected '\\('") as exc:
        parse_policy(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_salience_still_takes_updated_field():
    p = parse_policy("POLICY p ON field_updated WHEN salience(updated_field) < 0.5 DO noop")
    assert p.condition == SalienceLt("updated_field", 0.5)


def test_comments_and_multiple_policies():
    text = "# leading comment\n" + PROPAGATE + "\n# between\n" + PROPAGATE.replace("propagate-on-change", "second")
    policies = parse_policies(text)
    assert [p.name for p in policies] == ["propagate-on-change", "second"]


def test_render_parse_round_trip_defaults():
    for p in default_policy_set():
        assert parse_policy(render_policy(p)) == p


# random policy generator for the round-trip property

_target = st.sampled_from(["updated_topic", "accessed_topic", "some-topic"])
_atoms = st.one_of(
    st.sampled_from(["updated_field", "updated_topic", "dependent_topic", "accessed_topic"]).map(Exists),
    st.tuples(_target, st.integers(1, 999).map(lambda n: n / 1000.0)).map(lambda t: SalienceLt(*t)),
    st.one_of(st.integers(0, 500), st.just("beta")).map(FootprintGt),
    st.sampled_from(["Deadline", "Owner", "Status"]).map(FieldIs),
    _target.map(TopicArchived),
    st.just(StaleCurrentExists()),
)
_conditions = st.recursive(
    _atoms,
    lambda children: st.one_of(
        children.map(Not),
        st.tuples(children, children).map(lambda t: And(*t)),
        st.tuples(children, children).map(lambda t: Or(*t)),
    ),
    max_leaves=8,
)
_actions = st.one_of(
    st.just(ActionSpec("noop")),
    st.just(ActionSpec("flag_for_revision", target="dependent_topic")),
    st.sampled_from(["stop", "bound hit", "no"]).map(lambda m: ActionSpec("reject_transition", message=m)),
    st.one_of(st.none(), _target).map(lambda t: ActionSpec("attenuate", target=t)),
    _target.map(lambda t: ActionSpec("archive", target=t)),
)
_policies = st.builds(
    Policy,
    name=st.sampled_from(["p1", "keep-fresh", "guard_x"]),
    on_event=st.sampled_from(list(EventKind)),
    condition=_conditions,
    action=_actions,
    evidence=st.lists(st.sampled_from(["updated_field", "timestamp", "cause"]), max_size=3, unique=True).map(tuple),
)


@settings(max_examples=300)
@given(policy=_policies)
def test_render_parse_round_trip_random(policy):
    assert parse_policy(render_policy(policy)) == policy


# -- the digest's policy section ----------------------------------------------


def _restated_digest(state: MemoryState) -> str:
    """`state_digest` restated from the state alone, the policy section
    rendered afresh as one JSON list of the policies' texts."""
    edges = sorted(canonical_json(e.to_dict()).encode() for e in state.edges.values())
    h = hashlib.sha256()
    h.update(canonical_json([state.clock, state.epoch]).encode())
    h.update(canonical_json([render_policy(p) for p in state.policies]).encode())
    h.update(b"[" + b",".join(edges) + b"]")
    h.update(canonical_json(sorted(list(pair) for pair in state.revision_queue)).encode())
    h.update(b"%d:" % len(state.topics))
    h.update(b"".join(hashlib.sha256(canonical_json(state.topics[tid].to_dict()).encode()).digest()
                      for tid in sorted(state.topics)))
    return h.hexdigest()


def _digest_state(policies) -> MemoryState:
    topics = [build_topic("b", fields={"A": "1"}), build_topic("a", fields={"B": "2"})]
    return build_state(topics, edges=[("a", "b", "Extension")], policies=policies)


@settings(max_examples=100, derandomize=True, database=None)
@given(policies=st.lists(_policies, max_size=6))
def test_the_digest_hashes_each_policy_as_its_rendered_text(policies):
    state = _digest_state(policies)
    assert state_digest(state) == _restated_digest(state)
    # the memo of each policy gives the same digest on a second read
    assert state_digest(state) == _restated_digest(state)


def test_the_digest_follows_a_replaced_or_popped_policy_list():
    state = _digest_state(default_policy_set())
    digests = [state_digest(state)]
    state.policies = default_policy_set()[:1]  # a new list of other objects
    digests.append(state_digest(state))
    assert digests[-1] == _restated_digest(state)
    state.policies = default_policy_set()
    assert state_digest(state) == digests[0]
    state.policies.pop()  # the same list, one policy shorter
    digests.append(state_digest(state))
    assert digests[-1] == _restated_digest(state)
    state.policies[0] = parse_policy(PROPAGATE)  # an equal policy, another object
    assert state_digest(state) == digests[-1]
    state.policies[1] = parse_policy("POLICY other ON tick WHEN stale_current_exists DO noop")
    digests.append(state_digest(state))
    assert digests[-1] == _restated_digest(state)
    state.policies.clear()
    digests.append(state_digest(state))
    assert digests[-1] == _restated_digest(state)
    assert len(set(digests)) == len(digests)


def test_evaluate_exists_and_field_atoms():
    state = MemoryState()
    ctx = {"updated_topic": "a", "updated_field": "Deadline"}
    assert evaluate_condition(Exists("updated_field"), state, ctx)
    assert not evaluate_condition(Exists("accessed_topic"), state, ctx)
    assert evaluate_condition(FieldIs("Deadline"), state, ctx)
    assert not evaluate_condition(FieldIs("Owner"), state, ctx)


def test_evaluate_footprint_beta_requires_binding():
    from gemstore.policy import EvaluationError

    state = MemoryState()
    with pytest.raises(EvaluationError):
        evaluate_condition(FootprintGt("beta"), state, {})
    assert not evaluate_condition(FootprintGt("beta"), state, {"beta": 0})

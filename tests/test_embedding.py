import pytest

from gemstore.embedding import (
    DIM,
    RoutingError,
    cosine,
    embed,
    select_host,
    tokenize,
)
from gemstore.model import MemoryState, fresh_embedding_for, Topic


def make_state(*topics):
    state = MemoryState()
    for tid, text in topics:
        topic = Topic(id=tid, title=text, summary=text, embedding=None)
        topic.embedding = fresh_embedding_for(topic)
        state.topics[tid] = topic
    return state


def test_tokenize_lowercases_and_splits():
    assert tokenize("Deadline: March-15, OK?") == ["deadline", "march", "15", "ok"]
    assert tokenize("") == []


def test_embedding_is_deterministic_and_fixed_width():
    a = embed("website redesign deadline")
    b = embed("website redesign deadline")
    assert a.components.tolist() == b.components.tolist()
    assert a.norm == b.norm
    assert len(a.components) == DIM


def test_cosine_bounds_and_zero_vector():
    a = embed("alpha beta gamma")
    assert cosine(a, a) == pytest.approx(1.0)
    assert -1.0 <= cosine(a, embed("totally unrelated words here")) <= 1.0
    assert cosine(a, embed("")) == 0.0


def test_word_overlap_beats_disjoint_text():
    q = embed("website redesign deadline")
    near = embed("deadline for the website redesign project")
    far = embed("favorite lunch options nearby")
    assert cosine(q, near) > 0.7
    assert cosine(q, near) > cosine(q, far)


def test_select_host_hint_wins_over_similarity():
    state = make_state(("web", "website redesign deadline"), ("lunch", "lunch preferences"))
    choice = select_host(state, "website redesign deadline", "lunch", 0.35)
    assert choice.topic_id == "lunch"


def test_select_host_unknown_hint_requests_creation():
    state = make_state(("web", "website redesign deadline"))
    choice = select_host(state, "anything", "brand-new", 0.35)
    assert choice.topic_id is None


def test_select_host_archived_hint_follows_merge_marker():
    state = make_state(("a", "first"), ("b", "second"))
    state.topics["b"].archived = True
    state.topics["b"].merged_into = "a"
    assert select_host(state, "x", "b", 0.35).topic_id == "a"

    state.topics["b"].merged_into = None
    with pytest.raises(RoutingError):
        select_host(state, "x", "b", 0.35)


def test_select_host_unhinted_threshold_and_tie_break():
    state = make_state(("web", "website redesign deadline"))
    assert select_host(state, "website redesign deadline", None, 0.35).topic_id == "web"
    assert select_host(state, "entirely different subject matter", None, 0.35).topic_id is None

    tied = make_state(("aaa", "same words here"), ("bbb", "same words here"))
    choice = select_host(tied, "same words here", None, 0.35)
    assert choice.topic_id == "aaa"


def test_select_host_skips_archived_topics_without_hint():
    state = make_state(("web", "website redesign deadline"))
    state.topics["web"].archived = True
    assert select_host(state, "website redesign deadline", None, 0.35).topic_id is None

from gemstore.config import EngineConfig
from gemstore.embedding import embed
from gemstore.model import (
    Edge,
    EdgeKind,
    Field,
    MemoryState,
    Provenance,
    Topic,
    ValueEntry,
)
from gemstore.policy import default_policy_set


def build_topic(tid, title=None, fields=None, tick=1):
    """Topic with one history entry per field value."""
    title = title or tid.replace("-", " ")
    topic = Topic(id=tid, title=title, summary=title)
    for name, value in (fields or {}).items():
        f = Field(name=name, last_access=tick)
        f.history.append(ValueEntry(value, tick, (Provenance("seed", tick),)))
        topic.fields[name] = f
    topic.embedding = embed(topic.content_text())
    return topic


def build_state(topics=(), edges=(), policies=None, tick=0):
    state = MemoryState(policies=default_policy_set() if policies is None else policies)
    for topic in topics:
        state.topics[topic.id] = topic
    for src, dst, kind in edges:
        e = Edge(src, dst, EdgeKind(kind), 0)
        state.edges[e.key()] = e
    state.clock = tick
    return state


def small_config(**overrides):
    cfg = EngineConfig(**overrides)
    cfg.validate()
    return cfg

"""Model-based test of the engine (Claessen & Hughes, QuickCheck, 2000): a
Hypothesis state machine drives an `Engine` from a small random genesis,
with overlapping titles, entity tags on some fields, and Extension and
Association edges, cycles included, through hinted, unhinted and
archived-hint ingests of facts that may carry a tag, all four read modes,
ticks, auto-detect revises (which merge duplicates and promote tags) and
explicit merge revises, and forgets.

After every step every derived part equals a fresh build and a full scan
(`assert_aggregates_exact`), and once a record has committed the footprint
is within beta.  At the end the journal, written and read back, replays to
the engine's digest.  The audit is not run: an unhinted ingest, then a
revise, then a read reports the known C3 false positive (ROADMAP item 1).
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from conftest import build_state, build_topic
from gemstore.config import BetaSpec, EngineConfig
from gemstore.engine import Engine, EngineEvent, replay
from gemstore.model import EdgeKind, state_digest
from gemstore.operators import EvidenceItem, Fact, FactBundle, Query, RuleTable
from gemstore.storage import read_journal, write_journal
from test_aggregates import assert_aggregates_exact

WORDS = ("plan", "review", "launch", "notes", "budget")
FIELDS = ("Deadline", "Owner", "Status")
VALUES = ("March", "April", "dana", "done", "1")
TAGS = ("staff", "budget-review")

_tags = st.one_of(st.none(), st.sampled_from(TAGS))

_titles = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)
_fields = st.lists(st.sampled_from(FIELDS), min_size=1, max_size=3, unique=True)


@st.composite
def _geneses(draw):
    """Topics t0.. with overlapping titles, some of them archived, some
    fields tagged; edges of both kinds between any two of them; a
    `shift-annotation` rule from a field of the source to a field of the
    destination of each Extension edge; beta; and the promotion thresholds,
    the defaults or ones that a topic's first tagged entry meets."""
    n = draw(st.integers(1, 5))
    topics = []
    for i in range(n):
        names = draw(_fields)
        topic = build_topic(f"t{i}", title=draw(_titles), fields={f: draw(st.sampled_from(VALUES)) for f in names},
                            tick=0)
        for f in topic.fields.values():
            f.entity_tag = draw(_tags)
        if i and draw(st.integers(0, 4)) == 0:
            topic.archived, topic.archived_at = True, 0
        topics.append(topic)
    kinds = st.sampled_from([EdgeKind.EXTENSION.value, EdgeKind.ASSOCIATION.value])
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), kinds).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, min_size=1, max_size=6, unique=True)) if n > 1 else []
    edges = [(f"t{a}", f"t{b}", kind) for a, b, kind in edges]
    rules = []
    for src, dst, kind in edges:
        if kind == EdgeKind.EXTENSION.value:
            cause = draw(st.sampled_from(sorted(topics[int(src[1:])].fields)))
            dependent = draw(st.sampled_from(sorted(topics[int(dst[1:])].fields)))
            rules.append(f"{src}.{cause} -> {dst}.{dependent} : shift-annotation")
    config = EngineConfig(beta=BetaSpec(base=draw(st.sampled_from([3, 12, 200]))))
    if draw(st.booleans()):
        config = replace(config, m_promote=1, n_promote=1)
    return build_state(topics, edges=edges), RuleTable.parse("\n".join(rules)), config


class EngineMachine(RuleBasedStateMachine):
    engine = None

    @initialize(genesis=_geneses())
    def start(self, genesis):
        state, rules, config = genesis
        self.engine = Engine(config=config, genesis=state, rules=rules)

    def _topic(self, data, archived=None):
        """A topic id of the store, archived or live as `archived` asks, or
        None when the store holds none such."""
        ids = sorted(tid for tid, t in self.engine.state.topics.items() if archived in (None, t.archived))
        return data.draw(st.sampled_from(ids)) if ids else None

    def _bundle(self, data, hint):
        names = data.draw(_fields)
        facts = tuple(Fact(name, data.draw(st.sampled_from(VALUES)), data.draw(_tags)) for name in names)
        return FactBundle(facts, f"{data.draw(_titles)} {' '.join(names)}", topic_hint=hint)

    @rule(data=st.data())
    def hinted_ingest(self, data):
        hint = data.draw(st.one_of(st.just(self._topic(data, archived=False)), st.sampled_from(["fresh", "t9"])))
        self.engine.submit(EngineEvent.ingest(self._bundle(data, hint)))

    @rule(data=st.data())
    def unhinted_ingest(self, data):
        self.engine.submit(EngineEvent.ingest(self._bundle(data, None)))

    @rule(data=st.data())
    def archived_hint_ingest(self, data):
        hint = self._topic(data, archived=True)
        if hint is not None:
            self.engine.submit(EngineEvent.ingest(self._bundle(data, hint)))

    @rule(text=_titles)
    def default_read(self, text):
        self.engine.submit(EngineEvent.retrieve(Query(text=text)))

    @rule(text=_titles, data=st.data())
    def historical_read(self, text, data):
        as_of = data.draw(st.one_of(st.none(), st.integers(0, self.engine.state.clock)))
        self.engine.submit(EngineEvent.retrieve(Query(text=text, mode="historical", as_of=as_of)))

    @rule(data=st.data(), name=st.sampled_from(FIELDS))
    def explicit_read(self, data, name):
        self.engine.submit(EngineEvent.retrieve(Query(mode="explicit", explicit=(self._topic(data), name))))

    @rule(data=st.data(), depth=st.integers(1, 2))
    def structural_read(self, data, depth):
        self.engine.submit(EngineEvent.retrieve(Query(mode="structural", root=self._topic(data), depth=depth)))

    @rule()
    def tick(self):
        self.engine.submit(EngineEvent.tick())

    @rule()
    def auto_revise(self):
        self.engine.submit(EngineEvent.revise())

    @rule(data=st.data())
    def merge(self, data):
        a, b = self._topic(data), self._topic(data)
        if a != b:
            self.engine.submit(EngineEvent.revise([EvidenceItem("duplicate_topics", a, other=b, similarity=1.0)]))

    @rule()
    def forget(self):
        self.engine.submit(EngineEvent.forget())

    @invariant()
    def parts_are_exact(self):
        state = self.engine.state
        assert_aggregates_exact(state)
        if any(r.committed for r in self.engine.journal.records):
            assert state.footprint() <= self.engine.config.beta.bound(state.clock)

    def teardown(self):
        if self.engine is None:  # the genesis was refused
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "machine.gemj"
            write_journal(path, self.engine.journal)
            assert state_digest(replay(read_journal(path))) == self.engine.digest()


EngineMachine.TestCase.settings = settings(max_examples=120, stateful_step_count=30, derandomize=True,
                                           database=None, deadline=None)
test_engine_machine = EngineMachine.TestCase

import pytest

from gemstore.baseline import BaselineJournalAdapter
from gemstore.config import EngineConfig
from gemstore.engine import EngineEvent, replay
from gemstore.model import state_digest
from gemstore.operators import Fact, FactBundle, Query


def note(i):
    return EngineEvent.ingest(FactBundle((Fact("Note", f"v{i}"),), f"note {i}"))


def removed_topics(records):
    return [d["id"] for r in records for d in r.deltas if d["kind"] == "topic_removed"]


def test_put_evicts_oldest_beyond_capacity():
    adapter = BaselineJournalAdapter(EngineConfig(), capacity=3)
    for i in range(5):
        _, records = adapter.submit(note(i))
        if i < 3:
            assert removed_topics(records) == []
    assert sorted(adapter.state.topics) == ["rec-0002", "rec-0003", "rec-0004"]
    assert removed_topics(adapter.journal.records) == ["rec-0000", "rec-0001"]


def test_eviction_orders_records_by_integer_id():
    adapter = BaselineJournalAdapter(EngineConfig(), capacity=2)
    adapter.next_id = 9998
    for i in range(3):
        adapter.submit(note(i))
    # "rec-10000" sorts before "rec-9999" as a string
    assert removed_topics(adapter.journal.records) == ["rec-9998"]
    assert set(adapter.state.topics) == {"rec-9999", "rec-10000"}


def test_query_is_a_pure_cosine_read():
    adapter = BaselineJournalAdapter(EngineConfig(k_topics=1), capacity=10)
    facts = (Fact("Deadline", "website redesign March 15"), Fact("Lunch", "vegetarian"))
    adapter.submit(EngineEvent.ingest(FactBundle(facts, "notes")))
    before = adapter.state
    output, records = adapter.submit(EngineEvent.retrieve(Query(text="website redesign deadline")))
    assert [(a.topic, a.field, a.value) for a in output.answers] == [
        ("rec-0000", "Deadline", "website redesign March 15")
    ]
    assert output.answers[0].at == 1
    assert records[0].deltas == []
    assert adapter.state.topics == before.topics  # reads change nothing


def test_adapter_refuses_a_config_that_reads_nothing():
    with pytest.raises(ValueError, match="k_topics"):
        BaselineJournalAdapter(EngineConfig(k_topics=0))


def test_duplicates_are_stored_again():
    adapter = BaselineJournalAdapter(EngineConfig(), capacity=10)
    same = EngineEvent.ingest(FactBundle((Fact("Note", "same text"),), "same text"))
    adapter.submit(same)
    adapter.submit(same)
    assert sorted(adapter.state.topics) == ["rec-0000", "rec-0001"]


def test_adapter_mirrors_records_and_evictions():
    adapter = BaselineJournalAdapter(EngineConfig(), capacity=2)
    for i in range(3):
        adapter.submit(note(i))
    assert set(adapter.state.topics) == {"rec-0001", "rec-0002"}
    kinds = [d["kind"] for r in adapter.journal.records for d in r.deltas]
    assert "topic_removed" in kinds  # eviction is unrecoverable deletion


def test_adapter_journal_replays_digest_exact():
    adapter = BaselineJournalAdapter(EngineConfig(), capacity=5)
    adapter.submit(EngineEvent.ingest(FactBundle((Fact("Deadline", "March 15"),), "website deadline", topic_hint="web")))
    adapter.submit(EngineEvent.retrieve(Query(text="website deadline")))
    adapter.submit(EngineEvent.tick())
    state = replay(adapter.journal)
    assert state_digest(state) == state_digest(adapter.state)


def test_adapter_query_commits_a_zero_delta_record():
    adapter = BaselineJournalAdapter(EngineConfig(), capacity=5)
    adapter.submit(EngineEvent.ingest(FactBundle((Fact("Deadline", "March 15"),), "website deadline")))
    _, records = adapter.submit(EngineEvent.retrieve(Query(text="website deadline")))
    record = adapter.journal.records[-1]
    assert records == [record]
    assert record.operator == "retrieve"
    assert record.committed
    assert record.deltas == []


def test_revise_and_forget_journal_nothing():
    adapter = BaselineJournalAdapter(EngineConfig(), capacity=5)
    adapter.submit(note(0))
    before = adapter.state
    for event in (EngineEvent.revise(), EngineEvent.forget()):
        assert adapter.submit(event) == (None, [])
    assert len(adapter.journal.records) == 1
    assert adapter.state is before

import ast
import functools
import hashlib
import heapq
import itertools
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import build_state, build_topic
from gemstore import embedding, operators
from gemstore.audit import audit
from gemstore.config import EngineConfig
from gemstore.embedding import (
    DIM,
    HostChoice,
    RoutingError,
    cosine,
    embed,
    select_host,
    tokenize,
)
from gemstore.engine import Engine
from gemstore.model import MemoryState, fresh_embedding_for, Topic
from gemstore.operators import Query, retrieve_read

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402  (perfbench/gen.py, imported read-only)


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
    assert a.terms == b.terms
    assert a.norm == b.norm
    assert a.terms and all(bucket in range(DIM) and value != 0 for bucket, value in a.terms.items())


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


# -- the dense oracle ---------------------------------------------------------
# The 256-wide integer vector each text stands for, hashed here on its own,
# and the cosine over two of them in the arithmetic of a dense dot product:
# an exact integer sum over a product of correctly rounded square roots.


def _dense(text):
    vec = [0] * DIM
    for token in re.findall(r"[a-z0-9]+", text.lower()):
        h = int.from_bytes(hashlib.blake2b(token.encode(), digest_size=8).digest(), "big")
        vec[h % DIM] += -1 if h >> 63 else 1
    return vec


def _oracle_cosine(a, b):
    na, nb = math.sqrt(sum(x * x for x in a)), math.sqrt(sum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(sum(x * y for x, y in zip(a, b))) / (na * nb)


def _opposed_words():
    """Two words that hash to one bucket with opposite signs, so that texts
    holding one each have a negative cosine."""
    seen = {}
    for i in itertools.count():
        word, vec = f"w{i}", _dense(f"w{i}")
        (bucket,) = [b for b, x in enumerate(vec) if x]
        sign = vec[bucket]
        if (bucket, -sign) in seen:
            return [seen[(bucket, -sign)], word]
        seen.setdefault((bucket, sign), word)


# a small vocabulary with repeats makes shared buckets, terms above 1 and
# exact ties common; punctuation alone has no terms and a zero norm
_WORDS = _opposed_words() + ["red", "green", "blue", "dark", "?!", ""]


def _random_text(rng):
    return " ".join(rng.choices(_WORDS, k=rng.randint(0, 5)))


def test_terms_are_the_non_zero_buckets_of_the_dense_vector():
    rng = random.Random("terms")
    for text in [_random_text(rng) for _ in range(300)] + ["", "?!", "a a a"]:
        vec, dense = embed(text), _dense(text)
        assert vec.terms == {b: x for b, x in enumerate(dense) if x}
        assert vec.norm == math.sqrt(sum(x * x for x in dense))


def test_cosine_equals_the_dense_oracle():
    rng = random.Random("cosine")
    seen = set()
    for _ in range(3000):
        ta, tb = _random_text(rng), _random_text(rng)
        expected = _oracle_cosine(_dense(ta), _dense(tb))
        assert cosine(embed(ta), embed(tb)) == expected, (ta, tb)
        if not embed(ta).terms:
            seen.add("zero norm")
        else:
            seen.add("negative" if expected < 0 else "positive" if expected > 0 else "orthogonal")
    assert seen == {"zero norm", "negative", "positive", "orthogonal"}


def test_cosine_equals_the_numpy_formula():
    """The dense formula the engine used before its vectors became sparse."""
    np = pytest.importorskip("numpy")
    rng = random.Random("numpy")
    for _ in range(500):
        a, b = (np.asarray(_dense(_random_text(rng)), dtype=np.float64) for _ in range(2))
        na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
        expected = 0.0 if na == 0.0 or nb == 0.0 else float(np.dot(a, b)) / (na * nb)
        assert _oracle_cosine(a.astype(int).tolist(), b.astype(int).tolist()) == expected


def _random_store(rng):
    """Up to 30 topics, some archived, whose embedding memos are random texts;
    each has one field whose name a query holding `note` matches."""
    texts = {}
    topics = []
    for i in range(rng.randint(0, 30)):
        tid = f"t{i:02d}"
        topic = build_topic(tid, fields={"Note": tid})
        texts[tid] = _random_text(rng)
        topic.embedding = embed(texts[tid])
        topic.archived = rng.random() < 0.15
        topics.append(topic)
    return build_state(topics), texts


def _oracle_ranking(state, texts, query):
    q = _dense(query)
    scores = {tid: _oracle_cosine(q, _dense(texts[tid])) for tid, t in state.topics.items() if not t.archived}
    return sorted(scores, key=lambda tid: (-scores[tid], tid)), scores


def test_rankings_and_host_choices_equal_the_dense_oracle():
    rng = random.Random("rankings")
    seen = set()
    for _ in range(300):
        state, texts = _random_store(rng)
        query = "note " + _random_text(rng)
        ranking, scores = _oracle_ranking(state, texts, query)
        # k below the live topics takes the heap path of the ranking
        for k in (1, 2, 3, max(1, len(ranking))):
            answers = retrieve_read(state, Query(text=query), EngineConfig(k_topics=k)).answers
            assert [a.topic for a in answers] == ranking[:k]
            if k < len(ranking):
                seen.add("tie at the cut" if scores[ranking[k - 1]] == scores[ranking[k]] else "k < live")
        # the router takes the first topic of the ranking if its score is
        # positive and clears tau
        best = ranking[0] if ranking and scores[ranking[0]] > 0.0 else None
        best_score = scores[best] if best is not None else 0.0
        for tau in (0.0, 0.35, 1.0):
            host = best if best_score >= tau else None
            assert select_host(state, query, None, tau) == HostChoice(host, best_score)
        values = list(scores.values())
        seen |= {"negative" for s in values if s < 0} | {"tie" for s in values if s > 0 and values.count(s) > 1}
        seen |= {"archived" for t in state.topics.values() if t.archived}
        seen |= {"zero norm" for tid in scores if not embed(texts[tid]).terms}
    assert seen == {"negative", "tie", "archived", "zero norm", "k < live", "tie at the cut"}


def _dense_scores(state, text, dense):
    """Every live topic scored by the dense oracle over its content text, as
    (-cosine, topic id)."""
    q = dense(text)
    return [(-_oracle_cosine(q, dense(t.content_text())), tid) for tid, t in state.topics.items() if not t.archived]


def test_benchmark_rankings_equal_the_dense_oracle(monkeypatch):
    """Every ranking that routing, reading and the auditor's probes ask for
    in store-large episodes at seeds 41-45 and one mixed-small stream, at
    k = 1, 3 and all live topics, against the brute force over all live
    topics."""
    real = embedding.rank_topics
    dense = functools.lru_cache(maxsize=None)(_dense)
    seen = set()

    def checked(state, text, k):
        scores = _dense_scores(state, text, dense)
        for n in sorted({1, 3, len(scores), k}):
            ranked = [(score, tid) for score, tid, _ in real(state, text, n)]
            assert ranked == heapq.nsmallest(n, scores), (text, n)
            seen.update("score-0 fill" if score == 0 else "negative" for score, _ in ranked if score >= 0)
        seen.update("archived" for t in state.topics.values() if t.archived)
        return real(state, text, k)

    monkeypatch.setattr(embedding, "rank_topics", checked)
    monkeypatch.setattr(operators, "rank_topics", checked)
    episodes = [gen.make_episode("store-large", seed, 0, gen.SMOKE) for seed in range(41, 46)]
    # the stream of seed 41 in which a topic is archived
    episodes.append(gen.make_episode("mixed-small", 41, 2, gen.FULL))
    for episode in episodes:
        engine = Engine(config=episode.config, genesis=episode.genesis, rules=episode.rules)
        for op in episode.ops:
            engine.submit(op.event)
        assert audit(engine.journal, list(episode.probes)).passed
    assert seen == {"score-0 fill", "negative", "archived"}


# -- the runtime imports only the standard library ----------------------------

_RUN_AND_AUDIT = """
import sys
import gemstore
from gemstore.audit import audit
from gemstore.workload import load_workload, run_workload
engine = gemstore.Engine()
run_workload(engine, load_workload(sys.argv[1]))
assert audit(engine.journal, []).passed
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


def test_running_and_auditing_a_workload_imports_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", _RUN_AND_AUDIT, str(ROOT / "workloads" / "deadline.workload")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_no_module_imports_numpy():
    for path in sorted((ROOT / "src" / "gemstore").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            assert not any(name.split(".")[0] == "numpy" for name in names), path.name
